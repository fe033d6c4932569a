"""Field construction, table integrity, and k-th power residue queries."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from gpaley import finite_field
from gpaley.errors import CompositeP, InvalidCongruence, SizeLimit, ZeroInput
from gpaley.finite_field import (build_field, factorize, is_kth_power,
                                 is_prime, kth_power_residues,
                                 paley_congruence, prime_powers,
                                 split_prime_power, validate_paley_params)
from helpers import digit_add, get_field, paley_pairs, raw_mul


def brute_force_order(q, mul, g):
    x, n = g, 1
    while x != 1:
        x = mul(x, g)
        n += 1
    return n


def test_smallest_primitive_root_13():
    ctx = get_field(13)
    assert ctx.q == 13
    # oracle: exhaustive order check over Z_13
    orders = {g: brute_force_order(13, lambda a, b: a * b % 13, g) for g in range(2, 13)}
    smallest = min(g for g, n in orders.items() if n == 12)
    assert smallest == 2
    assert ctx.primitive_index == 2


def test_smallest_primitive_root_5():
    ctx = get_field(5)
    assert ctx.primitive_index == 2
    assert brute_force_order(5, lambda a, b: a * b % 5, 2) == 4


def test_gf16_modulus_is_first_irreducible():
    ctx = get_field(16)
    assert ctx.modulus == (1, 1, 0, 0, 1)   # x^4 + x + 1

    # oracle: scan degree-4 polynomials over Z_2 in base-2 value order and
    # find the first with no nonconstant divisor of degree <= 2
    def poly_mod(num, den):
        while len(num) >= len(den):
            if num[-1]:
                shift = len(num) - len(den)
                num = [(a - b * num[-1]) % 2 for a, b in
                       zip(num, [0] * shift + list(den))]
            num = num[:-1]
        return num

    def divides(den, num):
        return not any(poly_mod(list(num), list(den)))

    divisors = []
    for deg in (1, 2):
        for m in range(2 ** deg):
            divisors.append(tuple((m >> i) & 1 for i in range(deg)) + (1,))
    first = None
    for m in range(16):
        f = tuple((m >> i) & 1 for i in range(4)) + (1,)
        if not any(divides(d, f) for d in divisors):
            first = f
            break
    assert first == ctx.modulus


def test_smallest_irreducible_matches_sympy():
    """For every p^r <= 2^16 with r >= 2, the modulus is irreducible and
    every candidate before it in base-p order is reducible (sympy's test,
    coefficients high degree first)."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    fields = [(p, r) for p in range(2, 257) if is_prime(p)
              for r in range(2, 17) if p ** r <= 2 ** 16]
    assert len(fields) == 93
    for p, r in fields:
        f = finite_field._smallest_irreducible(p, r)
        assert len(f) == r + 1 and f[-1] == 1, (p, r)
        assert gf_irreducible_p(f[::-1], p, ZZ), (p, r)
        value = sum(c * p ** i for i, c in enumerate(f[:-1]))
        for m in range(value):
            g = [m // p ** i % p for i in range(r)] + [1]
            assert not gf_irreducible_p(g[::-1], p, ZZ), (p, r, m)


def test_composite_p_rejected():
    with pytest.raises(CompositeP):
        build_field(6, 1)
    with pytest.raises(CompositeP):
        build_field(1, 2)


def test_size_limit():
    with pytest.raises(SizeLimit):
        build_field(13, 1, size_limit=10)


def test_validate_paley_params():
    validate_paley_params(2, get_field(13))
    validate_paley_params(3, get_field(16))
    with pytest.raises(InvalidCongruence):
        validate_paley_params(4, get_field(13))


def test_paley_congruence():
    assert paley_congruence(2, 13) and paley_congruence(3, 16)
    assert not paley_congruence(4, 13)      # odd q needs q = 1 mod 2k
    assert not paley_congruence(2, 8)       # even q needs q = 1 mod k


def test_dlog_via_repeated_multiplication():
    ctx = get_field(13)
    x, j = 1, 0
    seen = {}
    while j < 12:
        seen[x] = j
        x = x * 2 % 13
        j += 1
    assert seen[3] == 4
    assert ctx.dlog(3) == 4


def test_field_axioms_random():
    rng = random.Random(99)
    for q in (13, 16, 27, 25, 49):
        ctx = get_field(q)
        for _ in range(50):
            a = rng.randrange(1, q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.add(a, ctx.neg(a)) == 0
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.pow_element(a, q - 1) == 1


def test_frobenius_additivity_prime_power():
    for q in (16, 27, 25):
        ctx = get_field(q)
        p = ctx.p
        for a in range(q):
            for b in range(q):
                lhs = ctx.pow_element(ctx.add(a, b), p)
                rhs = ctx.add(ctx.pow_element(a, p), ctx.pow_element(b, p))
                assert lhs == rhs


def test_neg_one_prime_field():
    assert get_field(13).neg(1) == 12


def test_square_residues_13():
    squares = sorted({a * a % 13 for a in range(1, 13)})
    ctx = get_field(13)
    assert kth_power_residues(ctx, 2) == squares == [1, 3, 4, 9, 10, 12]
    for a in range(1, 13):
        assert is_kth_power(ctx, a, 2) == (a in squares)


def test_minus_one_is_kth_power_under_valid_params():
    for k, q in paley_pairs(200):
        ctx = get_field(q)
        assert is_kth_power(ctx, ctx.neg(1), k)


def test_one_is_always_kth_power():
    for k, q in paley_pairs(100):
        assert is_kth_power(get_field(q), 1, k)


def test_residue_subgroup_size():
    for k, q in paley_pairs(200):
        assert len(kth_power_residues(get_field(q), k)) == (q - 1) // k


def test_exp_log_roundtrip():
    for q in (13, 16, 17, 25, 27, 49, 61, 81, 121, 127, 128):
        ctx = get_field(q)
        assert sorted(ctx.exp_table) == list(range(1, q))
        for j in range(q - 1):
            assert ctx.log_table[ctx.exp_table[j]] == j


def test_zero_input_errors():
    ctx = get_field(13)
    with pytest.raises(ZeroInput):
        ctx.inv(0)
    with pytest.raises(ZeroInput):
        ctx.dlog(0)
    with pytest.raises(ZeroInput):
        is_kth_power(ctx, 0, 2)


def test_alternate_generator_differs_but_consistent():
    for q in (13, 16, 41):
        base, alt = get_field(q), get_field(q, alt=True)
        assert base.primitive_index != alt.primitive_index
        assert sorted(alt.exp_table) == list(range(1, q))
        for j in range(q - 1):
            assert alt.log_table[alt.exp_table[j]] == j


def least_generators(p, r):
    """The two least generators of GF(p^r)*, every candidate from 1 up
    tested by square-and-multiply through the table-free raw_mul."""
    q = p ** r
    modulus = list(build_field(p, r).modulus)
    found = []
    for g in range(1, q):
        maximal = True
        for ell in factorize(q - 1):
            acc, base, e = 1, g, (q - 1) // ell
            while e:
                if e & 1:
                    acc = raw_mul(acc, base, p, r, modulus)
                base = raw_mul(base, base, p, r, modulus)
                e >>= 1
            maximal = maximal and acc != 1
        if maximal:
            found.append(g)
            if len(found) == 2:
                break
    return found


GENERATOR_FIELDS = [(p, 1) for p in range(2, 5000) if is_prime(p)] + [
    (2, 4), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
    (11, 2), (13, 2)]


def test_generator_matches_raw_mul_search():
    for p, r in GENERATOR_FIELDS:
        found = least_generators(p, r)
        assert build_field(p, r).primitive_index == found[0], (p, r)
        if len(found) == 2:
            alt = build_field(p, r, alt_generator=True)
            assert alt.primitive_index == found[1], (p, r)
        else:
            with pytest.raises(ValueError):
                build_field(p, r, alt_generator=True)


def test_lazy_log_and_zech_match_the_eager_formulas():
    for p, r in GENERATOR_FIELDS:
        ctx = build_field(p, r)
        q, exp = ctx.q, ctx.np_exp
        assert "np_log" not in vars(ctx) and "log_one_minus" not in vars(ctx)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        plus_one = np.where(exp % p == p - 1, exp - (p - 1), exp + 1)
        zech = np.where(plus_one == 0, -1, log[plus_one])     # ind(omega^n + 1)
        # 1 - omega^n = omega^(n + ind(-1)) + 1
        one_minus = zech[(np.arange(q - 1) + ctx.log_neg_one) % (q - 1)]
        assert ctx.log_neg_one == int(ctx.np_log[p - 1]), (p, r)
        assert ctx.np_log.dtype == ctx.log_one_minus.dtype == np.int64
        assert np.array_equal(ctx.np_log, log), (p, r)
        assert np.array_equal(ctx.log_one_minus, one_minus), (p, r)


def test_log_one_minus_is_the_read_only_log_sub_row():
    for p, r in GENERATOR_FIELDS:
        ctx = build_field(p, r)
        assert "log_one_minus" not in vars(ctx)
        table = ctx.log_one_minus
        assert table.dtype == np.int64
        x = digit_add(ctx, 1, ctx.np_exp, -1)             # 1 - omega^n
        assert np.array_equal(table, np.where(x == 0, -1, ctx.np_log[x])), (p, r)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0


@pytest.mark.parametrize("big", [False, True])
def test_prime_exp_table_is_the_power_sequence(big):
    primes = ([65537, 100057, 1048573] if big
              else [p for p in range(2, 5000) if is_prime(p)])
    for p in primes:
        ctx = build_field(p, 1)
        exp, omega = ctx.np_exp, ctx.primitive_index
        assert exp.dtype == np.int64 and len(exp) == p - 1
        assert np.array_equal(exp[1:], exp[:-1] * omega % p), p
        assert int(exp[-1]) * omega % p == 1, p
        assert np.array_equal(np.sort(exp), np.arange(1, p)), p


def test_exp_table_without_minus_one_in_place_raises(monkeypatch):
    real = finite_field._exp_table
    monkeypatch.setattr(finite_field, "_exp_table",
                        lambda *args: np.roll(real(*args), 1))
    ctx = build_field(13, 1)
    with pytest.raises(AssertionError, match="not -1"):
        ctx.np_exp
    for k in (2, 3, 6):                          # -1 = omega^6 is in S_k
        with pytest.raises(AssertionError, match="not -1"):
            ctx.powers(k)
    assert len(ctx.powers(4)) == 3               # -1 is not a fourth power
    assert "np_exp" not in vars(ctx) and 2 not in ctx._powers


def test_build_field_checks_minus_one_without_a_table(monkeypatch):
    real = finite_field._power
    for p, r in ((13, 1), (3, 4)):
        monkeypatch.setattr(finite_field, "_power",
                            lambda g, e, *args: real(g, e + 1, *args))
        with pytest.raises(AssertionError, match="not -1"):
            build_field(p, r)
        monkeypatch.undo()


def test_split_prime_power():
    assert split_prime_power(16) == (2, 4)
    assert split_prime_power(127) == (127, 1)
    with pytest.raises(ValueError):
        split_prime_power(12)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert [n for n in range(2, 25) if is_prime(n)] == primes


@pytest.mark.parametrize("q", [13, 16, 25, 27, 49])
@pytest.mark.parametrize("alt", [False, True])
def test_zech_arithmetic_matches_digit_addition(q, alt):
    ctx = get_field(q, alt=alt)
    for a in range(q):
        assert ctx.neg(a) == digit_add(ctx, 0, a, -1)
        for b in range(q):
            assert ctx.add(a, b) == digit_add(ctx, a, b)
            assert ctx.sub(a, b) == digit_add(ctx, a, b, -1)
    # the array form on every pair of nonzero elements:
    # ind(a - b) = ind a + L(ind b - ind a), L(0) = -1 at a = b
    logs = np.array([ctx.log_table[a] for a in range(1, q)])
    one_minus = ctx.log_one_minus[(logs[None, :] - logs[:, None]) % (q - 1)]
    diff = (logs[:, None] + one_minus) % (q - 1)
    for a in range(1, q):
        for b in range(1, q):
            d = -1 if one_minus[a - 1, b - 1] < 0 else int(diff[a - 1, b - 1])
            assert (0 if d < 0 else ctx.exp_table[d]) == digit_add(ctx, a, b, -1)


@pytest.mark.parametrize("p, r", [(2, 14), (3, 8), (7, 5), (257, 2)])
def test_doubled_exp_table_matches_sequential_recurrence(p, r):
    ctx = build_field(p, r)
    assert ctx.q - 1 > 1 << 12              # more than twelve doublings
    modulus = list(ctx.modulus)
    x = 1
    for j in range(ctx.q - 1):
        assert ctx.exp_table[j] == x
        x = raw_mul(x, ctx.primitive_index, p, r, modulus)
    assert x == 1


def test_zech_table_definition():
    for q in (2, 3, 16, 27, 49):
        ctx = get_field(q)
        for n in range(q - 1):
            total = digit_add(ctx, 1, ctx.exp_table[n], -1)
            assert ctx.one_minus_table[n] == (-1 if total == 0 else ctx.log_table[total])


def _build_digest(p, r, alt):
    """sha256 of (p, r, alt, modulus, primitive_index) and the np_exp bytes
    of one build, or of (p, r, alt, None) when it has no second generator."""
    h = hashlib.sha256()
    try:
        ctx = build_field(p, r, alt_generator=alt)
    except ValueError:
        h.update(repr((p, r, alt, None)).encode())
        return h.hexdigest()
    h.update(repr((p, r, alt, ctx.modulus, ctx.primitive_index)).encode())
    h.update(ctx.np_exp.tobytes())
    return h.hexdigest()


# digests of the construction that built extension tables by blocked int64
# matmuls, tested generators by polynomial powmod and moduli by Rabin's test
SMALL_FIELDS_DIGEST = (711, "490acdfbf3ebaa2fe32943af82f6e7eb"
                            "58178dc4b701a59174c42911e24d167f")
LARGE_FIELD_DIGESTS = {
    (2, 16): ("c598b89d1293d17856131c2827caa2ca5a100bfed550081e58b812a8edb79073",
              "d5ec70534a928f60dec3c29a86e00c2548376ed523bf115b7581e81cfb8a84f1"),
    (2, 14): ("29eec7504084f649bab23537b89c7572a333b1423b76ba1b241895234cd76419",
              "50b805fd70123b7636159ba16571a0dcc7b117d58b8107f42d6503c0fce2170f"),
    (3, 8): ("c3a063dad0eb68971222f14b81c29561b66a3da61975df2d946327f341268a00",
             "0b509a14968be2b7401d7e3fabaa09b3a4591cdf4a3770364ac536743cf66ef8"),
    (7, 5): ("de97f4fb26894b35b14691476f0031607ddf96f9bd2ac87e5593c69208ba4ae9",
             "5e87825dda21e24972f41eae2e22aabe3d0f53223fc998285718db03515cff7e"),
    (3, 10): ("00fba81f5f5567e01c3f936b500e48d6f774ea9b145d1e45b86997c7448e7874",
              "ca1c6746e4e4d3b0af2925d1a6a8e88a6468f8a06a1ceb2a25d7c460300d8036"),
    (2, 20): ("71e439caed49418926274bfc39d4b862b0a608c046cdad78534e4d1bb3f109d4",
              "661b3fa5a9a1f53570a13529acd84f48f8e6b4e43a57fe0ce5480161329bc9c5"),
}


def test_every_build_to_5000_is_byte_identical_to_the_recorded_digest():
    fields = sorted((p ** r, p, r) for p in range(2, 5001) if is_prime(p)
                    for r in range(1, 13) if p ** r <= 5000)
    h = hashlib.sha256()
    for _, p, r in fields:
        for alt in (False, True):
            h.update(_build_digest(p, r, alt).encode())
    assert (len(fields), h.hexdigest()) == SMALL_FIELDS_DIGEST


@pytest.mark.parametrize("p, r", sorted(LARGE_FIELD_DIGESTS))
def test_large_field_builds_are_byte_identical_to_the_recorded_digests(p, r):
    assert (_build_digest(p, r, False),
            _build_digest(p, r, True)) == LARGE_FIELD_DIGESTS[p, r]


def assert_powers_are_every_kth_exp_entry(p, r, alt):
    try:
        ctx = build_field(p, r, alt_generator=alt)
    except ValueError:                           # no second generator
        return
    q = ctx.q
    tables = {k: ctx.powers(k) for k in range(2, q) if (q - 1) % k == 0}
    assert "np_exp" not in vars(ctx)            # no table is read from np_exp
    for k, table in tables.items():
        assert table.dtype == np.int64 and not table.flags.writeable
        assert table.tobytes() == ctx.np_exp[::k].tobytes(), (p, r, alt, k)
    assert ctx.powers(1) is ctx.np_exp
    with pytest.raises(ValueError, match="does not divide"):
        ctx.powers(q)


def test_powers_match_every_kth_exp_entry_to_5000():
    for p in range(2, 5001):
        if is_prime(p):
            for r in range(1, 13):
                if p ** r <= 5000:
                    for alt in (False, True):
                        assert_powers_are_every_kth_exp_entry(p, r, alt)


@pytest.mark.parametrize("p, r", sorted(LARGE_FIELD_DIGESTS))
def test_powers_match_every_kth_exp_entry_on_the_large_fields(p, r):
    assert_powers_are_every_kth_exp_entry(p, r, False)


def test_is_irreducible_agrees_with_sympy_on_every_small_monic():
    """Reducible and irreducible alike: _smallest_irreducible returns at the
    first irreducible, so only this test reaches every reject branch."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    seen = [0, 0]
    for p, degrees in ((2, range(2, 9)), (3, range(2, 6)), (5, range(2, 4))):
        for r in degrees:
            for m in range(p ** r):
                f = [m // p ** i % p for i in range(r)] + [1]
                irreducible = gf_irreducible_p(f[::-1], p, ZZ)
                assert finite_field._is_irreducible(f, p) == irreducible, (p, f)
                seen[irreducible] += 1
    assert seen[0] > 0 and seen[1] > 0 and sum(seen) == 508 + 360 + 150


@pytest.mark.parametrize("q_max", list(range(21)) + [20000])
def test_prime_powers_match_sympy_primes(q_max):
    from sympy import primerange

    expected = sorted(p ** e for p in primerange(2, q_max + 1)
                      for e in range(1, q_max.bit_length() + 1)
                      if p ** e <= q_max)
    assert prime_powers(q_max) == expected


@pytest.mark.parametrize("p, r", [(2, 16), (3, 10), (2, 20)])
def test_build_field_peak_memory_is_within_four_exp_tables(p, r):
    build_field(p, r).np_exp
    tracemalloc.start()
    try:
        ctx = build_field(p, r)
        ctx.np_exp                               # the table is built on first read
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * ctx.np_exp.nbytes + (1 << 20), (p, r, peak)


@pytest.mark.parametrize("p, r, dtype", [(2, 16, np.uint8), (7, 5, np.uint8),
                                         (17, 2, np.uint16), (257, 2, np.uint32)])
def test_digit_planes_use_the_narrowest_dtype_that_holds_r_p_minus_1_squared(
        p, r, dtype, monkeypatch):
    real, seen = np.einsum, set()

    def spy(*args, **kwargs):
        seen.update(a.dtype for a in args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(finite_field.np, "einsum", spy)
    ctx = build_field(p, r)
    ctx.np_exp                                   # the table is built on first read
    assert seen == {np.dtype(dtype)}, (p, r)
    assert ctx.np_exp.dtype == np.int64
    assert np.array_equal(np.sort(ctx.np_exp), np.arange(1, ctx.q))
