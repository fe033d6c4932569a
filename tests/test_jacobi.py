"""Jacobi sums, their aggregates, and the quadratic-form normalizations."""

import random
from math import isqrt

import pytest

from gpaley.characters import MultChar, canonical_char, trivial_char
from gpaley.cyclotomic import CycInt
from gpaley.errors import NoRepresentation, NotRational
from gpaley.finite_field import build_field, split_prime_power
from gpaley.hypergeometric import f21_scaled
from gpaley.jacobi import (EISENSTEIN, J0, JJ0, TWO_SQUARES, TWO_TIMES_SQUARE,
                           R_k, S_k, binom_symbol_scaled, cyclotomic_numbers,
                           jacobi_sum, jacobi_table, solve_quadform)
from gpaley.verify import check_aggregate_identities, check_quadform_lemmas
from helpers import digit_add, get_field, paley_pairs


def brute_jacobi(ctx, ma, mb):
    """J straight from the definition, exactly: the exponents
    ma ind a + mb ind(1 - a) over a != 0, 1, with 1 - a from digit_add,
    folded at conductor q - 1."""
    q = ctx.q
    counts = [0] * (q - 1)
    for a in range(1, q):
        b = digit_add(ctx, 1, a, -1)
        if b:
            counts[(ma * ctx.dlog(a) + mb * ctx.dlog(b)) % (q - 1)] += 1
    return CycInt.from_zeta_counts(q - 1, counts)


def test_jacobi_trivial_pair():
    ctx = get_field(13)
    eps = trivial_char(ctx)
    assert jacobi_sum(eps, eps).as_integer() == 11


def test_jacobi_with_trivial_left():
    for q in (13, 16, 17, 49):
        ctx = get_field(q)
        eps = trivial_char(ctx)
        for m in range(1, q - 1):
            chi = MultChar(ctx, m)
            assert jacobi_sum(eps, chi, conductor=chi.order).as_integer() == -1


def test_jacobi_conjugate_pair_value():
    rng = random.Random(3)
    for q in (13, 17, 25, 41):
        ctx = get_field(q)
        for _ in range(12):
            chi = MultChar(ctx, rng.randrange(1, q - 1))
            val = jacobi_sum(chi, chi.conj(), conductor=chi.order)
            assert val.as_integer() == -chi.sign_at_minus_one()


def test_jacobi_matches_the_definition():
    rng = random.Random(5)
    for q in (13, 16, 27, 37):
        ctx = get_field(q)
        for _ in range(10):
            a, b = rng.randrange(q - 1), rng.randrange(q - 1)
            A, B = MultChar(ctx, a), MultChar(ctx, b)
            assert jacobi_sum(A, B, conductor=q - 1) == brute_jacobi(ctx, a, b)


def test_order3_pair_sum_q13():
    ctx = get_field(13)
    chi3 = canonical_char(ctx, 3)
    val = (jacobi_sum(chi3, chi3, conductor=3)
           + jacobi_sum(chi3.conj(), chi3.conj(), conductor=3)).as_integer()
    assert val == -5
    assert 4 * 13 == (-5) ** 2 + 3 * 3 ** 2
    assert -5 % 3 == 1 and 3 % 3 == 0


def test_binom_symbol():
    ctx = get_field(13)
    eps = trivial_char(ctx)
    assert binom_symbol_scaled(eps, eps).as_integer() == 11
    rng = random.Random(8)
    for _ in range(15):
        chi = MultChar(ctx, rng.randrange(1, 12))
        assert binom_symbol_scaled(chi, chi, conductor=12).as_integer() == -1
        A, B = MultChar(ctx, rng.randrange(12)), MultChar(ctx, rng.randrange(12))
        lhs = binom_symbol_scaled(A, B, conductor=12).conj()
        rhs = binom_symbol_scaled(A.conj(), B.conj(), conductor=12)
        assert lhs == rhs


def test_R_and_S_vanish_for_k2():
    for _, q in paley_pairs(200, ks=(2,)):
        ctx = get_field(q)
        assert R_k(ctx, 2) == 0
        assert S_k(ctx, 2) == 0


def test_S_vanishes_for_k3():
    for _, q in paley_pairs(200, ks=(3,)):
        assert S_k(get_field(q), 3) == 0


def test_R3_at_127():
    assert R_k(get_field(127), 3) == -20


def test_R4_S4_at_457():
    ctx = get_field(457)
    x = solve_quadform(TWO_SQUARES, ctx).a
    assert x == 21
    assert R_k(ctx, 4) == -126 == -6 * x
    assert S_k(ctx, 4) == 2678 == 4 * x * x + 2 * 457


def test_R4_reduces_to_order4_trace():
    for _, q in paley_pairs(300, ks=(4,)):
        ctx = get_field(q)
        chi4 = canonical_char(ctx, 4)
        trace = (jacobi_sum(chi4, chi4, conductor=4)
                 + jacobi_sum(chi4.conj(), chi4.conj(), conductor=4)).as_integer()
        assert R_k(ctx, 4) == 3 * trace


def test_J0_JJ0_values_q13():
    ctx = get_field(13)
    assert J0(ctx, 2) == 8 == R_k(ctx, 2) + 13 - 6 + 1
    assert JJ0(ctx, 2) == 104


def test_J0_divisible_by_k_squared():
    for k, q in paley_pairs(200):
        assert J0(get_field(q), k) % (k * k) == 0


def test_aggregates_independent_of_order_k_character_choice():
    from math import gcd
    for k, q in paley_pairs(61):
        ctx = get_field(q)
        reference = R_k(ctx, k)
        for j in range(1, k):
            if gcd(j, k) != 1:
                continue
            chi = MultChar(ctx, j * (q - 1) // k)
            assert chi.order == k
            total = CycInt.zero(k)
            for s in range(1, k):
                for t in range(1, k):
                    if (s + t) % k:
                        total = total + jacobi_sum(chi ** s, chi ** t, conductor=k)
            assert total.as_integer() == reference


TABLE_QS = (13, 16, 25, 27, 49)


def _orders(q):
    return [k for k in range(1, 9) if (q - 1) % k == 0]


def test_cyclotomic_numbers_match_scalar_count():
    for q in TABLE_QS:
        ctx = get_field(q)
        for k in _orders(q):
            expect = [[0] * k for _ in range(k)]
            for a in range(2, q):               # every element but 0 and 1
                expect[ctx.dlog(a) % k][ctx.dlog(ctx.sub(1, a)) % k] += 1
            assert cyclotomic_numbers(ctx, k).tolist() == expect, (q, k)


def test_jacobi_table_matches_jacobi_sum():
    for q in TABLE_QS:
        ctx = get_field(q)
        for k in _orders(q):
            chi = canonical_char(ctx, k)
            table = jacobi_table(ctx, k)
            for s in range(k):
                for t in range(k):
                    assert table[s][t] == jacobi_sum(chi ** s, chi ** t, conductor=k), (q, k, s, t)


def test_J0_and_JJ0_by_orthogonality():
    """Summing zeta^(si + tj) over all s, t keeps only (0, 0)_k, so
    J0 = k^2 (0,0)_k and JJ0 = k^3 sum_i (i,0)_k^2."""
    for q in TABLE_QS + (37, 41, 61, 73, 97):
        ctx = get_field(q)
        for k in _orders(q):
            cyc = cyclotomic_numbers(ctx, k)
            assert J0(ctx, k) == k ** 2 * int(cyc[0, 0]), (q, k)
            assert JJ0(ctx, k) == k ** 3 * sum(int(c) ** 2 for c in cyc[:, 0]), (q, k)


# (R_k, S_k, J0, JJ0) by order k, as computed before the table was cached
AGGREGATES = {
    13: {2: (0, 0, 8, 104), 3: (-5, 0, 0, 135), 4: (-6, -42, 0, 128),
         6: (4, -84, 0, 216)},
    25: {2: (0, 0, 20, 488), 3: (10, 0, 27, 459), 4: (18, 86, 32, 576),
         6: (100, 1500, 108, 1944), 8: (-10, -334, 0, 1024)},
    49: {2: (0, 0, 44, 2120), 3: (13, 0, 54, 2079), 4: (42, 294, 80, 2368),
         6: (-32, -84, 0, 2808), 8: (294, 10290, 320, 12800)},
}


def test_aggregates_read_one_cached_table():
    for q, by_k in AGGREGATES.items():
        p, r = split_prime_power(q)
        ctx = build_field(p, r)                 # a fresh field: no table yet
        for k, expect in by_k.items():
            assert (R_k(ctx, k), S_k(ctx, k), J0(ctx, k), JJ0(ctx, k)) == expect, (q, k)
            assert jacobi_table(ctx, k) is jacobi_table(ctx, k)
        cached = sorted(key[1] for key in ctx._caches if key[0] == "jacobi")
        assert cached == sorted(by_k)


def test_characters_of_different_fields_are_rejected():
    chi13, chi37 = canonical_char(get_field(13), 3), canonical_char(get_field(37), 3)
    with pytest.raises(ValueError):
        jacobi_sum(chi13, chi37)
    with pytest.raises(ValueError):
        chi13 * chi37
    with pytest.raises(ValueError):
        f21_scaled(chi13, chi13, chi37, 1)


def test_aggregate_identities_grid():
    res = check_aggregate_identities(q_limit=200)
    assert res.passed, res.detail


def test_quadform_lemmas_all_branches():
    res = check_quadform_lemmas(q_limit=500)
    assert res.passed, res.detail


def brute_two_squares(q):
    """All (x, y) with q = x^2 + y^2, x odd normalized to 1 mod 4, y >= 0 even."""
    out = set()
    for x in range(1, isqrt(q) + 1):
        y2 = q - x * x
        y = isqrt(y2)
        if y * y == y2 and x % 2 == 1 and y % 2 == 0:
            out.add((x if x % 4 == 1 else -x, y))
    return out


def test_two_squares_normalization():
    cases = {457: (21, 4), 13: (-3, 2), 17: (1, 4), 25: (-3, 4), 41: (5, 4), 9: (-3, 0)}
    for q, (x, y) in cases.items():
        rep = solve_quadform(TWO_SQUARES, get_field(q))
        assert (rep.a, rep.b) == (x, y)
        assert rep.a ** 2 + rep.b ** 2 == q
        assert rep.a % 4 == 1
        assert (x, y) in brute_two_squares(q)


def test_two_squares_inert_branch():
    # p = 3 mod 4 forces x = (-p)^(r/2), y = 0
    for q, expect in ((9, -3), (49, -7), (81, 9)):
        rep = solve_quadform(TWO_SQUARES, get_field(q))
        assert (rep.a, rep.b) == (expect, 0)
        assert rep.inert


def test_eisenstein_normalization():
    cases = {127: (-20, 6), 7: (1, 3), 13: (-5, 3), 16: (-8, 0), 64: (16, 0), 4: (4, 0)}
    for q, (c, d) in cases.items():
        rep = solve_quadform(EISENSTEIN, get_field(q))
        assert (rep.a, rep.b) == (c, d)
        assert rep.a ** 2 + 3 * rep.b ** 2 == 4 * q
        assert rep.a % 3 == 1 and rep.b % 3 == 0


def test_two_times_square_normalization():
    cases = {457: (-13, 12), 17: (3, 2), 41: (3, 4), 25: (-5, 0), 49: (7, 0), 9: (-1, 2)}
    for q, (u, v) in cases.items():
        rep = solve_quadform(TWO_TIMES_SQUARE, get_field(q))
        assert (rep.a, rep.b) == (u, v)
        assert rep.a ** 2 + 2 * rep.b ** 2 == q
        assert rep.a % 4 == 3


def test_quadform_preconditions():
    with pytest.raises(NoRepresentation):
        solve_quadform(TWO_SQUARES, get_field(7))
    with pytest.raises(NoRepresentation):
        solve_quadform(EISENSTEIN, get_field(5))
    with pytest.raises(NoRepresentation):
        solve_quadform(TWO_TIMES_SQUARE, get_field(13))


def test_not_rational_guard():
    ctx = get_field(13)
    chi = canonical_char(ctx, 3)
    with pytest.raises(NotRational):
        jacobi_sum(chi, chi, conductor=3).as_integer()
