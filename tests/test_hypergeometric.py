"""Scaled hypergeometric evaluation, reductions, and transformations."""

import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from gpaley import hypergeometric, verify
from gpaley.characters import MultChar, canonical_char, trivial_char
from gpaley.cyclotomic import CycInt, zeta_pow
from gpaley.errors import (GPaleyError, InexactTransform, OrderNotDividing,
                           ShapeMismatch, SizeLimit)
from gpaley.finite_field import (BLOCK_ELEMENTS, build_field, row_blocks,
                                 split_prime_power)
from gpaley.hypergeometric import (check_reduction, check_transformation,
                                   f21_scaled, f32_full_grid_sum, f32_indexed,
                                   f32_scaled, greene_sum, residue_histogram)
from gpaley.jacobi import solve_quadform
from gpaley.ramsey_search import admissible_q
from gpaley.verify import (check_exact_vs_numeric, check_orbit_invariance,
                           check_reductions, check_transformations)
from helpers import digit_add, get_field, paley_pairs, raw_mul


def test_f21_trivial_parameters():
    ctx = get_field(13)
    eps = trivial_char(ctx)
    assert f21_scaled(eps, eps, eps, lam=1).as_integer() == 11


def test_lambda_zero_annihilates():
    ctx = get_field(13)
    chi = canonical_char(ctx, 3)
    eps = trivial_char(ctx)
    assert f21_scaled(chi, chi, eps, lam=0).is_zero()
    assert f32_scaled(chi, chi, chi, eps, eps, lam=0).is_zero()
    assert f32_indexed(ctx, 3, (1, 1, 2, 0, 0), lam=0).is_zero()
    assert greene_sum((chi, chi, chi), (eps, eps), 0).is_zero()


def test_f21_against_definitional_numeric():
    ctx = get_field(13)
    phi = canonical_char(ctx, 2)
    eps = trivial_char(ctx)
    exact = f21_scaled(phi, phi, eps, lam=1).to_conductor(12)
    assert greene_sum((phi, phi), (eps,), 1) == 12 * exact


def test_paper_search_values():
    ctx = get_field(127)
    assert f32_indexed(ctx, 3, (1, 1, 2, 0, 0)).as_integer() == -205
    ctx457 = get_field(457)
    assert f32_indexed(ctx457, 4, (1, 1, 3, 0, 0)).as_integer() == 290
    assert f32_indexed(ctx457, 4, (1, 2, 2, 0, 0)).as_integer() == -590


def test_quadratic_character_value_is_quadform_expression():
    # q = 1 mod 4: q^2 * 3F2(phi,phi,phi; eps,eps | 1) = 4x^2 - 2q
    for _, q in paley_pairs(120, ks=(2,)):
        ctx = get_field(q)
        x = solve_quadform("TwoSquares", ctx).a
        assert f32_indexed(ctx, 2, (1, 1, 1, 0, 0)).as_integer() == 4 * x * x - 2 * q
    assert f32_indexed(get_field(13), 2, (1, 1, 1, 0, 0)).as_integer() == 10


def test_histogram_path_matches_direct_sum():
    rng = random.Random(21)
    for k, q in ((2, 13), (3, 13), (3, 16), (4, 17), (5, 41), (6, 25)):
        ctx = get_field(q)
        chi = canonical_char(ctx, k)
        for _ in range(8):
            t = tuple(rng.randrange(k) for _ in range(5))
            fast = f32_indexed(ctx, k, t)
            slow = f32_scaled(*(chi ** ti for ti in t), lam=1, conductor=k)
            assert fast == slow


def test_residue_histogram_matches_scalar_double_loop():
    """Every k <= 8 dividing q - 1, whether or not (k, q) is a Paley pair."""
    for q in (13, 16, 25, 27, 49):
        ctx = get_field(q)
        for k in range(1, 9):
            if (q - 1) % k:
                continue
            expect = [0] * k ** 5
            for a in range(2, q):               # a, b run over F_q minus {0, 1}
                for b in range(2, q):
                    if a == b:
                        continue
                    idx = 0
                    for x in (a, digit_add(ctx, 1, a, -1), b,
                              digit_add(ctx, b, 1, -1), digit_add(ctx, a, b, -1)):
                        idx = idx * k + ctx.dlog(x) % k
                    expect[idx] += 1
            assert residue_histogram(ctx, k).tolist() == expect, (q, k)


def _full_grid_histogram(ctx, k):
    """The ordered-pair oracle: every (a, b) cell of the full grid, rho(a - b)
    read through the residue table at the log difference m = ind b - ind a,
    with a = b (m = 0) sent to leading digits [2k, 3k) and dropped."""
    k4 = k ** 4
    n = np.arange(1, ctx.q - 1)
    one_minus = ctx.np_log[digit_add(ctx, 1, ctx.np_exp, -1)] % k   # n = 0 reset below
    one_minus[0] = 2 * k
    lead = one_minus * k4
    row = n % k * (k4 + k ** 3) + one_minus[n] * k * k
    col = n % k * k + ctx.np_log[digit_add(ctx, ctx.np_exp[n], 1, -1)] % k
    n, row, col, lead = (x.astype(np.int32) for x in (n, row, col, lead))
    hist = np.zeros(3 * k * k4, dtype=np.int64)
    for blk in row_blocks(len(n), len(n)):
        flat = row[blk, None] + col[None, :] + lead[n[None, :] - n[blk, None]]
        hist += np.bincount(flat.ravel(), minlength=len(hist))
    low, high, _ = hist.reshape(3, k, k4)
    return (low + high).T.ravel()


# (p, r, ks): primes with k = 6 whose transform length (q - 1)/6 is the
# smooth 2^6 3^2 or 2 191, with a large prime factor; q = 2417, k = 8,
# length 2 151; q = 479, k = 2, the odd prime length 239; q = 421, k = 7;
# GF(3^8); GF(2^10) with N = q - 1 odd; GF(7^3); q = 97 over several k;
# q = 13, k = 4 and q = 25, k = 8, where rho(-1) = k/2 is not 0; q = 3, 4,
# with no pair a != b; and q = 2, with no a at all
FULL_GRID_FIELDS = [(3457, 1, (6,)), (2293, 1, (6,)), (2417, 1, (8,)), (479, 1, (2,)),
                    (421, 1, (7,)), (3, 8, (8,)), (2, 10, (3,)),
                    (7, 3, (6,)), (97, 1, (2, 3, 4, 6, 8)), (13, 1, (4,)),
                    (5, 2, (8,)), (3, 1, (1, 2)), (2, 2, (1, 3)), (2, 1, (1,))]


def test_residue_histogram_matches_the_full_grid_oracle():
    for p, r, ks in FULL_GRID_FIELDS:
        ctx = build_field(p, r)
        for k in ks:
            hist = residue_histogram(ctx, k)
            assert hist.dtype == np.int64 and hist.shape == (k ** 5,)
            assert np.array_equal(hist, _full_grid_histogram(ctx, k)), (p, r, k)
    assert build_field(13, 1).log_neg_one % 4 == 2
    assert build_field(5, 2).log_neg_one % 8 == 4


@pytest.mark.parametrize("q", [7213, 7393])
def test_histogram_values_match_the_direct_pass_at_large_q(q):
    """f32_indexed reads the spectral histogram; f32_scaled is the direct
    windowed pass.  The transform lengths (q - 1)/6 are 2 601, with a large
    prime factor, and 2^4 7 11, with small ones."""
    ctx = get_field(q)
    chi = canonical_char(ctx, 6)
    rng = random.Random(q)
    for _ in range(4):
        t = tuple(rng.randrange(6) for _ in range(5))
        assert f32_indexed(ctx, 6, t) == f32_scaled(*(chi ** ti for ti in t), lam=1,
                                                    conductor=6), (q, t)


@pytest.mark.parametrize("q, k, n_t", [(61, 3, None), (457, 4, None),
                                       (61, 6, 300), (97, 8, 60)])
def test_histogram_fold_matches_the_per_bin_exponents(q, k, n_t):
    """The fold equals counting each bin at its own exponent <x, c> mod k,
    for every t (k = 3, 4) or a seeded sample of them (k = 6, 8)."""
    ctx = get_field(q)
    hist = residue_histogram(ctx, k)
    grid = hypergeometric._index_vectors(k)
    ts = [tuple(int(v) for v in t) for t in grid]
    if n_t is not None:
        ts = random.Random(q * k).sample(ts, n_t)
    for t in ts:
        counts = np.zeros(k, dtype=np.int64)
        np.add.at(counts, (grid @ hypergeometric._coef_vector(k, t)) % k, hist)
        assert f32_indexed(ctx, k, t) == CycInt.from_zeta_counts(k, counts.tolist()), t


def test_past_the_fold_cap_a_value_builds_no_histogram(monkeypatch):
    """At k = 16 > HIST_FOLD_K a lambda = 1 value takes the direct pass and
    caches no histogram; once the histogram is cached, the same values come
    from its fold (the direct pass patched to raise)."""
    assert hypergeometric.HIST_FOLD_K < 16
    ctx = build_field(97, 1)
    rng = random.Random(16)
    ts = [tuple(rng.randrange(16) for _ in range(5)) for _ in range(4)]
    direct = [f32_indexed(ctx, 16, t) for t in ts]
    assert ("f32hist", 16) not in ctx._caches
    try:
        residue_histogram(ctx, 16)

        def no_direct_pass(*args, **kwargs):
            raise AssertionError("the direct pass ran with the histogram cached")

        monkeypatch.setattr(hypergeometric, "f32_scaled", no_direct_pass)
        assert [f32_indexed(ctx, 16, t) for t in ts] == direct
    finally:
        for table in (hypergeometric._index_vectors, hypergeometric._relabel_index,
                      hypergeometric._swap_index):
            table.cache_clear()             # k = 16's tables hold about 56 MiB


# digest of the histograms whose class sums were contracted by one real
# einsum per block, over every admissible (q, k), q <= 3000, k <= 8
HISTOGRAM_DIGEST = (948, "de00b56a6cd096b4376d8b4c1acce258"
                         "ae42ccbefca9e4d2cbb9d1c8ec9f32df")


def test_every_histogram_to_3000_is_byte_identical_to_the_recorded_digest():
    pairs = sorted((q, k) for k in range(2, 9) for q in admissible_q(k, 3000))
    fields, h = {}, hashlib.sha256()
    for q, k in pairs:
        if q not in fields:
            fields[q] = build_field(*split_prime_power(q))
        h.update(repr((q, k)).encode())
        h.update(residue_histogram(fields[q], k).tobytes())
    assert (len(pairs), h.hexdigest()) == HISTOGRAM_DIGEST


@pytest.mark.parametrize("lags, match", [
    ({2: 0.5}, "within 1/4"),              # a fraction: the rounding guard
    ({2: 1.0}, "total mass"),              # one more pair in a class sum
    ({4: 1.0, 2: -1.0}, "a = b class"),    # mass kept, moved into t = k (m = 0)
    ({1: 1.0, 2: -1.0}, "swap law"),       # mass kept, moved between m-classes
])
def test_a_perturbed_transform_raises_and_caches_nothing(monkeypatch, lags, match):
    """The first matmul call is the float contraction's only block at
    q = 37, k = 4.  Each key of lags is an m-class t, and the matmul's
    class sum [(i, s), x, (t, u)] = [0, 0, 4t] is moved by its value."""
    ctx = build_field(37, 1)                   # rho(-1) = 2 for k = 4
    matmul = np.matmul
    calls = []

    def perturbed(*args, **kwargs):
        out = matmul(*args, **kwargs)
        if not calls:
            for t, delta in lags.items():
                out[0, 0, 4 * t] += delta
        calls.append(out.shape)
        return out

    monkeypatch.setattr(np, "matmul", perturbed)
    with pytest.raises(InexactTransform, match=match) as err:
        residue_histogram(ctx, 4)
    assert isinstance(err.value, GPaleyError) and calls[0] == (16, 4, 20)
    assert ctx._caches == {}
    monkeypatch.undo()
    assert np.array_equal(residue_histogram(ctx, 4), _full_grid_histogram(ctx, 4))


def test_residue_histogram_runs_no_inverse_transform(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("inverse transform called")

    monkeypatch.setattr(np.fft, "irfft", refused)
    monkeypatch.setattr(np.fft, "ifft", refused)
    for p, r, k in ((3457, 1, 6), (2293, 1, 6), (97, 1, 8)):
        ctx = build_field(p, r)
        assert np.array_equal(residue_histogram(ctx, k), _full_grid_histogram(ctx, k))


def test_histogram_swap_symmetry_and_mass():
    """Swapping a and b moves bin (i, u, j, v, w) to (j, v-e, i, u+e, w+e),
    e = rho(-1), and the bins count the (q-2)(q-3) ordered pairs."""
    for q in (13, 16, 25, 27, 49):
        ctx = get_field(q)
        for k in range(1, 9):
            if (q - 1) % k:
                continue
            e = ctx.log_neg_one % k
            hist = residue_histogram(ctx, k).reshape((k,) * 5)
            i, u, j, v, w = np.indices((k,) * 5)
            swapped = hist[j, (v - e) % k, i, (u + e) % k, (w + e) % k]
            assert np.array_equal(swapped, hist), (q, k)
            assert int(hist.sum()) == (q - 2) * (q - 3), (q, k)


# f32_scaled: one reused int64 row buffer of at most BLOCK_ELEMENTS cells,
# plus O(q) arrays; residue_histogram: O(q) spectra at length (q - 1)/k,
# contraction blocks of CONTRACTION_BLOCK float64 cells and the k^5 bins
HIST_PEAK_BUDGET = 8 * BLOCK_ELEMENTS + 2 * 2 ** 20


def test_residue_histogram_memory_is_one_block_buffer():
    """Lengths with a large prime factor (7213) and with small ones
    (3457, 7393) at k = 6, and GF(3^10) at k = 2, whose (q - 1)/2 rows are
    the longest here."""
    for p, r, k in ((3457, 1, 6), (7213, 1, 6), (7393, 1, 6), (3, 10, 2)):
        ctx = build_field(p, r)
        ctx.log_one_minus                        # field tables, built untraced
        tracemalloc.start()
        try:
            hist = residue_histogram(ctx, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(hist.sum()) == (ctx.q - 2) * (ctx.q - 3)
        assert peak < HIST_PEAK_BUDGET, ctx.q


def test_f32_scaled_memory_is_one_block_buffer():
    ctx = build_field(3457, 1)
    chi = canonical_char(ctx, 6)
    chars = [chi ** t for t in (1, 2, 5, 3, 4)]
    f32_scaled(*chars, lam=5)                    # field and zeta tables, untraced
    tracemalloc.start()
    try:
        f32_scaled(*chars, lam=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < HIST_PEAK_BUDGET


def _f32_double_loop(A, B, C, D, E, lam):
    """q^2 * 3F2(A, B, C; D, E | lam) term by term: the sum over a, b of
    AE^-1(a) C^-1E(1 - a) B(b) B^-1D(b - 1) A^-1(a - lam b), with every
    character zero at zero."""
    ctx = A.ctx
    c = math.lcm(*(ch.order for ch in (A, B, C, D, E)))
    x = [ch.exponent_in(c) for ch in
         (A * E.conj(), C.conj() * E, B, B.conj() * D, A.conj())]
    counts = [0] * c
    modulus = list(ctx.modulus)
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            lam_b = raw_mul(lam, b, ctx.p, ctx.r, modulus)
            args = (a, digit_add(ctx, 1, a, -1), b, digit_add(ctx, b, 1, -1),
                    digit_add(ctx, a, lam_b, -1))
            if 0 not in args:
                counts[sum(xi * ctx.dlog(y) for xi, y in zip(x, args)) % c] += 1
    return CycInt.from_zeta_counts(c, counts)


@pytest.mark.parametrize("q", [13, 16, 25, 27, 49])
def test_f32_scaled_at_general_lambda_matches_scalar_double_loop(q):
    ctx = get_field(q)
    rng = random.Random(q)
    for _ in range(3):
        chars = [MultChar(ctx, rng.randrange(q - 1)) for _ in range(5)]
        for lam in rng.sample(range(2, q), 3):
            expect = _f32_double_loop(*chars, lam)
            where = (q, [ch.m for ch in chars], lam)
            assert f32_scaled(*chars, lam=lam) == expect, where
            assert greene_sum(chars[:3], chars[3:], lam) == (
                (q - 1) * expect.to_conductor(q - 1)), where


def test_histogram_rejects_bad_orders():
    ctx = get_field(13)
    for k in (0, -3):
        with pytest.raises(ValueError):
            residue_histogram(ctx, k)
    with pytest.raises(OrderNotDividing):
        residue_histogram(ctx, 5)


def test_full_grid_sum_matches_termwise():
    for k, q in ((2, 13), (3, 13), (4, 13), (5, 11)):
        ctx = get_field(q)
        total = CycInt.zero(k)
        for t1 in range(k):
            for t2 in range(k):
                for t3 in range(k):
                    for t4 in range(k):
                        for t5 in range(k):
                            total = total + f32_indexed(ctx, k, (t1, t2, t3, t4, t5))
        assert f32_full_grid_sum(ctx, k) == total


def test_reduction_case1_q13_k3():
    rng = random.Random(31)
    ctx = get_field(13)
    chi = canonical_char(ctx, 3)
    eps = trivial_char(ctx)
    for _ in range(10):
        params = (eps,) + tuple(chi ** rng.randrange(3) for _ in range(4))
        assert check_reduction(1, params)


def test_reduction_case6_q13_k4():
    rng = random.Random(32)
    ctx = get_field(13)
    chi = canonical_char(ctx, 4)
    for _ in range(10):
        A, B, C, D = (chi ** rng.randrange(4) for _ in range(4))
        E = A * B * C * D.conj()
        assert check_reduction(6, (A, B, C, D, E))


def test_reduction_2f1_q17():
    rng = random.Random(33)
    ctx = get_field(17)
    for _ in range(10):
        params = tuple(MultChar(ctx, rng.randrange(16)) for _ in range(3))
        assert check_reduction("2F1", params)


def test_reduction_shape_mismatch():
    ctx = get_field(13)
    chi = canonical_char(ctx, 3)
    eps = trivial_char(ctx)
    with pytest.raises(ShapeMismatch):
        check_reduction(1, (chi, eps, eps, eps, eps))
    with pytest.raises(ShapeMismatch):
        check_reduction(3, (chi, eps, eps, chi ** 2, eps))


def index_map_for_transformation(case, t, k):
    """The affine action on index vectors induced by each transformation."""
    t1, t2, t3, t4, t5 = t
    maps = {
        1: (t2 - t4, t1 - t4, t3 - t4, -t4, t5 - t4),
        2: (t1, t1 - t4, t1 - t5, t1 - t2, t1 - t3),
        3: (t2 - t4, t2, t2 - t5, t2 - t1, t2 - t3),
        4: (t1, t2, t5 - t3, t1 + t2 - t4, t5),
        5: (t1, t4 - t2, t3, t4, t1 + t3 - t5),
        6: (t4 - t1, t2, t3, t4, t2 + t3 - t5),
        7: (t4 - t1, t4 - t2, t3, t4, t4 + t5 - t1 - t2),
    }
    return tuple(x % k for x in maps[case])


def test_transformation_t1_displayed_case():
    ctx = get_field(13)
    chi = canonical_char(ctx, 3)
    t = (1, 2, 1, 2, 0)
    params = tuple(chi ** ti for ti in t)
    assert check_transformation(1, params)
    image = index_map_for_transformation(1, t, 3)
    assert f32_indexed(ctx, 3, t) == f32_indexed(ctx, 3, image)


def test_transformation_t7_q25_k2():
    rng = random.Random(34)
    ctx = get_field(25)
    chi = canonical_char(ctx, 2)
    for _ in range(8):
        params = tuple(chi ** rng.randrange(2) for _ in range(5))
        assert check_transformation(7, params)


def test_column_permutation_q17_k4():
    rng = random.Random(35)
    ctx = get_field(17)
    chi = canonical_char(ctx, 4)
    for _ in range(8):
        params = tuple(chi ** rng.randrange(4) for _ in range(5))
        assert check_transformation("perm", params)


def test_reduction_sweeps():
    res = check_reductions(cases=60)
    assert res.passed, res.detail


def test_transformation_sweeps():
    res = check_transformations(cases=60)
    assert res.passed, res.detail


def test_orbit_invariance():
    res = check_orbit_invariance()
    assert res.passed, res.detail


def test_exact_matches_definitional_numeric_sweep():
    res = check_exact_vs_numeric()
    assert res.passed, res.detail


def test_definitional_numeric_3f2_spot():
    ctx = get_field(13)
    chi3 = canonical_char(ctx, 3)
    eps = trivial_char(ctx)
    exact = f32_scaled(chi3, chi3, chi3.conj(), eps, eps, 1, conductor=3)
    assert greene_sum((chi3, chi3, chi3.conj()), (eps, eps), 1) == 12 * exact.to_conductor(12)


def test_exact_vs_greene_reads_no_float(monkeypatch):
    def refuse(self):
        raise AssertionError("complex_value called")
    monkeypatch.setattr(CycInt, "complex_value", refuse)
    res = check_exact_vs_numeric(q_limit=29)
    assert res.passed, res.detail


@pytest.mark.parametrize("name, case, other", [("f21_scaled", "'2F1'", "'3F2'"),
                                               ("f32_indexed", "'3F2'", "'2F1'")])
def test_exact_vs_greene_names_a_faulted_evaluator(monkeypatch, name, case, other):
    """Each value times zeta_k, as if one term's exponent were off by one."""
    real = getattr(verify, name)

    def turned(*args, **kwargs):
        value = real(*args, **kwargs)
        return value * zeta_pow(value.k, 1)
    monkeypatch.setattr(verify, name, turned)
    res = check_exact_vs_numeric(q_limit=29)
    assert not res.passed
    assert case in res.detail and other not in res.detail, res.detail


def test_greene_sum_reads_neither_the_window_pass_nor_the_histogram(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("shared kernel called")
    monkeypatch.setattr(hypergeometric, "_window_bincount", refuse)
    monkeypatch.setattr(hypergeometric, "residue_histogram", refuse)
    for q in (13, 16, 25):
        ctx = get_field(q)
        rng = random.Random(q)
        chars = [MultChar(ctx, rng.randrange(q - 1)) for _ in range(5)]
        lam = rng.randrange(2, q)
        with pytest.raises(AssertionError):
            f32_scaled(*chars, lam=lam)
        expect = _f32_double_loop(*chars, lam)
        assert greene_sum(chars[:3], chars[3:], lam) == (q - 1) * expect.to_conductor(q - 1)
        expect = f21_scaled(*chars[:3], lam, conductor=q - 1)
        assert greene_sum(chars[:2], chars[2:3], lam) == (q - 1) * expect


def test_greene_sum_size_limit():
    """The circulant gather holds (q - 1)^3 cells: q = 101 fits in
    BLOCK_ELEMENTS, q = 103 does not."""
    chi = MultChar(get_field(101), 1)
    assert greene_sum((chi, chi), (chi,), 2).k == 100
    chi = MultChar(get_field(103), 1)
    with pytest.raises(SizeLimit):
        greene_sum((chi, chi), (chi,), 2)
