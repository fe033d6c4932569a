"""Scaled hypergeometric evaluation, reductions, and transformations."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from gpaley.characters import MultChar, canonical_char, trivial_char
from gpaley.cyclotomic import CycInt
from gpaley.errors import OrderNotDividing, ShapeMismatch
from gpaley.finite_field import BLOCK_ELEMENTS, build_field, row_blocks
from gpaley.hypergeometric import (check_reduction, check_transformation,
                                   f21_definitional_numeric, f21_scaled,
                                   f32_definitional_numeric, f32_full_grid_sum,
                                   f32_indexed, f32_scaled,
                                   residue_histogram)
from gpaley.jacobi import solve_quadform
from gpaley.verify import (check_exact_vs_numeric, check_orbit_invariance,
                           check_reductions, check_transformations)
from helpers import digit_add, get_field, paley_pairs


def test_f21_trivial_parameters():
    ctx = get_field(13)
    eps = trivial_char(ctx)
    val = f21_scaled(eps, eps, eps, lam=1)
    assert val.scale_power == 1
    assert val.value.as_integer() == 11


def test_lambda_zero_annihilates():
    ctx = get_field(13)
    chi = canonical_char(ctx, 3)
    eps = trivial_char(ctx)
    assert f21_scaled(chi, chi, eps, lam=0).value.is_zero()
    assert f32_scaled(chi, chi, chi, eps, eps, lam=0).value.is_zero()
    assert f32_indexed(ctx, 3, (1, 1, 2, 0, 0), lam=0).value.is_zero()


def test_f21_against_definitional_numeric():
    ctx = get_field(13)
    phi = canonical_char(ctx, 2)
    eps = trivial_char(ctx)
    exact = f21_scaled(phi, phi, eps, lam=1).value.complex_value()
    numeric = 13 * f21_definitional_numeric(phi, phi, eps, lam=1)
    assert abs(exact - numeric) < 1e-9


def test_paper_search_values():
    ctx = get_field(127)
    assert f32_indexed(ctx, 3, (1, 1, 2, 0, 0)).value.as_integer() == -205
    ctx457 = get_field(457)
    assert f32_indexed(ctx457, 4, (1, 1, 3, 0, 0)).value.as_integer() == 290
    assert f32_indexed(ctx457, 4, (1, 2, 2, 0, 0)).value.as_integer() == -590


def test_quadratic_character_value_is_quadform_expression():
    # q = 1 mod 4: q^2 * 3F2(phi,phi,phi; eps,eps | 1) = 4x^2 - 2q
    for _, q in paley_pairs(120, ks=(2,)):
        ctx = get_field(q)
        x = solve_quadform("TwoSquares", ctx).a
        assert f32_indexed(ctx, 2, (1, 1, 1, 0, 0)).value.as_integer() == 4 * x * x - 2 * q
    assert f32_indexed(get_field(13), 2, (1, 1, 1, 0, 0)).value.as_integer() == 10


def test_histogram_path_matches_direct_sum():
    rng = random.Random(21)
    for k, q in ((2, 13), (3, 13), (3, 16), (4, 17), (5, 41), (6, 25)):
        ctx = get_field(q)
        chi = canonical_char(ctx, k)
        for _ in range(8):
            t = tuple(rng.randrange(k) for _ in range(5))
            fast = f32_indexed(ctx, k, t).value
            slow = f32_scaled(*(chi ** ti for ti in t), lam=1, conductor=k).value
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
                    for x in (a, ctx.sub(1, a), b, ctx.sub(b, 1), ctx.sub(a, b)):
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


# (p, r, ks): a prime with k = 6; GF(3^8); GF(2^10) with N = q - 1 odd;
# GF(7^3); q = 97 over several k; q = 13, k = 4 and q = 25, k = 8, where
# rho(-1) = k/2 is not 0; and q = 3, 4, whose half grid has 0 and 1 columns
HALF_GRID_FIELDS = [(3457, 1, (6,)), (3, 8, (8,)), (2, 10, (3,)), (7, 3, (6,)),
                    (97, 1, (2, 3, 4, 6, 8)), (13, 1, (4,)), (5, 2, (8,)),
                    (3, 1, (1, 2)), (2, 2, (1, 3))]


def test_half_grid_histogram_matches_the_full_grid_oracle():
    for p, r, ks in HALF_GRID_FIELDS:
        ctx = build_field(p, r)
        for k in ks:
            hist = residue_histogram(ctx, k)
            assert hist.dtype == np.int64 and hist.shape == (k ** 5,)
            assert np.array_equal(hist, _full_grid_histogram(ctx, k)), (p, r, k)
    assert build_field(13, 1).log_neg_one % 4 == 2
    assert build_field(5, 2).log_neg_one % 8 == 4


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


# one reused int64 row buffer of at most BLOCK_ELEMENTS cells, plus O(q)
# arrays and the k^5 bins
HIST_PEAK_BUDGET = 8 * BLOCK_ELEMENTS + 2 * 2 ** 20


def test_residue_histogram_memory_is_one_block_buffer():
    ctx = build_field(3457, 1)
    ctx.log_one_minus                            # field tables, built untraced
    tracemalloc.start()
    try:
        hist = residue_histogram(ctx, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(hist.sum()) == 3455 * 3454
    assert peak < HIST_PEAK_BUDGET


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
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            args = (a, ctx.sub(1, a), b, ctx.sub(b, 1), ctx.sub(a, ctx.mul(lam, b)))
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
            assert f32_scaled(*chars, lam=lam).value == _f32_double_loop(*chars, lam), (
                q, [ch.m for ch in chars], lam)


def test_histogram_rejects_bad_orders():
    ctx = get_field(13)
    for k in (0, -3):
        with pytest.raises(ValueError):
            residue_histogram(ctx, k)
    with pytest.raises(OrderNotDividing):
        residue_histogram(ctx, 5)


def test_scale_powers():
    ctx = get_field(13)
    eps = trivial_char(ctx)
    assert f21_scaled(eps, eps, eps, 1).scale_power == 1
    assert f32_scaled(eps, eps, eps, eps, eps, 1).scale_power == 2


def test_full_grid_sum_matches_termwise():
    for k, q in ((2, 13), (3, 13), (4, 13), (5, 11)):
        ctx = get_field(q)
        total = CycInt.zero(k)
        for t1 in range(k):
            for t2 in range(k):
                for t3 in range(k):
                    for t4 in range(k):
                        for t5 in range(k):
                            total = total + f32_indexed(ctx, k, (t1, t2, t3, t4, t5)).value
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
    assert f32_indexed(ctx, 3, t).value == f32_indexed(ctx, 3, image).value


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
    numeric = 169 * f32_definitional_numeric(chi3, chi3, chi3.conj(), eps, eps, 1)
    assert abs(exact.value.complex_value() - numeric) < 1e-8
