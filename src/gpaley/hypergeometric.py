"""Exact 2F1 and 3F2 finite field hypergeometric functions.

Values are always carried with their q-power scaling (q * 2F1, q^2 * 3F2):
the scaled sums are cyclotomic integers, so the whole pipeline stays exact.
Each evaluator walks the defining character double sum, histograms the
root-of-unity exponents, and folds the histogram once; terms with any zero
argument vanish because every character, the trivial one included, is zero
at zero.  Every log comes from the field's one difference table
L(n) = ind(1 - omega^n): with b = a omega^m, ind(a - b) = ind a + L(m).

Both O(q^2) sums, f32_scaled at any lambda and residue_histogram, run on
one windowed pass, _window_bincount.  For characters that are powers of one
order-k character, residue_histogram counts the residue patterns of all
(a, b) pairs once per (q, k), and every lambda = 1 value is a fold of it.

The reduction and transformation checkers compare both sides of the known
identities after clearing all denominators by powers of q; they return a
plain bool so sweeps can be run at scale.

A floating-point evaluation of the underlying sum over all q-1 characters is
included purely as a cross-validation oracle; results never flow from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .characters import MultChar, canonical_char, check_order, same_ctx
from .cyclotomic import CycInt
from .errors import ShapeMismatch, SizeLimit
from .finite_field import BLOCK_ELEMENTS, FieldContext
from .jacobi import binom_symbol_scaled

HIST_K_CAP = 8   # largest k whose k^5-bin lambda=1 histogram is built


@dataclass(frozen=True)
class ScaledHypValue:
    value: CycInt
    scale_power: int      # stored value equals q**scale_power times the function


def _conductor(chars) -> int:
    return lcm(*(ch.order for ch in chars))


def f21_scaled(A: MultChar, B: MultChar, C: MultChar, lam: int,
               conductor: int | None = None) -> ScaledHypValue:
    """q * 2F1(A, B; C | lam) = sum over b of AC^-1(b) B^-1C(1-b) A^-1(b-lam)."""
    ctx = same_ctx((A, B, C))
    c = conductor if conductor is not None else _conductor((A, B, C))
    if lam == 0:
        return ScaledHypValue(CycInt.zero(c), 1)
    x1 = (A * C.conj()).exponent_in(c)
    x2 = (B.conj() * C).exponent_in(c)
    x3 = A.conj().exponent_in(c)
    n = np.arange(ctx.q - 1)                   # b = omega^n
    l_omb = ctx.log_one_minus                  # ind(1 - b)
    # b - lam = -lam (1 - b/lam); exponents are read mod c, which divides
    # q - 1, so ind(b - lam) = ind(-lam) + ind(1 - b/lam) needs no reduction
    l_lam = ctx.dlog(lam)
    l_omb_lam = np.roll(l_omb, l_lam)          # ind(1 - b/lam)
    valid = (l_omb >= 0) & (l_omb_lam >= 0)
    l_bml = l_omb_lam + (l_lam + ctx.log_neg_one)
    e = (x1 * n + x2 * l_omb + x3 * l_bml)[valid] % c
    counts = np.bincount(e, minlength=c)
    return ScaledHypValue(CycInt.from_zeta_counts(c, counts.tolist()), 1)


def f32_scaled(A: MultChar, B: MultChar, C: MultChar, D: MultChar, E: MultChar,
               lam: int, conductor: int | None = None) -> ScaledHypValue:
    """q^2 * 3F2(A, B, C; D, E | lam) over the full (a, b) double sum, in
    the grid (na, m): a = omega^na, a - lam b = a (1 - omega^m), m != 0.
    Codes are reduced mod c | q - 1, so a cell lies in [0, 3c); b = 1
    carries a sentinel code that lands past those bins."""
    ctx = same_ctx((A, B, C, D, E))
    c = conductor if conductor is not None else _conductor((A, B, C, D, E))
    if lam == 0:
        return ScaledHypValue(CycInt.zero(c), 2)
    x1 = (A * E.conj()).exponent_in(c)
    x2 = (C.conj() * E).exponent_in(c)
    x3 = B.exponent_in(c)
    x4 = (B.conj() * D).exponent_in(c)
    x5 = A.conj().exponent_in(c)
    n = np.arange(ctx.q - 1)                   # na, nb, m
    l_om = ctx.log_one_minus                   # L(n); n = 0 (a = 1, b = 1) unread
    row = ((x1 + x5) * n + x2 * l_om)[1:] % c  # ind(a), ind(1 - a), ind(a - lam b)
    col = (x3 * n + x4 * (l_om + ctx.log_neg_one)) % c    # ind(b), ind(b - 1)
    col[0] = 3 * c                             # b = 1
    lead = x5 * l_om[1:] % c                   # ind(1 - omega^m), m = j + 1
    # row na = i + 1 reads nb = na + m - ind lam = i + 2 + j - ind lam
    counts = _window_bincount(row, col, lead, 2 - ctx.dlog(lam), 5 * c)
    counts = counts[:3 * c].reshape(3, c).sum(axis=0)
    return ScaledHypValue(CycInt.from_zeta_counts(c, counts.tolist()), 2)


def _window_bincount(row: np.ndarray, col: np.ndarray, lead: np.ndarray,
                     offset: int, n_bins: int) -> np.ndarray:
    """Bincount, in n_bins int64 bins, of row[i] + col[(i + offset + j) mod N]
    + lead[j] over i < len(row) and j < len(lead) <= 2N + 1 - len(row),
    N = len(col).  Row i is a contiguous window of col doubled and rotated
    by offset, so a cell costs two adds and a bincount; rows fill one reused
    int64 buffer of at most BLOCK_ELEMENTS cells."""
    n, width = len(col), len(lead)
    windows = sliding_window_view(col[(np.arange(2 * n) + offset) % n], width)
    rows = max(1, min(len(row), BLOCK_ELEMENTS // max(1, width)))
    buf = np.empty((rows, width), dtype=np.int64)
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, len(row), rows):
        cells = buf[:min(rows, len(row) - start)]
        np.add(row[start:start + len(cells), None],
               windows[start:start + len(cells)], out=cells)
        cells += lead
        counts += np.bincount(cells.ravel(), minlength=n_bins)
    return counts


# ---------------------------------------------------------------------------
# indexed evaluation: characters are powers of the canonical order-k character
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _index_vectors(k: int) -> np.ndarray:
    """All of (Z_k)^5 in lexicographic order, one row each."""
    grid = np.indices((k,) * 5).reshape(5, -1).T
    return np.ascontiguousarray(grid.astype(np.int64))


def residue_histogram(ctx: FieldContext, k: int) -> np.ndarray:
    """Counts of the residue pattern (rho(a), rho(1-a), rho(b), rho(b-1),
    rho(a-b)) over pairs a != b in F_q minus {0, 1}, rho = dlog mod k, as
    k^5 int64 bins in that digit order.  One exact O(q^2) pass feeds every
    lambda=1 indexed 3F2 at this (q, k).

    All three labels come from L(n) = ind(1 - omega^n) (ctx.log_one_minus).
    With N = q - 1, e = rho(-1), a = omega^na and b = a omega^m:
    rho(1 - a) = L(na), rho(b - 1) = L(nb) + e, rho(a - b) = rho(a) + L(m).
    Swapping a and b moves bin (i, u, j, v, w) to (j, v - e, i, u + e, w + e),
    so the pass counts each unordered pair once and adds the swap-relabelled
    copy: the pair with m in [1, (N-1)/2], and for even N the pair with
    m = N/2 (b = -a) and na < N/2.

    In the (na, m) grid the b codes of row na are the contiguous window
    col[na+1 : na+1+half] of a doubled column array, and the L(m) digit is
    one vector every row shares (_window_bincount).  The rho(a-b) digit
    leads and is summed unreduced, in [0, 2k), then folded mod k; b = 1
    carries a sentinel code that lands past those 2k^5 bins."""
    check_order(ctx, k)
    if k > HIST_K_CAP:
        raise SizeLimit(f"k^5 histogram bins need k <= {HIST_K_CAP}, got k={k}")
    key = ("f32hist", k)
    if key in ctx._caches:
        return ctx._caches[key]
    N, k4 = ctx.q - 1, k ** 4
    e = ctx.log_neg_one % k
    n = np.arange(N)                           # na, nb, m
    one_minus = ctx.log_one_minus % k          # rho(1 - omega^n); n = 0 unread
    row = n % k * (k4 + k ** 3) + one_minus * k * k          # rho(a) twice, rho(1 - a)
    col = n % k * k + (one_minus + e) % k                    # rho(b), rho(b - 1)
    col[0] = 2 * k * k4                                      # b = 1
    half = (N - 1) // 2                                      # m in [1, half]
    lead = one_minus[1:half + 1] * k4                        # rho(1 - omega^m)
    # row na = i + 1 (na = 0 is a = 1) reads nb = na + m, m = j + 1
    hist = _window_bincount(row[1:], col, lead, 2, 4 * k * k4)
    if N % 2 == 0:                             # b = -a, once per pair
        h = N // 2
        hist += np.bincount(row[1:h] + col[h + 1:N] + one_minus[h] * k4,
                            minlength=len(hist))
    low, high, _, _ = hist.reshape(4, k, k4)   # b = 1 lands in the last two
    once = (low + high).reshape((k,) * 5)      # [w, i, u, j, v]
    swapped = np.roll(once.transpose(3, 4, 1, 2, 0), (-e, e, e), axis=(1, 3, 4))
    hist = (once.transpose(1, 2, 3, 4, 0) + swapped).ravel()
    ctx._caches[key] = hist
    return hist


def _coef_vector(k: int, t) -> np.ndarray:
    t1, t2, t3, t4, t5 = t
    return np.array([(t1 - t5) % k, (t5 - t3) % k, t2 % k,
                     (t4 - t2) % k, (-t1) % k], dtype=np.int64)


def _hist_value(ctx: FieldContext, k: int, t) -> CycInt:
    hist = residue_histogram(ctx, k)
    e = (_index_vectors(k) @ _coef_vector(k, t)) % k
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(counts, e, hist)                 # exact int64 scatter-add
    return CycInt.from_zeta_counts(k, counts.tolist())


def f32_indexed(ctx: FieldContext, k: int, t, lam: int | None = None) -> ScaledHypValue:
    """q^2 * 3F2 at the character powers chi_k^(t1..t5), lambda = 1 unless given."""
    if (lam is None or lam == 1) and k <= HIST_K_CAP:
        return ScaledHypValue(_hist_value(ctx, k, t), 2)
    chi = canonical_char(ctx, k)
    chars = [chi ** ti for ti in t]
    return f32_scaled(*chars, lam=1 if lam is None else lam, conductor=k)


def f32_full_grid_sum(ctx: FieldContext, k: int) -> CycInt:
    """Sum of q^2 * 3F2(t | 1) over every t in (Z_k)^5: k^5 times the
    histogram's all-zero bin.  Term t sums zeta^<x, c(t)> over residue
    patterns x, c = _coef_vector; t -> c(t) is a bijection of (Z_k)^5, so
    the sum over t is k^5 at x = 0 and 0 at every other x."""
    return CycInt.integer(k, k ** 5 * int(residue_histogram(ctx, k)[0]))


# ---------------------------------------------------------------------------
# reduction formulae (identities at lambda = 1, denominators cleared by q^2)
# ---------------------------------------------------------------------------

def check_reduction(case, params) -> bool:
    """Verify one reduction identity exactly.

    case 1: first top character trivial        case 4: D = B
    case 2: second top character trivial       case 5: E = B
    case 3: D = A                              case 6: E = ABC/D
    case "2F1": the 2F1(...|1) evaluation, params = (A, B, C)
    """
    if case == "2F1":
        A, B, C = params
        c = _conductor(params)
        lhs = f21_scaled(A, B, C, lam=1, conductor=c).value
        rhs = A.sign_at_minus_one() * binom_symbol_scaled(B, A.conj() * C,
                                                          conductor=c)
        return lhs == rhs

    A, B, C, D, E = params
    c = _conductor(params)
    lhs = f32_scaled(A, B, C, D, E, lam=1, conductor=c).value

    if case == 1:
        if not A.is_trivial:
            raise ShapeMismatch("case 1 needs a trivial first top character")
        rhs = (-f21_scaled(B * D.conj(), C * D.conj(), E * D.conj(), 1, conductor=c).value
               + binom_symbol_scaled(B, D, conductor=c)
               * binom_symbol_scaled(C, E, conductor=c))
    elif case == 2:
        if not B.is_trivial:
            raise ShapeMismatch("case 2 needs a trivial second top character")
        rhs = (A.sign_at_minus_one()
               * binom_symbol_scaled(D, A, conductor=c)
               * f21_scaled(A * D.conj(), C * D.conj(), E * D.conj(), 1, conductor=c).value
               - D.sign_at_minus_one() * binom_symbol_scaled(C, E, conductor=c))
    elif case == 3:
        if D.m != A.m:
            raise ShapeMismatch("case 3 needs D = A")
        rhs = (binom_symbol_scaled(B, A, conductor=c)
               * f21_scaled(B, C, E, 1, conductor=c).value
               - A.conj().sign_at_minus_one()
               * binom_symbol_scaled(C * A.conj(), E * A.conj(), conductor=c))
    elif case == 4:
        if D.m != B.m:
            raise ShapeMismatch("case 4 needs D = B")
        rhs = (-f21_scaled(A, C, E, 1, conductor=c).value
               + binom_symbol_scaled(A * B.conj(), B.conj(), conductor=c)
               * binom_symbol_scaled(C * B.conj(), E * B.conj(), conductor=c))
    elif case == 5:
        if E.m != B.m:
            raise ShapeMismatch("case 5 needs E = B")
        rhs = (binom_symbol_scaled(C * D.conj(), B * D.conj(), conductor=c)
               * f21_scaled(A, C, D, 1, conductor=c).value
               - (B * D).sign_at_minus_one()
               * binom_symbol_scaled(A * B.conj(), B.conj(), conductor=c))
    elif case == 6:
        if E.m != (A * B * C * D.conj()).m:
            raise ShapeMismatch("case 6 needs E = ABC/D")
        rhs = ((B * C).sign_at_minus_one()
               * binom_symbol_scaled(C, D * A.conj(), conductor=c)
               * binom_symbol_scaled(B, D * C.conj(), conductor=c)
               - (B * D).sign_at_minus_one()
               * binom_symbol_scaled(D * B.conj(), A, conductor=c))
    else:
        raise ValueError(f"unknown reduction case {case!r}")
    return lhs == rhs


# ---------------------------------------------------------------------------
# transformation formulae (lambda = 1)
# ---------------------------------------------------------------------------

def _transformed_params(case, A, B, C, D, E):
    cj = MultChar.conj
    if case == 1:
        return 1, (B * cj(D), A * cj(D), C * cj(D), cj(D), E * cj(D))
    if case == 2:
        return (A * B * C * D * E).sign_at_minus_one(), \
            (A, A * cj(D), A * cj(E), A * cj(B), A * cj(C))
    if case == 3:
        return (A * B * C * D * E).sign_at_minus_one(), \
            (B * cj(D), B, B * cj(E), B * cj(A), B * cj(C))
    if case == 4:
        return (A * E).sign_at_minus_one(), (A, B, cj(C) * E, A * B * cj(D), E)
    if case == 5:
        return (A * D).sign_at_minus_one(), (A, D * cj(B), C, D, A * C * cj(E))
    if case == 6:
        return B.sign_at_minus_one(), (cj(A) * D, B, C, D, B * C * cj(E))
    if case == 7:
        return (A * B).sign_at_minus_one(), \
            (cj(A) * D, cj(B) * D, C, D, cj(A) * cj(B) * D * E)
    if case == "perm":
        return 1, (A, C, B, E, D)
    raise ValueError(f"unknown transformation case {case!r}")


def check_transformation(case, params) -> bool:
    A, B, C, D, E = params
    sign, new = _transformed_params(case, A, B, C, D, E)
    c = _conductor(params)
    lhs = f32_scaled(A, B, C, D, E, lam=1, conductor=c).value
    rhs = sign * f32_scaled(*new, lam=1, conductor=c).value
    return lhs == rhs


# ---------------------------------------------------------------------------
# floating-point oracle: the definitional sum over all q-1 characters
# ---------------------------------------------------------------------------

def _numeric_tables(ctx: FieldContext):
    if "numeric" not in ctx._caches:
        q = ctx.q
        roots = np.exp(2j * np.pi * np.arange(q - 1) / (q - 1))
        log_a = ctx.np_log[2:]                 # skip the elements 0 and 1
        log_1ma = ctx.log_one_minus[log_a]
        ctx._caches["numeric"] = (roots, log_a, log_1ma, {})
    return ctx._caches["numeric"]


def _numeric_jacobi(ctx: FieldContext, ma: int, mb: int) -> complex:
    roots, log_a, log_1ma, memo = _numeric_tables(ctx)
    qm1 = ctx.q - 1
    key = (ma % qm1, mb % qm1)
    if key not in memo:
        e = (key[0] * log_a + key[1] * log_1ma) % qm1
        memo[key] = complex(roots[e].sum())
    return memo[key]


def _numeric_char(ctx: FieldContext, m: int, a: int) -> complex:
    if a == 0:
        return 0j
    roots = _numeric_tables(ctx)[0]
    return complex(roots[(m * ctx.dlog(a)) % (ctx.q - 1)])


def _numeric_binom(ctx: FieldContext, mx: int, my: int) -> complex:
    return _numeric_char(ctx, my, ctx.neg(1)) / ctx.q * _numeric_jacobi(ctx, mx, -my)


def f21_definitional_numeric(A: MultChar, B: MultChar, C: MultChar, lam: int) -> complex:
    """2F1 via the sum over all characters; float, oracle use only."""
    ctx = same_ctx((A, B, C))
    if lam == 0:
        return 0j
    q = ctx.q
    total = 0j
    for m in range(q - 1):
        total += (_numeric_binom(ctx, A.m + m, m)
                  * _numeric_binom(ctx, B.m + m, C.m + m)
                  * _numeric_char(ctx, m, lam))
    return total * q / (q - 1)


def f32_definitional_numeric(A: MultChar, B: MultChar, C: MultChar,
                             D: MultChar, E: MultChar, lam: int) -> complex:
    ctx = same_ctx((A, B, C, D, E))
    if lam == 0:
        return 0j
    q = ctx.q
    total = 0j
    for m in range(q - 1):
        total += (_numeric_binom(ctx, A.m + m, m)
                  * _numeric_binom(ctx, B.m + m, D.m + m)
                  * _numeric_binom(ctx, C.m + m, E.m + m)
                  * _numeric_char(ctx, m, lam))
    return total * q / (q - 1)
