"""Exact 2F1 and 3F2 finite field hypergeometric functions.

Each evaluator returns its value times a fixed power of q as a plain CycInt:
f21_scaled gives q * 2F1, f32_scaled and f32_indexed give q^2 * 3F2.  The
scaled sums are cyclotomic integers, so the whole pipeline stays exact.
Each evaluator walks the defining character double sum, histograms the
root-of-unity exponents, and folds the histogram once through
CycInt.from_zeta_counts; terms with any zero argument vanish because every
character, the trivial one included, is zero at zero.  Every log comes from
the field's one difference table L(n) = ind(1 - omega^n): with
b = a omega^m, ind(a - b) = ind a + L(m).

f32_scaled, at any lambda and any characters, runs the direct O(q^2)
windowed pass, _window_bincount.  For characters that are powers of one
order-k character, residue_histogram counts the residue patterns of all
(a, b) pairs once per (q, k), and every lambda = 1 value is a fold of it.
It counts them in polyphase Parseval form: the length-(q-1)/k phases of
the class indicators are rfft'd once each by numpy's pocketfft, and one
real matrix product per block (np.matmul, a BLAS GEMM, which may run
OpenBLAS threads) contracts their spectra into the k^4 (k + 1) class sums
with no inverse transform: about k^5 M float64 multiply-adds at transform
length M = (q - 1)/k.  The class sums must round within 1/4, match the
exact total mass and obey the a <-> b swap law before any bin is kept, so
no count flows from an unchecked float; f32_scaled is its independent
oracle.  The a-priori rounding bound rests on Higham's summation bound,
which holds for any summation order, so it does not depend on the order
the GEMM adds in.

The reduction and transformation checkers compare both sides of the known
identities after clearing all denominators by powers of q; they return a
plain bool so sweeps can be run at scale.

greene_sum is Greene's definition itself, exact in Z[zeta_(q-1)]; verify
checks the evaluators against it.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np

from .characters import MultChar, canonical_char, check_order, same_ctx
from .cyclotomic import CycInt
from .errors import InexactTransform, ShapeMismatch, SizeLimit
from .finite_field import BLOCK_ELEMENTS, FieldContext, windows
from .jacobi import binom_symbol_scaled, cyclotomic_numbers
from .orbits import GRID_LIMIT

CONTRACTION_BLOCK = 1 << 16   # float64 cells of spectral products per block
HIST_FOLD_K = 8               # f32_indexed folds an uncached histogram up to this k


def _conductor(chars) -> int:
    return lcm(*(ch.order for ch in chars))


def f21_scaled(A: MultChar, B: MultChar, C: MultChar, lam: int,
               conductor: int | None = None) -> CycInt:
    """q * 2F1(A, B; C | lam) = sum over b of AC^-1(b) B^-1C(1-b) A^-1(b-lam)."""
    ctx = same_ctx((A, B, C))
    c = conductor if conductor is not None else _conductor((A, B, C))
    if lam == 0:
        return CycInt.zero(c)
    x1 = (A * C.conj()).exponent_in(c)
    x2 = (B.conj() * C).exponent_in(c)
    x3 = A.conj().exponent_in(c)
    n = np.arange(ctx.q - 1)                   # b = omega^n
    l_omb = ctx.log_one_minus                  # ind(1 - b)
    # b - lam = -lam (1 - b/lam); exponents are read mod c, which divides
    # q - 1, so ind(b - lam) = ind(-lam) + ind(1 - b/lam) needs no reduction
    l_lam = ctx.dlog(lam)
    split = len(l_omb) - l_lam                 # ind(1 - b/lam): L turned by l_lam
    l_omb_lam = np.concatenate((l_omb[split:], l_omb[:split]))
    valid = (l_omb >= 0) & (l_omb_lam >= 0)
    l_bml = l_omb_lam + (l_lam + ctx.log_neg_one)
    e = (x1 * n + x2 * l_omb + x3 * l_bml)[valid] % c
    counts = np.bincount(e, minlength=c)
    return CycInt.from_zeta_counts(c, counts.tolist())


def f32_scaled(A: MultChar, B: MultChar, C: MultChar, D: MultChar, E: MultChar,
               lam: int, conductor: int | None = None) -> CycInt:
    """q^2 * 3F2(A, B, C; D, E | lam) over the full (a, b) double sum, in
    the grid (na, m): a = omega^na, a - lam b = a (1 - omega^m), m != 0.
    Codes are reduced mod c | q - 1, so a cell lies in [0, 3c); b = 1
    carries a sentinel code that lands past those bins."""
    ctx = same_ctx((A, B, C, D, E))
    c = conductor if conductor is not None else _conductor((A, B, C, D, E))
    if lam == 0:
        return CycInt.zero(c)
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
    return CycInt.from_zeta_counts(c, counts.tolist())


def _window_bincount(row: np.ndarray, col: np.ndarray, lead: np.ndarray,
                     offset: int, n_bins: int) -> np.ndarray:
    """Bincount, in n_bins int64 bins, of row[i] + col[(i + offset + j) mod N]
    + lead[j] over i < len(row) and j < len(lead) <= 2N + 1 - len(row),
    N = len(col).  Row i is a contiguous window of col doubled and rotated
    by offset, so a cell costs two adds and a bincount; rows fill one reused
    int64 buffer of at most BLOCK_ELEMENTS cells."""
    n, width = len(col), len(lead)
    d = offset % n
    rotated = windows(np.concatenate((col[d:], col, col[:d])), width)
    rows = max(1, min(len(row), BLOCK_ELEMENTS // max(1, width)))
    buf = np.empty((rows, width), dtype=np.int64)
    counts = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, len(row), rows):
        cells = buf[:min(rows, len(row) - start)]
        np.add(row[start:start + len(cells), None],
               rotated[start:start + len(cells)], out=cells)
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _relabel_index(k: int, e: int) -> np.ndarray:
    """Bin (i, u, j, v, w) reads class sum [i, j - i, v - e, w - i, u] of
    the (k, k, k, k + 1, k) polyphase counts."""
    i, u, j, v, w = _index_vectors(k).T
    return _frozen(np.ravel_multi_index((i, (j - i) % k, (v - e) % k, (w - i) % k, u),
                                        (k, k, k, k + 1, k)))


@lru_cache(maxsize=None)
def _swap_index(k: int, e: int) -> np.ndarray:
    """Bin (i, u, j, v, w) -> (j, v - e, i, u + e, w + e): a and b swapped."""
    i, u, j, v, w = _index_vectors(k).T
    return _frozen(np.ravel_multi_index((j, (v - e) % k, i, (u + e) % k, (w + e) % k),
                                        (k,) * 5))


def residue_histogram(ctx: FieldContext, k: int) -> np.ndarray:
    """Counts of the residue pattern (rho(a), rho(1-a), rho(b), rho(b-1),
    rho(a-b)) over pairs a != b in F_q minus {0, 1}, rho = dlog mod k, as
    k^5 int64 bins in that digit order, k^5 <= orbits.GRID_LIMIT (X_k's
    grid cap, k <= 16).  One exact pass feeds every lambda=1 indexed 3F2.

    All three labels come from L(n) = ind(1 - omega^n) (ctx.log_one_minus).
    With N = q - 1, e = rho(-1), a = omega^na and b = a omega^m:
    rho(1 - a) = L(na), rho(b - 1) = L(nb) + e, rho(a - b) = rho(a) + L(m).
    So a pair is an a-class (i, u) = (na mod k, L(na) mod k) at na, a
    b-class (j, v) = (nb mod k, L(nb) + e mod k) at nb = na + m, and an
    m-class (s, t) = (m mod k, L(m) mod k), with j = i + s mod k, and lands
    in bin (i, u, i + s, v, i + t).  The b-classes are the a-classes
    relabelled, (j, v) = (j, x + e) for the a-class (j, x) at nb, so
    _class_sums counts the (na, m) of each (i, u), (j, x), (s, t) in
    polyphase Parseval form, O(k q log q + k^4 q) float64 work; m = 0
    (a = b) is a class t = k of its own and is dropped.

    Beyond the kernel's rounding guard, three exact checks must hold: the
    sums over t of each (i, s, x, u) total |A_iu| |A_jx|, where |A_iu| is
    the cyclotomic number (i, u)_k; the m = 0 class holds |A_iu| at x = u
    and 0 elsewhere; and the bins obey the swap law (i, u, j, v, w) <->
    (j, v - e, i, u + e, w + e).  A failure raises InexactTransform and
    caches nothing."""
    check_order(ctx, k)
    if k ** 5 > GRID_LIMIT:
        raise SizeLimit(f"k^5 histogram bins need k^5 <= {GRID_LIMIT}, got k={k}")
    key = ("f32hist", k)
    if key in ctx._caches:
        return ctx._caches[key]
    e = ctx.log_neg_one % k
    one_minus = ctx.log_one_minus % k          # rho(1 - omega^n); n = 0 unread
    counts = _class_sums(one_minus, k)
    size = cyclotomic_numbers(ctx, k)                            # |A_iu|
    j = (np.arange(k)[:, None] + np.arange(k)) % k               # i + s
    if not np.array_equal(np.einsum("isxtu->isxu", counts),
                          size[j, :, None] * size[:, None, None, :]):
        raise InexactTransform(f"GF({ctx.q}), k={k}: class sums miss the total mass |A| |B|")
    if not np.array_equal(counts[:, 0, :, k, :], size[:, None, :] * np.eye(k, dtype=np.int64)):
        raise InexactTransform(f"GF({ctx.q}), k={k}: the a = b class is off")
    hist = counts.ravel()[_relabel_index(k, e)]
    if not np.array_equal(hist, hist[_swap_index(k, e)]):
        raise InexactTransform(f"GF({ctx.q}), k={k}: bins break the swap law")
    ctx._caches[key] = hist
    return hist


def _class_sums(cls: np.ndarray, k: int) -> np.ndarray:
    """Exact int64 counts [i, s, x, t, u] of the (n, m) in Z_N^2, N =
    len(cls) = kM, with n = i and m = s (mod k), n != 0 != n + m,
    cls[n] = u, cls[n + m] = x, and t = cls[m], or t = k at m = 0.  cls
    holds classes in [0, k); cls[0] is unread.

    Polyphase form: with n = i + k n' and m = s + k m', n + m mod N is
    j + k (n' + m' + c mod M), where i + s = j + k c, j < k, and the carry
    c is 0 or 1.  So with the length-M rows A_iu[n'] = [cls[i + k n'] = u]
    (n = 0 in none), B_jx = A_jx and M_st = A_st for t < k, and M_0k the
    point m = 0, the count is the cyclic triple sum over (n', m') of
    A_iu[n'] M_st[m'] B_jx[n' + m' + c].  By the convolution theorem and
    Parseval it is (1/M) sum_f w_f Re(FA_iu FM_st conj(FB_jx)) over the
    bins f of the length-M rfft F, w_f = 1 at f = 0 and at M/2 and 2
    elsewhere.  The a rows are rfft'd once; FB_jx is FA_jx and FM_0k is
    1.  A b row shifted one step, for the carry, is a cyclic shift at
    length M, so by the shift theorem its transform is FB_jx turned by
    exp(2 pi i f/M).  B rows are held as [c, j] = [i + s], so a pair
    (i, s) reads row i + s.  One real np.matmul per block, a BLAS GEMM
    of each pair's b rows [x, Re/Im f] against its product view FA FM
    transposed to [Re/Im f, (t, u)], contracts the Re and Im parts: k^4
    (k + 1) class sums of about M multiply-adds each.  Blocks of i and of
    bins f keep the products FA FM within CONTRACTION_BLOCK float64
    cells.  The GEMM may run OpenBLAS threads and adds in its own blocked
    order.

    Guard: every class sum must round to an integer within 1/4, or
    InexactTransform is raised (residue_histogram checks the rest).  A
    priori, with u = 2^-53, an rfft of a 0/1 row of weight <= M is off by
    about c u log2(M) M in the 2-norm at most (Higham, Accuracy and
    Stability, 2nd ed., sec. 24.1; c = 10 is ample, and covers the
    shift's twiddles), and every |FA_f| <= M; by Cauchy-Schwarz the three
    factors move a class sum by at most about 3 c u log2(M) M^2.  Its
    terms total at most 4 M^2 in absolute value, so the products and the
    float64 accumulation of about M + 2 of them add at most about
    (4M + 12) u M^2, or about 4 u M^3: Higham's bound gamma_n sum |x_i|
    (sec. 4.2) holds for any summation order, the GEMM's included.  That
    is under 0.02 for M <= 2^15 and reaches 1/4 near M = 82500, where the
    guard alone decides."""
    N = len(cls)
    M = N // k
    hits = cls.reshape(M, k).T[:, None, :] == np.arange(k)[:, None]    # [i, u, n']
    hits[0, :, 0] = False                      # n = 0
    fa = np.fft.rfft(hits.astype(np.float64, order="C"))    # [i, u, f]
    n_f = fa.shape[-1]
    fb = np.empty((2, k, k, n_f), dtype=complex)             # [c, j, x, f]
    fb[0] = fa
    np.multiply(fa, np.exp(2j * np.pi / M * np.arange(n_f)), out=fb[1])
    weight = np.full(n_f, 2.0 / M)
    weight[0] = 1.0 / M
    if M % 2 == 0:
        weight[-1] = 1.0 / M
    fm = np.zeros((k, k + 1, n_f), dtype=complex)            # [s, t, f], weighted
    np.multiply(fa, weight, out=fm[:, :k])
    fm[0, k] = weight
    b_re_im = fb.reshape(2 * k, k, n_f).view(np.float64)    # Re, Im interleaved
    ring = (np.arange(k)[:, None] + np.arange(k)).ravel()   # i + s
    cells = 2 * k * k * (k + 1)                # float64 cells per i and bin
    f_step = max(1, min(n_f, CONTRACTION_BLOCK // cells))
    i_step = max(1, min(k, CONTRACTION_BLOCK // (cells * f_step)))
    sums = np.zeros((k * k, k, (k + 1) * k))   # [(i, s), x, (t, u)]
    for f0 in range(0, n_f, f_step):
        f = slice(f0, f0 + f_step)
        g = slice(2 * f0, 2 * (f0 + f_step))
        for i0 in range(0, k, i_step):
            prod = fa[i0:i0 + i_step, None, None, :, f] * fm[None, :, :, None, f]
            p = slice(i0 * k, (i0 + len(prod)) * k)
            fm_re_im = prod.view(np.float64).reshape(len(prod) * k, (k + 1) * k, -1)
            sums[p] += np.matmul(b_re_im[ring[p], :, g], fm_re_im.transpose(0, 2, 1))
    counts = np.rint(sums)
    sums -= counts
    if not np.abs(sums, out=sums).max(initial=0.0) < 0.25:
        raise InexactTransform(f"N={N}: a class sum is not within 1/4 of an integer")
    return counts.astype(np.int64).reshape(k, k, k, k + 1, k)


def _coef_vector(k: int, t) -> np.ndarray:
    t1, t2, t3, t4, t5 = t
    return np.array([(t1 - t5) % k, (t5 - t3) % k, t2 % k,
                     (t4 - t2) % k, (-t1) % k], dtype=np.int64)


def _hist_value(ctx: FieldContext, k: int, t) -> CycInt:
    """Fold the k^5 histogram bins x by the exponent <x, c(t)> mod k.

    The bins are rows (x1, x2, x3) by columns (x4, x5), so the exponent of
    every bin is one broadcast sum of a k^3 and a k^2 dot product, not a
    k^5-row one.  It stays unreduced (at most 5 (k - 1)^2) until the
    exact int64 scatter-add has run."""
    hist = residue_histogram(ctx, k)
    c = _coef_vector(k, t)
    grid = _index_vectors(k)
    e = (grid[::k * k, :3] @ c[:3])[:, None] + grid[:k * k, 3:] @ c[3:]
    counts = np.zeros(5 * k * k, dtype=np.int64)
    np.add.at(counts, e.ravel(), hist)
    return CycInt.from_zeta_counts(k, counts.reshape(-1, k).sum(axis=0).tolist())


def f32_indexed(ctx: FieldContext, k: int, t, lam: int | None = None) -> CycInt:
    """q^2 * 3F2 at the character powers chi_k^(t1..t5), lambda = 1 unless
    given.  At lambda = 1 it is a residue_histogram fold for k <= HIST_FOLD_K,
    and past that only when the histogram of (q, k) is already cached: one
    value does not pay for k^5 bins (at q = 257, k = 16 the histogram took
    275 ms and 161 MiB, the direct pass 1.2 ms and 31 MiB).  Otherwise it is
    f32_scaled's direct windowed pass."""
    if (lam is None or lam == 1) and k ** 5 <= GRID_LIMIT and (
            k <= HIST_FOLD_K or ("f32hist", k) in ctx._caches):
        return _hist_value(ctx, k, t)
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
        lhs = f21_scaled(A, B, C, lam=1, conductor=c)
        rhs = A.sign_at_minus_one() * binom_symbol_scaled(B, A.conj() * C,
                                                          conductor=c)
        return lhs == rhs

    A, B, C, D, E = params
    c = _conductor(params)
    lhs = f32_scaled(A, B, C, D, E, lam=1, conductor=c)

    if case == 1:
        if not A.is_trivial:
            raise ShapeMismatch("case 1 needs a trivial first top character")
        rhs = (-f21_scaled(B * D.conj(), C * D.conj(), E * D.conj(), 1, conductor=c)
               + binom_symbol_scaled(B, D, conductor=c)
               * binom_symbol_scaled(C, E, conductor=c))
    elif case == 2:
        if not B.is_trivial:
            raise ShapeMismatch("case 2 needs a trivial second top character")
        rhs = (A.sign_at_minus_one()
               * binom_symbol_scaled(D, A, conductor=c)
               * f21_scaled(A * D.conj(), C * D.conj(), E * D.conj(), 1, conductor=c)
               - D.sign_at_minus_one() * binom_symbol_scaled(C, E, conductor=c))
    elif case == 3:
        if D.m != A.m:
            raise ShapeMismatch("case 3 needs D = A")
        rhs = (binom_symbol_scaled(B, A, conductor=c)
               * f21_scaled(B, C, E, 1, conductor=c)
               - A.conj().sign_at_minus_one()
               * binom_symbol_scaled(C * A.conj(), E * A.conj(), conductor=c))
    elif case == 4:
        if D.m != B.m:
            raise ShapeMismatch("case 4 needs D = B")
        rhs = (-f21_scaled(A, C, E, 1, conductor=c)
               + binom_symbol_scaled(A * B.conj(), B.conj(), conductor=c)
               * binom_symbol_scaled(C * B.conj(), E * B.conj(), conductor=c))
    elif case == 5:
        if E.m != B.m:
            raise ShapeMismatch("case 5 needs E = B")
        rhs = (binom_symbol_scaled(C * D.conj(), B * D.conj(), conductor=c)
               * f21_scaled(A, C, D, 1, conductor=c)
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
    lhs = f32_scaled(A, B, C, D, E, lam=1, conductor=c)
    rhs = sign * f32_scaled(*new, lam=1, conductor=c)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Greene's definition: the sum over all q - 1 characters, exact
# ---------------------------------------------------------------------------

def greene_sum(tops, bottoms, lam: int) -> CycInt:
    """(q - 1) q^(n-1) nF(n-1)(A_0 .. A_(n-1); B_1 .. B_(n-1) | lam) at
    conductor c = q - 1 by Greene's definition (Trans. AMS 301, 1987): the
    sum over the c characters chi = omega-char^m of prod_i
    q (A_i chi over B_i chi) chi(lam), B_0 trivial, where
    q (X over Y) = Y(-1) J(X, conj Y) = sum over a of X(a) conj Y(a - 1).

    Of the field's tables it reads only log_one_minus, and ind(lam).  Each
    factor is one bincount of zeta exponents in Z[x]/(x^c - 1), a row per
    m, with a = omega^n and a - 1 = omega^(L(n) + ind(-1)).  Factors
    multiply by a cyclic convolution per row, an int64 matmul against the
    circulant gather f[m, (i - j) mod c]; chi(lam) turns row m by
    m ind(lam) in a scatter-add into c bins.  Entries stay below
    c (q - 2)^n, so int64 is exact; the gather's c^3 cells cap q at 101."""
    ctx = same_ctx((*tops, *bottoms))
    c = ctx.q - 1
    if c ** 3 > BLOCK_ELEMENTS:
        raise SizeLimit(f"Greene's sum gathers (q-1)^3 > {BLOCK_ELEMENTS} cells at q={ctx.q}")
    if lam == 0:
        return CycInt.zero(c)
    n = np.arange(1, c)                        # a = omega^n, a != 0, 1
    l_am1 = ctx.log_one_minus[1:] + ctx.log_neg_one        # ind(a - 1)
    m = np.arange(c)[:, None]
    circulant = (np.arange(c) - m) % c         # [j, i] -> i - j
    rows = None
    for x, y in zip((A.m for A in tops), (0, *(B.m for B in bottoms)), strict=True):
        e = ((x + m) * n - (y + m) * l_am1) % c + m * c
        f = np.bincount(e.ravel(), minlength=c * c).reshape(c, c)
        rows = f if rows is None else np.matmul(rows[:, None, :], f[:, circulant])[:, 0]
    counts = np.zeros(c, dtype=np.int64)
    np.add.at(counts, (m * ctx.dlog(lam) + np.arange(c)) % c, rows)
    return CycInt.from_zeta_counts(c, counts.tolist())
