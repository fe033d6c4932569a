"""Exact 2F1 and 3F2 finite field hypergeometric functions.

Values are always carried with their q-power scaling (q * 2F1, q^2 * 3F2):
the scaled sums are cyclotomic integers, so the whole pipeline stays exact.
Each evaluator walks the defining character double sum, histograms the
root-of-unity exponents, and folds the histogram once; terms with any zero
argument vanish because every character, the trivial one included, is zero
at zero.

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

from .characters import MultChar, canonical_char, check_order, same_ctx
from .cyclotomic import CycInt
from .errors import ShapeMismatch, SizeLimit
from .finite_field import FieldContext, row_blocks
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
    l_omb = ctx.log_sub(0, n)                  # ind(1 - b)
    l_bml = ctx.log_sub(n, ctx.dlog(lam))      # ind(b - lam)
    valid = (l_omb >= 0) & (l_bml >= 0)
    e = (x1 * n + x2 * l_omb + x3 * l_bml)[valid] % c
    counts = np.bincount(e, minlength=c)
    return ScaledHypValue(CycInt.from_zeta_counts(c, counts.tolist()), 1)


def f32_scaled(A: MultChar, B: MultChar, C: MultChar, D: MultChar, E: MultChar,
               lam: int, conductor: int | None = None) -> ScaledHypValue:
    """q^2 * 3F2(A, B, C; D, E | lam) over the full (a, b) double sum."""
    ctx = same_ctx((A, B, C, D, E))
    c = conductor if conductor is not None else _conductor((A, B, C, D, E))
    if lam == 0:
        return ScaledHypValue(CycInt.zero(c), 2)
    x1 = (A * E.conj()).exponent_in(c)
    x2 = (C.conj() * E).exponent_in(c)
    x3 = B.exponent_in(c)
    x4 = (B.conj() * D).exponent_in(c)
    x5 = A.conj().exponent_in(c)
    n = np.arange(1, ctx.q - 1)                # a, b = omega^n run over F_q \ {0, 1}
    row = x1 * n + x2 * ctx.log_sub(0, n)      # ind(a), ind(1 - a)
    col = x3 * n + x4 * ctx.log_sub(n, 0)      # ind(b), ind(b - 1)
    l_lamb = (ctx.dlog(lam) + n) % (ctx.q - 1)
    counts = np.zeros(c, dtype=np.int64)
    for blk in row_blocks(len(n), len(n)):
        d = ctx.log_sub(n[blk, None], l_lamb[None, :])    # ind(a - lam b)
        e = (row[blk, None] + col[None, :] + x5 * d) % c
        counts += np.bincount(e[d >= 0], minlength=c)
    return ScaledHypValue(CycInt.from_zeta_counts(c, counts.tolist()), 2)


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
    rho(a-b)) over pairs a != b in F_q minus {0, 1}, rho = dlog mod k.  One
    O(q^2) pass feeds every lambda=1 indexed 3F2 at this (q, k).

    With m = ind b - ind a, a - b = a (1 - omega^m): rho(a-b) = rho(a) +
    rho(1 - omega^m) is a lookup at the log difference in the residue table
    behind the cyclotomic numbers (jacobi.cyclotomic_numbers).  The sum is
    the leading bin digit, folded mod k at the end; the entry 2k at m = 0
    sends a = b to leading digits [2k, 3k), which are dropped."""
    check_order(ctx, k)
    if k > HIST_K_CAP:
        raise SizeLimit(f"k^5 histogram bins need k <= {HIST_K_CAP}, got k={k}")
    key = ("f32hist", k)
    if key in ctx._caches:
        return ctx._caches[key]
    k4 = k ** 4
    n = np.arange(1, ctx.q - 1)                # a, b = omega^n run over F_q \ {0, 1}
    one_minus = ctx.log_sub(0, np.arange(ctx.q - 1)) % k     # rho(1 - omega^m)
    one_minus[0] = 2 * k
    lead = one_minus * k4                                    # rho(a-b) - rho(a), leading digit
    row = n % k * (k4 + k ** 3) + one_minus[n] * k * k       # rho(a), rho(1 - a)
    col = n % k * k + ctx.log_sub(n, 0) % k                  # rho(b), rho(b - 1)
    # int32 cells suffice: bins stay below 3k^5 and |m| below q - 1
    n, row, col, lead = (x.astype(np.int32) for x in (n, row, col, lead))
    hist = np.zeros(3 * k * k4, dtype=np.int64)
    for blk in row_blocks(len(n), len(n)):
        flat = row[blk, None] + col[None, :] + lead[n[None, :] - n[blk, None]]
        hist += np.bincount(flat.ravel(), minlength=len(hist))
    low, high, _ = hist.reshape(3, k, k4)                    # a = b lands in the third
    hist = (low + high).T.ravel()
    ctx._caches[key] = hist
    return hist


def _coef_vector(k: int, t) -> np.ndarray:
    t1, t2, t3, t4, t5 = t
    return np.array([(t1 - t5) % k, (t5 - t3) % k, t2 % k,
                     (t4 - t2) % k, (-t1) % k], dtype=np.int64)


def _hist_value(ctx: FieldContext, k: int, t) -> CycInt:
    hist = residue_histogram(ctx, k)
    e = (_index_vectors(k) @ _coef_vector(k, t)) % k
    counts = [int(hist[e == v].sum()) for v in range(k)]
    return CycInt.from_zeta_counts(k, counts)


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
        log_1ma = ctx.log_sub(0, log_a)
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
