"""Jacobi sums, the scaled binomial symbol, and their aggregates.

jacobi_sum is the direct O(q) definition: each term of J(A, B) is a root of
unity, so the sum is a histogram of exponents folded through
CycInt.from_zeta_counts.  The terms are indexed by n = ind(a), and
ind(1 - a) is the field's log_one_minus table, built once per field.

The aggregates R_k, S_k, J0, JJ0 read the order-k cyclotomic numbers
(i, j)_k = #{a : ind a = i, ind(1 - a) = j (mod k)}, one O(q) pass that
determines every J(chi^s, chi^t) = sum (i, j)_k zeta^(si + tj) (Dickson,
Amer. J. Math. 57, 1935; Berndt, Evans & Williams, Gauss and Jacobi Sums,
ch. 2).  They are rational integers by conjugation symmetry of their index
sets, and as_integer enforces that instead of trusting it.

The quadratic-form solvers normalize q = x^2 + y^2, 4q = c^2 + 3d^2 and
q = u^2 + 2v^2 exactly as the Jacobi-sum evaluations require.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

import numpy as np

from .characters import MultChar, check_order, same_ctx
from .cyclotomic import CycInt
from .errors import NoRepresentation
from .finite_field import FieldContext


def jacobi_sum(A: MultChar, B: MultChar, conductor: int | None = None) -> CycInt:
    """J(A, B) = sum over a of A(a) B(1-a)."""
    ctx = same_ctx((A, B))
    c = conductor if conductor is not None else lcm(A.order, B.order)
    n = np.arange(ctx.q - 1)            # a = omega^n
    l_oma = ctx.log_one_minus           # ind(1 - a), -1 at a = 1
    e = (A.exponent_in(c) * n + B.exponent_in(c) * l_oma)[l_oma >= 0] % c
    return CycInt.from_zeta_counts(c, np.bincount(e, minlength=c).tolist())


def binom_symbol_scaled(A: MultChar, B: MultChar, conductor: int | None = None) -> CycInt:
    """q * (A over B) = B(-1) * J(A, conj(B))."""
    c = conductor if conductor is not None else lcm(A.order, B.order)
    return B.sign_at_minus_one() * jacobi_sum(A, B.conj(), conductor=c)


def cyclotomic_numbers(ctx: FieldContext, k: int) -> np.ndarray:
    """(i, j)_k = #{a != 0, 1 : ind a = i, ind(1 - a) = j (mod k)} as a
    k x k integer array."""
    check_order(ctx, k)
    n = np.arange(1, ctx.q - 1)         # a = omega^n, a != 1
    cell = n % k * k + ctx.log_one_minus[1:] % k
    return np.bincount(cell, minlength=k * k).reshape(k, k)


def jacobi_table(ctx: FieldContext, k: int) -> tuple[tuple[CycInt, ...], ...]:
    """J[s][t] = J(chi_k^s, chi_k^t) = sum of (i, j)_k zeta^(si + tj), for
    s, t in [0, k).  Row -s is J[-s], by Python's negative indexing.  Built
    once per field and order, and kept in ctx._caches."""
    key = ("jacobi", k)
    if key not in ctx._caches:
        cyc = cyclotomic_numbers(ctx, k)
        s, t, i, j = np.indices((k,) * 4)
        counts = np.zeros((k, k, k), dtype=np.int64)
        np.add.at(counts, (s, t, (s * i + t * j) % k), cyc[i, j])
        ctx._caches[key] = tuple(tuple(CycInt.from_zeta_counts(k, row.tolist())
                                       for row in plane) for plane in counts)
    return ctx._caches[key]


def R_k(ctx: FieldContext, k: int) -> int:
    """Sum of J(chi_k^s, chi_k^t) over s, t in [1, k-1] with s+t != 0 mod k."""
    J = jacobi_table(ctx, k)
    return sum((J[s][t] for s in range(1, k) for t in range(1, k) if (s + t) % k),
               CycInt.zero(k)).as_integer()


def S_k(ctx: FieldContext, k: int) -> int:
    """Triple sum of J(chi^s, chi^t) J(conj chi^s, chi^v) with
    s+t, v+t, v-s all nonzero mod k."""
    J = jacobi_table(ctx, k)
    return sum((J[s][t] * J[-s][v] for s in range(1, k) for t in range(1, k)
                for v in range(1, k) if (s + t) % k and (v + t) % k and (v - s) % k),
               CycInt.zero(k)).as_integer()


def J0(ctx: FieldContext, k: int) -> int:
    J = jacobi_table(ctx, k)
    return sum((J[s][t] for s in range(k) for t in range(k)), CycInt.zero(k)).as_integer()


def JJ0(ctx: FieldContext, k: int) -> int:
    J = jacobi_table(ctx, k)
    return sum((J[s][t] * J[-s][v] for s in range(k) for t in range(k) for v in range(k)),
               CycInt.zero(k)).as_integer()


# ---------------------------------------------------------------------------
# normalized quadratic-form representations
# ---------------------------------------------------------------------------

TWO_SQUARES = "TwoSquares"
EISENSTEIN = "Eisenstein"
TWO_TIMES_SQUARE = "TwoTimesSquare"


@dataclass(frozen=True)
class QuadFormRep:
    kind: str
    q: int
    a: int          # x, c, or u depending on kind (sign-normalized)
    b: int          # y, d, or v, returned nonnegative
    inert: bool     # True when the prime is inert and b = 0 is forced

    def to_json(self) -> dict:
        names = {TWO_SQUARES: ("x", "y"), EISENSTEIN: ("c", "d"),
                 TWO_TIMES_SQUARE: ("u", "v")}[self.kind]
        return {"kind": self.kind, names[0]: self.a, names[1]: self.b}


def _unique(candidates: list[tuple[int, int]], kind: str, q: int) -> tuple[int, int]:
    dedup = sorted(set(candidates))
    if not dedup:
        raise NoRepresentation(f"{kind}: no normalized solution for q={q}")
    assert len(dedup) == 1, f"{kind}: normalization not unique for q={q}: {dedup}"
    return dedup[0]


def solve_quadform(kind: str, ctx: FieldContext) -> QuadFormRep:
    """Exhaustive search (q is small here) for the unique normalized
    representation used by the order-3/4/8 Jacobi-sum evaluations."""
    p, r, q = ctx.p, ctx.r, ctx.q

    if kind == TWO_SQUARES:
        # q = x^2 + y^2, x = 1 mod 4, y even, p not dividing x when p = 1 mod 4
        if q % 4 != 1:
            raise NoRepresentation(f"q={q} is not 1 mod 4")
        split = p % 4 == 1
        found = []
        for ax in range(1, isqrt(q) + 1, 2):
            y2 = q - ax * ax
            y = isqrt(y2)
            if y * y != y2 or y % 2 != 0:
                continue
            if split and ax % p == 0:
                continue
            x = ax if ax % 4 == 1 else -ax
            found.append((x, y))
        x, y = _unique(found, kind, q)
        return QuadFormRep(TWO_SQUARES, q, x, y, inert=not split)

    if kind == EISENSTEIN:
        # 4q = c^2 + 3d^2, c = 1 mod 3, d = 0 mod 3, p not dividing c (split p)
        if q % 3 != 1:
            raise NoRepresentation(f"q={q} is not 1 mod 3")
        split = p % 3 == 1
        found = []
        for ac in range(1, isqrt(4 * q) + 1):
            rest = 4 * q - ac * ac
            if rest % 3 != 0:
                continue
            d2, d = rest // 3, isqrt(rest // 3)
            if d * d != d2 or d % 3 != 0:
                continue
            if split and ac % p == 0:
                continue
            for c in (ac, -ac):
                if c % 3 == 1:
                    found.append((c, d))
        c, d = _unique(found, kind, q)
        if not split:
            assert c == -2 * (-p) ** (r // 2) and d == 0
        return QuadFormRep(EISENSTEIN, q, c, d, inert=not split)

    if kind == TWO_TIMES_SQUARE:
        # q = u^2 + 2v^2, u = 3 mod 4, p not dividing u when p = 1,3 mod 8
        if q % 8 != 1:
            raise NoRepresentation(f"q={q} is not 1 mod 8")
        split = p % 8 in (1, 3)
        found = []
        for au in range(1, isqrt(q) + 1, 2):
            rest = q - au * au
            if rest % 2 != 0:
                continue
            v2, v = rest // 2, isqrt(rest // 2)
            if v * v != v2:
                continue
            if split and au % p == 0:
                continue
            u = au if au % 4 == 3 else -au
            found.append((u, v))
        u, v = _unique(found, kind, q)
        return QuadFormRep(TWO_TIMES_SQUARE, q, u, v, inert=not split)

    raise ValueError(f"unknown quadratic form kind {kind!r}")
