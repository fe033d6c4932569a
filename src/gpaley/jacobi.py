"""Jacobi sums, the scaled binomial symbol, and their aggregates.

Everything is computed by direct O(q) summation: each term of J(A, B) is a
root of unity, so the sum is a histogram of exponents folded through
CycInt.from_zeta_counts.  The terms are indexed by n = ind(a), and
ind(1 - a) comes from the field's Zech table in one vectorized lookup.
The aggregates R_k, S_k, J0, JJ0 are rational integers by conjugation
symmetry of their index sets, and as_integer enforces that instead of
trusting it.

The quadratic-form solvers normalize q = x^2 + y^2, 4q = c^2 + 3d^2 and
q = u^2 + 2v^2 exactly as the Jacobi-sum evaluations require.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

import numpy as np

from .characters import MultChar, canonical_char
from .cyclotomic import CycInt
from .errors import NoRepresentation
from .finite_field import FieldContext


def jacobi_sum(A: MultChar, B: MultChar, conductor: int | None = None) -> CycInt:
    """J(A, B) = sum over a of A(a) B(1-a)."""
    ctx = A.ctx
    assert ctx is B.ctx
    c = conductor if conductor is not None else lcm(A.order, B.order)
    key = ("jacobi", A.m, B.m, c)
    memo = ctx._caches.setdefault("jacobi_memo", {})
    if key in memo:
        return memo[key]
    xa = A.exponent_in(c)
    xb = B.exponent_in(c)
    n = np.arange(ctx.q - 1)            # a = omega^n
    l_oma = ctx.log_sub(0, n)           # ind(1 - a), -1 at a = 1
    e = (xa * n + xb * l_oma)[l_oma >= 0] % c
    val = CycInt.from_zeta_counts(c, np.bincount(e, minlength=c).tolist())
    memo[key] = val
    return val


def binom_symbol_scaled(A: MultChar, B: MultChar, conductor: int | None = None) -> CycInt:
    """q * (A over B) = B(-1) * J(A, conj(B))."""
    c = conductor if conductor is not None else lcm(A.order, B.order)
    return B.sign_at_minus_one() * jacobi_sum(A, B.conj(), conductor=c)


def R_k(ctx: FieldContext, k: int) -> int:
    """Sum of J(chi_k^s, chi_k^t) over s, t in [1, k-1] with s+t != 0 mod k."""
    chi = canonical_char(ctx, k)
    total = CycInt.zero(k)
    for s in range(1, k):
        for t in range(1, k):
            if (s + t) % k == 0:
                continue
            total = total + jacobi_sum(chi ** s, chi ** t, conductor=k)
    return total.as_integer()


def S_k(ctx: FieldContext, k: int) -> int:
    """Triple sum of J(chi^s, chi^t) J(conj chi^s, chi^v) with
    s+t, v+t, v-s all nonzero mod k."""
    chi = canonical_char(ctx, k)
    total = CycInt.zero(k)
    for s in range(1, k):
        for t in range(1, k):
            if (s + t) % k == 0:
                continue
            left = jacobi_sum(chi ** s, chi ** t, conductor=k)
            for v in range(1, k):
                if (v + t) % k == 0 or (v - s) % k == 0:
                    continue
                total = total + left * jacobi_sum(chi ** (-s), chi ** v, conductor=k)
    return total.as_integer()


def J0(ctx: FieldContext, k: int) -> int:
    chi = canonical_char(ctx, k)
    total = CycInt.zero(k)
    for s in range(k):
        for t in range(k):
            total = total + jacobi_sum(chi ** s, chi ** t, conductor=k)
    return total.as_integer()


def JJ0(ctx: FieldContext, k: int) -> int:
    chi = canonical_char(ctx, k)
    total = CycInt.zero(k)
    for s in range(k):
        for t in range(k):
            left = jacobi_sum(chi ** s, chi ** t, conductor=k)
            for v in range(k):
                total = total + left * jacobi_sum(chi ** (-s), chi ** v, conductor=k)
    return total.as_integer()


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
