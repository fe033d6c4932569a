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

The k = 2, 3, 4 corollaries read x, c and u from the representations
q = x^2 + y^2, 4q = c^2 + 3d^2 and q = u^2 + 2v^2, normalized as the
Jacobi-sum evaluations require.  QUAD_FORMS holds the three forms as rows of
one table, and solve_quadform is one search that reads a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, lcm

import numpy as np

from .characters import MultChar, check_order, same_ctx
from .cyclotomic import CycInt
from .errors import NoRepresentation
from .finite_field import FieldContext, row_blocks


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
    s, t in [0, k).  Row -s is J[-s], by Python's negative indexing.  The
    exponent counts gather over row blocks of s, so no intermediate holds
    more than BLOCK_ELEMENTS cells (k <= 32 is one block).  Built once per
    field and order, and kept in ctx._caches."""
    key = ("jacobi", k)
    if key not in ctx._caches:
        cyc = cyclotomic_numbers(ctx, k)
        i, j = np.indices((k, k))
        t = np.arange(k)[:, None, None]
        counts = np.zeros((k, k, k), dtype=np.int64)
        for rows in row_blocks(k, k ** 3):
            s = np.arange(k)[rows, None, None, None]
            np.add.at(counts, (s, t, (s * i + t * j) % k), cyc)
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
class QuadForm:
    """n q = a^2 + w b^2, for q = 1 (mod modulus).  Of a and -a the
    normalization keeps the one that is a_residue (mod a_modulus); b >= 0 is
    a multiple of b_divisor.  p splits in the form's ring when p mod modulus
    is in split.  At an inert prime b = 0, and a = inert_a (-p)^(r/2) where
    inert_a is given."""
    names: tuple[str, str]      # the paper's letters for a and b
    scale: int                  # n
    weight: int                 # w
    modulus: int
    a_residue: int
    a_modulus: int
    b_divisor: int
    split: tuple[int, ...]
    inert_a: int | None


# names, n, w, modulus, a_residue, a_modulus, b_divisor, split, inert_a
QUAD_FORMS = {
    TWO_SQUARES:      QuadForm(("x", "y"), 1, 1, 4, 1, 4, 2, (1,), 1),
    EISENSTEIN:       QuadForm(("c", "d"), 4, 3, 3, 1, 3, 3, (1,), -2),
    TWO_TIMES_SQUARE: QuadForm(("u", "v"), 1, 2, 8, 3, 4, 1, (1, 3), None),
}


@dataclass(frozen=True)
class QuadFormRep:
    kind: str
    q: int
    a: int          # x, c, or u depending on kind (sign-normalized)
    b: int          # y, d, or v, returned nonnegative
    inert: bool     # True when the prime is inert and b = 0 is forced

    def to_json(self) -> dict:
        names = QUAD_FORMS[self.kind].names
        return {"kind": self.kind, names[0]: self.a, names[1]: self.b}


def solve_quadform(kind: str, ctx: FieldContext) -> QuadFormRep:
    """The unique normalized representation of q by QUAD_FORMS[kind], read
    by the order-3/4/8 Jacobi-sum evaluations.  One exhaustive search over
    |a| <= sqrt(n q) (q is small here); on a split prime it also requires
    p not dividing a.  NoRepresentation when q misses the form's congruence.
    A second normalized solution, or an inert prime with b != 0 or a off
    its forced value, breaks the evaluations' premise and raises
    AssertionError."""
    form = QUAD_FORMS.get(kind)
    if form is None:
        raise ValueError(f"unknown quadratic form kind {kind!r}")
    p, r, q = ctx.p, ctx.r, ctx.q
    if q % form.modulus != 1:
        raise NoRepresentation(f"q={q} is not 1 mod {form.modulus}")
    split = p % form.modulus in form.split
    nq, found = form.scale * q, []
    for n in range(1, isqrt(nq) + 1):
        a = n if n % form.a_modulus == form.a_residue else -n
        if a % form.a_modulus != form.a_residue or (split and n % p == 0):
            continue
        b2, rem = divmod(nq - n * n, form.weight)
        b = isqrt(b2)
        if rem == 0 and b * b == b2 and b % form.b_divisor == 0:
            found.append((a, b))
    if not found:
        raise NoRepresentation(f"{kind}: no normalized solution for q={q}")
    if len(found) > 1:
        raise AssertionError(f"{kind}: normalization not unique for q={q}: {found}")
    ((a, b),) = found
    if not split and (b != 0 or form.inert_a is not None
                      and a != form.inert_a * (-p) ** (r // 2)):
        raise AssertionError(f"{kind}: q={q} is a power of the inert prime {p}, "
                             f"but a={a}, b={b}")
    return QuadFormRep(kind, q, a, b, inert=not split)
