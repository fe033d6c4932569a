"""Multiplicative characters of F_q* with the chi(0) = 0 convention.

A character is just its exponent multiplier m against the fixed primitive
element: chi(omega^j) = zeta_(q-1)^(m*j).  Values come back as exact
CycInts in the smallest conductor containing the character's order (or any
requested multiple of it); chi(-1) = +-1 is read off the parity of m.

MultChar is an immutable two-slot value, equal and hashed by its field's
identity and m mod q - 1.  The identity sweeps build tens of thousands of
them, one per product or conjugate, so construction is one reduction and
two slot stores, past the __setattr__ that refuses every later write;
pickling goes through the constructor.
"""

from __future__ import annotations

from math import gcd

from .cyclotomic import CycInt, zeta_pow
from .errors import OrderNotDividing, ZeroInput
from .finite_field import FieldContext


class MultChar:
    """The character chi(omega^j) = zeta_(q-1)^(m j) of F_q*, m mod q - 1."""

    __slots__ = ("ctx", "m")

    def __init__(self, ctx: FieldContext, m: int):
        _set_ctx(self, ctx)
        _set_m(self, m % (ctx.q - 1))

    def __setattr__(self, name, value):
        raise AttributeError(f"MultChar is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MultChar is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return MultChar, (self.ctx, self.m)

    def __eq__(self, other):
        if not isinstance(other, MultChar):
            return NotImplemented
        return self.ctx is other.ctx and self.m == other.m

    def __hash__(self):
        return hash((self.ctx, self.m))

    def __repr__(self):
        return f"MultChar(ctx={self.ctx!r}, m={self.m!r})"

    @property
    def order(self) -> int:
        qm1 = self.ctx.q - 1
        return qm1 // gcd(self.m, qm1)

    @property
    def is_trivial(self) -> bool:
        return self.m == 0

    def __mul__(self, other: MultChar) -> MultChar:
        return MultChar(same_ctx((self, other)), self.m + other.m)

    def __pow__(self, e: int) -> MultChar:
        return MultChar(self.ctx, self.m * e)

    def conj(self) -> MultChar:
        return MultChar(self.ctx, -self.m)

    def exponent_in(self, conductor: int) -> int:
        """x with chi = (canonical order-conductor character)^x."""
        qm1 = self.ctx.q - 1
        # the order qm1 / gcd(m, qm1) divides conductor iff qm1 | m conductor
        if qm1 % conductor or self.m * conductor % qm1:
            raise OrderNotDividing(f"order {self.order} does not divide {conductor}")
        return (self.m * conductor) // qm1

    def eval(self, a: int, conductor: int | None = None) -> CycInt:
        """chi(a) as a CycInt; zero at a = 0 for every character."""
        d = conductor if conductor is not None else self.order
        if a == 0:
            return CycInt.zero(d)
        x = self.exponent_in(d)
        return zeta_pow(d, x * self.ctx.dlog(a))

    def sign_at_minus_one(self) -> int:
        """chi(-1) as a plain +-1 integer: (-1)^m for odd q, where
        -1 = omega^((q-1)/2), and 1 for even q, where -1 = 1."""
        return -1 if self.ctx.q % 2 and self.m % 2 else 1


_set_ctx = MultChar.ctx.__set__     # the slots' own setters, which bypass
_set_m = MultChar.m.__set__         # MultChar.__setattr__


def same_ctx(chars) -> FieldContext:
    """The one field all of chars are over; they may not mix fields."""
    ctx = chars[0].ctx
    if any(ch.ctx is not ctx for ch in chars):
        raise ValueError("characters over different fields")
    return ctx


def check_order(ctx: FieldContext, k: int) -> None:
    """Raise unless k >= 1 divides q - 1, so that ind mod k is defined."""
    if k < 1:
        raise ValueError(f"character order must be positive, got k={k}")
    if (ctx.q - 1) % k != 0:
        raise OrderNotDividing(f"{k} does not divide q-1={ctx.q - 1}")


def canonical_char(ctx: FieldContext, k: int) -> MultChar:
    """The order-k character with chi_k(omega) = zeta_k."""
    check_order(ctx, k)
    return MultChar(ctx, (ctx.q - 1) // k)


def trivial_char(ctx: FieldContext) -> MultChar:
    return MultChar(ctx, 0)


def orthogonality_sum(ctx: FieldContext, k: int, b: int) -> int:
    """(1/k) sum_t chi_k^t(b): 1 when b is a k-th power, else 0."""
    if b == 0:
        raise ZeroInput("orthogonality sum needs b nonzero")
    chi = canonical_char(ctx, k)
    total = CycInt.zero(k)
    for t in range(k):
        total = total + (chi ** t).eval(b, conductor=k)
    value = total.as_integer()
    assert value % k == 0
    return value // k
