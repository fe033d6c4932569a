"""Exact arithmetic in Z[zeta_k], the value ring of all character sums here.

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(k)-1) reduced
eagerly modulo the k-th cyclotomic polynomial, so equality is plain
coefficient comparison.  Every reduction (a character sum, a product, a
conjugate, a lift) is one fold of zeta-exponent counts through the sparse
rows of zeta^0 .. zeta^(k-1), from_zeta_counts.  Python integers make every
operation exact at any size; the complex embedding is for diagnostics only.

The public constructor checks that it is given phi(k) coefficients.  The
results this module builds itself (a fold, a sum, a negation, an integer
multiple) have that length by construction, so they skip the check through
CycInt._unchecked: the identity sweeps make tens of thousands of them.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import prod

from .errors import ConductorMismatch, NotRational
from .finite_field import factorize


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, low degree first: Phi_r(x^(k/r)) for r = rad(k),
    and for squarefree k, x^k - 1 divided by Phi_d for proper divisors d."""
    if k < 1:
        raise ValueError("conductor must be positive")
    rad = prod(factorize(k))
    if rad < k:
        stride = k // rad
        poly = [0] * ((len(cyclotomic_polynomial(rad)) - 1) * stride + 1)
        poly[::stride] = cyclotomic_polynomial(rad)
        return tuple(poly)
    poly = [-1] + [0] * (k - 1) + [1]          # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            poly = _exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    out = [0] * (len(num) - len(den) + 1)
    num = num[:]
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        c //= den[-1]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    assert not any(num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def _phi(k: int) -> int:
    return len(cyclotomic_polynomial(k)) - 1


@lru_cache(maxsize=None)
def _zeta_sparse_rows(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (j, coefficient) pairs of zeta^0 .. zeta^(k-1): the only
    reduction into Z[zeta_k].  Each row is the previous one times zeta, with
    zeta^phi replaced by minus the nonzero lower terms of Phi_k."""
    phi = _phi(k)
    low = [(j, -c) for j, c in enumerate(cyclotomic_polynomial(k)[:phi]) if c]
    rows = [((0, 1),)]
    for _ in range(1, k):
        nxt = {j + 1: c for j, c in rows[-1]}
        lead = nxt.pop(phi, 0)
        for j, c in low:
            nxt[j] = nxt.get(j, 0) + lead * c
        rows.append(tuple(sorted((j, c) for j, c in nxt.items() if c)))
    return tuple(rows)


class CycInt:
    """An element of Z[zeta_k] in canonical power-basis form."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != _phi(k):
            raise ValueError(f"expected {_phi(k)} coefficients for conductor {k}")
        self.k = k
        self.coeffs = coeffs

    @classmethod
    def _unchecked(cls, k: int, coeffs: tuple) -> CycInt:
        """A CycInt from a tuple already known to hold phi(k) coefficients."""
        out = object.__new__(cls)
        out.k = k
        out.coeffs = coeffs
        return out

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, k: int) -> CycInt:
        return cls(k, (0,) * _phi(k))

    @classmethod
    def one(cls, k: int) -> CycInt:
        return cls.integer(k, 1)

    @classmethod
    def integer(cls, k: int, n: int) -> CycInt:
        return cls(k, (n,) + (0,) * (_phi(k) - 1))

    @classmethod
    def from_zeta_counts(cls, k: int, counts) -> CycInt:
        """Sum of counts[e] * zeta^e over the indices e of counts, read mod k;
        the one fold behind every character sum and ring product."""
        rows = _zeta_sparse_rows(k)
        acc = [0] * _phi(k)
        for e, c in enumerate(counts):
            if c:
                for j, coeff in rows[e % k]:
                    acc[j] += c * coeff
        return cls._unchecked(k, tuple(acc))

    # -- ring operations ------------------------------------------------------

    def _check(self, other: CycInt) -> None:
        if self.k != other.k:
            raise ConductorMismatch(f"conductors {self.k} and {other.k}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.k, other)
        self._check(other)
        return CycInt._unchecked(self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt._unchecked(self.k, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt._unchecked(self.k, tuple(a * other for a in self.coeffs))
        self._check(other)
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        counts = [0] * (2 * len(self.coeffs) - 1)      # counts[i + j]: zeta^(i + j)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in terms:
                    counts[i + j] += a * b
        return CycInt.from_zeta_counts(self.k, counts)

    __rmul__ = __mul__

    def conj(self) -> CycInt:
        """The ring involution zeta -> zeta^(-1)."""
        counts = [0] * self.k
        for i, c in enumerate(self.coeffs):
            counts[(-i) % self.k] = c
        return CycInt.from_zeta_counts(self.k, counts)

    def __eq__(self, other):
        """Rational values compare by their integer, whatever the conductor
        (so == is transitive and agrees with __hash__); other values need
        the same conductor."""
        if isinstance(other, CycInt) and self.k == other.k:
            return self.coeffs == other.coeffs
        if isinstance(other, CycInt) and not any(other.coeffs[1:]):
            other = other.coeffs[0]
        return isinstance(other, int) and not any(self.coeffs[1:]) and self.coeffs[0] == other

    def __hash__(self):
        if not any(self.coeffs[1:]):           # rational: equal to its int
            return hash(self.coeffs[0])
        return hash((self.k, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- conversions -----------------------------------------------------------

    def as_integer(self) -> int:
        """The value as a rational integer; failure means an identity was
        implemented wrongly, so it raises instead of truncating."""
        if any(self.coeffs[1:]):
            raise NotRational(f"{self!r} has nonzero zeta components")
        return self.coeffs[0]

    def to_conductor(self, bigk: int) -> CycInt:
        """Image under zeta_k -> zeta_bigk^(bigk/k)."""
        if bigk == self.k:
            return self
        if bigk % self.k != 0:
            raise ConductorMismatch(f"{self.k} does not divide {bigk}")
        step = bigk // self.k
        counts = [0] * bigk
        for i, c in enumerate(self.coeffs):
            counts[(i * step) % bigk] = c
        return CycInt.from_zeta_counts(bigk, counts)

    def complex_value(self) -> complex:
        """Floating-point embedding at zeta = exp(2 pi i / k); diagnostics only."""
        z = cmath.exp(2j * cmath.pi / self.k)
        return sum(c * z ** i for i, c in enumerate(self.coeffs) if c)

    def to_json(self) -> dict:
        return {"k": self.k, "coeffs": list(self.coeffs)}

    def __repr__(self):
        return f"CycInt(k={self.k}, coeffs={self.coeffs})"


def zeta_pow(k: int, e: int) -> CycInt:
    """Canonical representative of zeta_k^e."""
    coeffs = [0] * _phi(k)
    for j, c in _zeta_sparse_rows(k)[e % k]:
        coeffs[j] = c
    return CycInt(k, coeffs)
