"""Exact arithmetic in Z[zeta_k], the value ring of all character sums here.

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(k)-1) reduced
eagerly modulo the k-th cyclotomic polynomial, so equality is plain
coefficient comparison.  Python integers make every operation exact at any
size; the complex embedding exists only for diagnostics, never for results.
"""

from __future__ import annotations

import cmath
from functools import lru_cache

from .errors import ConductorMismatch, NotRational


@lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k, low degree first, computed by exact division
    of x^k - 1 by the Phi_d for proper divisors d."""
    if k < 1:
        raise ValueError("conductor must be positive")
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
def _zeta_power_basis(k: int) -> tuple[tuple[int, ...], ...]:
    """Reduced coefficient rows for zeta^0 .. zeta^(k-1)."""
    phi = _phi(k)
    mod = cyclotomic_polynomial(k)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(1, k):
        nxt = [0] + cur[:]                     # multiply by zeta
        if len(nxt) > phi:
            lead = nxt.pop()
            if lead:
                for j in range(phi):
                    nxt[j] -= lead * mod[j]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


@lru_cache(maxsize=None)
def _zeta_sparse_rows(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (j, coefficient) pairs of each _zeta_power_basis(k) row."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c)
                 for row in _zeta_power_basis(k))


class CycInt:
    """An element of Z[zeta_k] in canonical power-basis form."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != _phi(k):
            raise ValueError(f"expected {_phi(k)} coefficients for conductor {k}")
        self.k = k
        self.coeffs = coeffs

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
        """Sum of counts[e] * zeta^e for e in range(k); the workhorse behind
        every character-sum evaluation."""
        rows = _zeta_sparse_rows(k)
        acc = [0] * _phi(k)
        for e, c in enumerate(counts):
            if c:
                for j, coeff in rows[e % k]:
                    acc[j] += c * coeff
        return cls(k, acc)

    # -- ring operations ------------------------------------------------------

    def _check(self, other: CycInt) -> None:
        if self.k != other.k:
            raise ConductorMismatch(f"conductors {self.k} and {other.k}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.k, other)
        self._check(other)
        return CycInt(self.k, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.k, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.integer(self.k, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.k, tuple(a * other for a in self.coeffs))
        self._check(other)
        phi = _phi(self.k)
        prod = [0] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        mod = cyclotomic_polynomial(self.k)
        for i in range(len(prod) - 1, phi - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(phi + 1):
                    prod[i - phi + j] -= c * mod[j]
        return CycInt(self.k, prod[:phi])

    __rmul__ = __mul__

    def conj(self) -> CycInt:
        """The ring involution zeta -> zeta^(-1)."""
        counts = [0] * self.k
        for i, c in enumerate(self.coeffs):
            counts[(-i) % self.k] = c
        return CycInt.from_zeta_counts(self.k, counts)

    def __eq__(self, other):
        if isinstance(other, int):
            return self == CycInt.integer(self.k, other)
        return isinstance(other, CycInt) and self.k == other.k and self.coeffs == other.coeffs

    def __hash__(self):
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
    return CycInt(k, _zeta_power_basis(k)[e % k])
