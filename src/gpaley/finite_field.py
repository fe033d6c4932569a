"""Deterministic construction of GF(p^r) with exp, log and difference tables.

Elements are plain ints in [0, q): the base-p digit vector of the polynomial
representative packed into a single index (0 is the zero element, 1 is the
multiplicative identity).  Digits are used only while the tables are built;
after that all arithmetic is table lookups in int64 arrays:

  powers(k)[t]      omega^(kt), for t in [0, (q-1)/k): S_k in exponent order
  np_exp[n]         omega^n, for n in [0, q-1): powers(1)
  np_log[a]         ind(a), the discrete log of a nonzero a
  log_one_minus[n]  L(n) = ind(1 - omega^n), or -1 at n = 0

build_field finds the modulus and omega and builds no table.  Every table
is made the first time something reads it.  powers(k) comes from one
builder, _exp_table, by doubling: g^(L+j) = g^L g^j with g = omega^k.  In a
prime field that is one scalar multiply mod p per doubling.  An extension
field rests on one helper, _mul_matrix(c), the r x r matrix of
multiplication by c mod the modulus, in exact int64 arithmetic.  Its
powers fill the table (one einsum on r digit planes per doubling), its row
0 decides whether a candidate generator g has g^((q-1)/l) = 1, and the
Ben-Or irreducibility test of the modulus reads x^p from it.  np_log and
log_one_minus are derived from np_exp, so the K3 and K4 subgraph counts
of a zero scan, which read powers(k) and the residue mask only, build none
of them.

L is the field's one difference table, and it is read-only.  With
e = ind(-1), 1 - omega^n = omega^(n+e) + 1, and adding 1 changes only the
constant digit of a packed index.  Every sum and difference is one lookup:
ind(a - b) = ind a + L(ind b - ind a), and ind(a + b) = ind a +
L(ind b - ind a + e).  Callers index these int64 tables directly, and dlog
reads np_log.  Every run of the same (p, r) produces byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CompositeP, InvalidCongruence, SizeLimit, ZeroInput

DEFAULT_SIZE_LIMIT = 1 << 24
BLOCK_ELEMENTS = 1 << 20     # cells per row block of a vectorized pairwise pass
REDUCE_BLOCK = 1 << 16       # digit-plane cells per block of _exp_table's reduction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n stays below the size cap)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = a[:]
    deg_m = len(mod) - 1
    for i in range(len(a) - 1, deg_m - 1, -1):
        c = a[i] % p
        if c:
            for j in range(deg_m + 1):
                a[i - deg_m + j] = (a[i - deg_m + j] - c * mod[j]) % p
    del a[deg_m:]
    return _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
        monic = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_rem(a, monic, p)
    return a


def _mul_matrix(c: list[int], mod: list[int], p: int) -> np.ndarray:
    """The r x r int64 matrix of multiplication by c mod ``mod`` (degree r):
    row i holds the digits of x^i c, made by shift-and-reduce.  A digit row
    vector v times it is the digits of v c, and _mul_matrix(a) @
    _mul_matrix(b) is _mul_matrix(a b) mod p."""
    r = len(mod) - 1
    row = list(c) + [0] * (r - len(c))
    rows = []
    for _ in range(r):
        rows.append(row)
        top, row = row[-1], [0] + row[:-1]
        if top:                               # x^r = -(mod[0] + ... + mod[r-1] x^(r-1))
            row = [(a - top * m) % p for a, m in zip(row, mod)]
    return np.array(rows, dtype=np.int64)


def _power_row(squares: list[np.ndarray], e: int, p: int) -> np.ndarray:
    """Row 0 of M^e mod p by square-and-multiply, where squares[j] is
    M^(2^j) and M = squares[0]: the digits of c^e when M is _mul_matrix(c).
    The list grows in place, so later exponents reuse the squarings.
    Entries stay below p, so every product sum is at most r (p - 1)^2."""
    row = np.zeros(len(squares[0]), dtype=np.int64)
    row[0] = 1
    for j in range(e.bit_length()):
        if j == len(squares):
            squares.append(squares[-1] @ squares[-1] % p)
        if e >> j & 1:
            row = row @ squares[j] % p
    return row


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or test: a monic f of degree r is irreducible iff gcd(f,
    x^(p^i) - x) = 1 for every i <= r/2, since x^(p^i) - x is the product
    of the monic irreducibles of degree dividing i.  Each x^(p^i) mod f is
    the p-th power of the one before, and the loop stops at the first i
    that finds a factor."""
    r = len(f) - 1
    h = [0, 1]
    for _ in range(r // 2):
        h = _power_row([_mul_matrix(h, f, p)], p, p).tolist()   # x^(p^i)
        g = h[:]
        g[1] = (g[1] - 1) % p
        if len(_poly_gcd(f, g, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, r: int) -> list[int]:
    """First monic degree-r irreducible when the lower coefficients are read
    as a base-p integer (so x^4+x+1 for p=2, r=4).  For r > 1 a root at 0
    or 1 is a linear factor, so those candidates skip the Ben-Or test."""
    for m in range(p ** r):
        f = _coeffs(m, p, r) + [1]
        if r > 1 and (f[0] == 0 or sum(f) % p == 0):
            continue
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FieldContext:
    """GF(p^r): the modulus and omega, and every table made on first use.
    Immutable after construction."""

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]          # length r+1, monic, low degree first
    primitive_index: int
    log_neg_one: int = field(repr=False)        # ind(-1): (q-1)/2, or 0 when p = 2
    _caches: dict = field(default_factory=dict, repr=False)     # counts and masks
    _powers: dict = field(default_factory=dict, repr=False)     # k -> powers(k)

    # -- the tables, on first use ------------------------------------------

    def powers(self, k: int) -> np.ndarray:
        """omega^(kt) for t in [0, (q-1)/k) as a read-only int64 array,
        cached per k: _exp_table with generator omega^k.  When -1 is in
        the table, at t = ind(-1)/k, it is checked to be there."""
        if k not in self._powers:
            n, rem = divmod(self.q - 1, k)
            if rem:
                raise ValueError(f"k={k} does not divide q-1={self.q - 1}")
            p, modulus = self.p, list(self.modulus)
            g = _power(self.primitive_index, k, p, self.r, modulus)
            table = _exp_table(p, self.r, modulus, g, n)
            e = self.log_neg_one
            if e % k == 0 and table[e // k] != p - 1:
                raise AssertionError(f"GF({self.q}): omega^{e} is not -1")
            table.flags.writeable = False
            self._powers[k] = table
        return self._powers[k]

    @cached_property
    def np_exp(self) -> np.ndarray:
        """omega^n, n in [0, q-1)."""
        return self.powers(1)

    @cached_property
    def np_log(self) -> np.ndarray:
        """ind(a), 0 at a = 0."""
        log = np.zeros(self.q, dtype=np.int64)
        log[self.np_exp] = np.arange(self.q - 1)
        return log

    @cached_property
    def log_one_minus(self) -> np.ndarray:
        """L(n) = ind(1 - omega^n), -1 at n = 0.  Read-only, so an in-place
        edit by a caller raises."""
        p = self.p
        minus = np.roll(self.np_exp, -self.log_neg_one)        # -omega^n
        # adding 1 changes only the constant digit of a packed index
        one_minus = np.where(minus % p == p - 1, minus - (p - 1), minus + 1)
        table = np.where(one_minus == 0, -1, self.np_log[one_minus])
        table.flags.writeable = False
        return table

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("discrete log of zero")
        if not 0 < a < self.q:
            raise ValueError(f"{a} is not an element index of GF({self.q})")
        return int(self.np_log[a])

    def from_int(self, n: int) -> int:
        """Embed the rational integer n via the prime subfield."""
        return n % self.p

    def record(self) -> dict:
        """Construction record embedded in every JSON output."""
        return {
            "p": self.p,
            "r": self.r,
            "q": self.q,
            "modulus": list(self.modulus),
            "primitive": self.primitive_index,
        }


def row_blocks(n_rows: int, n_cols: int):
    """Consecutive row slices of an n_rows x n_cols grid holding at most
    BLOCK_ELEMENTS cells each (always at least one row)."""
    step = max(1, BLOCK_ELEMENTS // max(1, n_cols))
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def windows(a: np.ndarray, width: int) -> np.ndarray:
    """Read-only (len(a) - width + 1, width) view of a contiguous 1-D array,
    row i being a[i:i + width]: sliding_window_view's result, made directly
    by as_strided without its argument checks."""
    step = a.strides[0]
    return as_strided(a, (len(a) - width + 1, width), (step, step),
                      writeable=False)


def _coeffs(a: int, p: int, r: int) -> list[int]:
    """The r base-p digits of a packed index, low degree first."""
    out = []
    for _ in range(r):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _element_order_is_maximal(g: int, p: int, r: int, q: int,
                              modulus: list[int], qm1_primes: list[int]) -> bool:
    if r == 1:
        return all(pow(g, (q - 1) // ell, p) != 1 for ell in qm1_primes)
    squares = [_mul_matrix(_coeffs(g, p, r), modulus, p)]
    for ell in qm1_primes:
        power = _power_row(squares, (q - 1) // ell, p)      # g^((q-1)/ell)
        if power[0] == 1 and not power[1:].any():
            return False
    return True


def _power(g: int, e: int, p: int, r: int, modulus: list[int]) -> int:
    """g^e as a packed index, with no table: pow in a prime field, row 0
    of _mul_matrix(g)^e in an extension field."""
    if r == 1:
        return pow(g, e, p)
    digits = _power_row([_mul_matrix(_coeffs(g, p, r), modulus, p)], e, p)
    return sum(int(d) * p ** i for i, d in enumerate(digits))


def _exp_table(p: int, r: int, modulus: list[int], g: int, n: int) -> np.ndarray:
    """g^j for j in [0, n) as packed indices.

    The table doubles: once the first L powers are made, the next L are
    those times g^L.  In a prime field the packed index is the element
    itself, so exp[L:2L] = exp[:L] * g^L mod p, products below p^2, which
    is under 2^48 within the default size limit.

    In an extension field the powers are held as digit planes of shape
    (r, n), and multiplication by g^L is the matrix M = _mul_matrix(g^L):
    each doubling is planes[:, L:2L] = M^T planes[:, :L] mod p, one einsum,
    after which M is squared.  The einsum's cells are reduced mod p as
    x - x // p * p in column blocks of REDUCE_BLOCK cells, since numpy's
    floor divide by a scalar is far faster than its remainder on small
    unsigned ints, and a block keeps the quotient's temporary small and in
    cache.  The planes and M use the narrowest unsigned dtype that holds
    r (p-1)^2, the largest sum an einsum cell can reach, so no sum wraps.
    That is uint8 for every p = 2 field to r = 24 and for 3^10, 7^5;
    uint16 or uint32 for larger p.  The planes are packed to element
    indices once, at the end, by Horner in the narrowest dtype that holds
    q - 1, then copied to int64.  Transient memory: the planes, r n
    itemsize bytes (2.5 times the table for GF(2^20) at n = q - 1), plus
    the packed copy and one block; the planes are freed before the int64
    copy is made."""
    if r == 1:
        exp = np.empty(n, dtype=np.int64)
        exp[0] = 1
        filled = 1
        while filled < n:
            m = min(filled, n - filled)
            chunk = exp[filled:filled + m]
            np.multiply(exp[:m], pow(g, filled, p), out=chunk)
            chunk %= p
            filled += m
        return exp
    dtype = np.min_scalar_type(r * (p - 1) ** 2)
    step = _mul_matrix(_coeffs(g, p, r), modulus, p).astype(dtype)
    planes = np.zeros((r, n), dtype=dtype)
    planes[0, 0] = 1
    width = max(1, REDUCE_BLOCK // r)
    filled = 1
    while filled < n:
        m = min(filled, n - filled)
        chunk = planes[:, filled:filled + m]
        np.einsum("ji,jn->in", step, planes[:, :m], out=chunk)
        for start in range(0, m, width):
            part = chunk[:, start:start + width]
            part -= part // p * p
        step = step @ step % p
        filled += m
    exp = planes[r - 1].astype(np.min_scalar_type(p ** r - 1))   # Horner over the digits
    for i in range(r - 2, -1, -1):
        exp *= p
        exp += planes[i]
    planes = chunk = part = None    # free the planes (chunk and part view them) first
    return exp.astype(np.int64)


def build_field(p: int, r: int, *, size_limit: int = DEFAULT_SIZE_LIMIT,
                alt_generator: bool = False) -> FieldContext:
    """Construct GF(p^r) deterministically.

    The modulus is the first monic irreducible found in base-p order (Ben-Or
    test) and the primitive element is the generator with the smallest
    element index: candidates are tried in ascending order, each by
    g^((q-1)/l) != 1 for every prime l dividing q - 1, so repeated builds
    are identical.  ``alt_generator`` selects the next generator instead,
    which downstream determinism tests rely on.  omega^ind(-1) = -1 is
    checked by _power.  No table is built here: FieldContext.powers makes
    each one on first use.
    """
    if r < 1:
        raise ValueError("exponent r must be positive")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    q = p ** r
    if q > size_limit:
        raise SizeLimit(f"q={q} exceeds the cap {size_limit}")

    modulus = _smallest_irreducible(p, r)
    qm1_primes = sorted(factorize(q - 1)) if q > 2 else []

    generators = []
    # for r > 1 the constants 1..p-1 have orders dividing p - 1 < q - 1
    for g in range(1 if r == 1 else p, q):
        if _element_order_is_maximal(g, p, r, q, modulus, qm1_primes):
            generators.append(g)
            if len(generators) > (1 if alt_generator else 0):
                break
    if alt_generator and len(generators) < 2:
        raise ValueError(f"GF({q}) has no second generator")
    omega = generators[-1]

    # -1 is the element of order 2, omega^((q-1)/2); for p = 2 it is 1
    log_neg_one = 0 if p == 2 else (q - 1) // 2
    if _power(omega, log_neg_one, p, r, modulus) != p - 1:
        raise AssertionError(f"GF({q}): omega^{log_neg_one} is not -1")

    return FieldContext(
        p=p, r=r, q=q,
        modulus=tuple(modulus),
        primitive_index=omega,
        log_neg_one=log_neg_one,
    )


def paley_congruence(k: int, q: int) -> bool:
    """q = 1 (mod k) for even q, q = 1 (mod 2k) for odd q; this is exactly
    the condition making -1 a k-th power, so G_k(q) is undirected."""
    return q % (k if q % 2 == 0 else 2 * k) == 1


def validate_paley_params(k: int, ctx: FieldContext) -> None:
    if k < 2:
        raise InvalidCongruence(f"k={k} must be at least 2")
    q = ctx.q
    if not paley_congruence(k, q):
        modulus = k if q % 2 == 0 else 2 * k
        raise InvalidCongruence(f"q={q} is not 1 mod {modulus} (k={k})")


def residue_mask(ctx: FieldContext, k: int) -> np.ndarray:
    """Boolean lookup by element index of S_k, the nonzero k-th powers."""
    mask = np.zeros(ctx.q, dtype=bool)
    mask[ctx.powers(k)] = True
    return mask


def split_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^r or raise."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, r),) = fac.items()
    return p, r


def prime_powers(q_max: int) -> list[int]:
    """The prime powers 2 <= q <= q_max, ascending, from a sieve of
    Eratosthenes: the primes, then p^2, p^3, ... for each p <= sqrt(q_max)."""
    if q_max < 2:
        return []
    prime = np.ones(q_max + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, isqrt(q_max) + 1):
        if prime[p]:
            prime[p * p::p] = False
    power = prime.copy()
    for p in np.flatnonzero(prime[:isqrt(q_max) + 1]).tolist():
        q = p * p
        while q <= q_max:
            power[q] = True
            q *= p
    return np.flatnonzero(power).tolist()
