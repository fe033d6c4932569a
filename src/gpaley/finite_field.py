"""Deterministic construction of GF(p^r) with exp, log and difference tables.

Elements are plain ints in [0, q): the base-p digit vector of the polynomial
representative packed into a single index (0 is the zero element, 1 is the
multiplicative identity).  Digits are used only while the tables are built;
after that all arithmetic is table lookups in three int64 arrays:

  np_exp[n]         omega^n, for n in [0, q-1)
  np_log[a]         ind(a), the discrete log of a nonzero a
  log_one_minus[n]  L(n) = ind(1 - omega^n), or -1 at n = 0

build_field makes np_exp only: for a prime field by doubling
(omega^(B+j) = omega^B omega^j mod p), for an extension field by blocked
digit-vector products.  np_log and log_one_minus are derived from it the
first time something reads them, so the K4 subgraph count of a zero scan,
which reads np_exp and the residue mask only, never builds them.

L is the field's one difference table, and it is read-only.  With
e = ind(-1), 1 - omega^n = omega^(n+e) + 1, and adding 1 changes only the
constant digit of a packed index.  Every sum and difference is one lookup:
ind(a - b) = ind a + L(ind b - ind a), and ind(a + b) = ind a +
L(ind b - ind a + e).  The scalar operations read list copies of the tables
(``exp_table``, ``log_table``, ``one_minus_table``), which are likewise made
on first use.  Every run of the same (p, r) produces byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import CompositeP, InvalidCongruence, SizeLimit, ZeroInput

DEFAULT_SIZE_LIMIT = 1 << 24
EXP_BLOCK = 1 << 12          # digit vectors held at once while building np_exp
BLOCK_ELEMENTS = 1 << 20     # cells per row block of a vectorized pairwise pass


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


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_rem(prod, mod, p)


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


def _poly_powmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    acc = _poly_rem(base[:], mod, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, acc, mod, p)
        acc = _poly_mul_mod(acc, acc, mod, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(a[:]), _poly_trim(b[:])
    while b:
        inv_lead = pow(b[-1], p - 2, p) if p > 2 else b[-1]
        monic = [(c * inv_lead) % p for c in b]
        a, b = b, _poly_rem(a, monic, p)
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: x^(p^r) = x mod f and gcd(x^(p^(r/l)) - x, f) = 1."""
    r = len(f) - 1
    if r == 1:
        return True
    x = [0, 1]
    t = x
    powers = {}
    for j in range(1, r + 1):
        t = _poly_powmod(t, p, f, p)
        powers[j] = t
    top = powers[r][:]
    # x^(p^r) - x must vanish mod f
    while len(top) < 2:
        top.append(0)
    top[1] = (top[1] - 1) % p
    if _poly_trim(top):
        return False
    for ell in factorize(r):
        g = powers[r // ell][:]
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _poly_trim(g)
        if not g:
            return False
        if len(_poly_gcd(f, g, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, r: int) -> list[int]:
    """First monic degree-r irreducible when the lower coefficients are read
    as a base-p integer (so x^4+x+1 for p=2, r=4)."""
    for m in range(p ** r):
        f = _coeffs(m, p, r) + [1]
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FieldContext:
    """Fully materialized GF(p^r).  Immutable after construction."""

    p: int
    r: int
    q: int
    modulus: tuple[int, ...]          # length r+1, monic, low degree first
    primitive_index: int
    np_exp: np.ndarray = field(repr=False)      # omega^n
    log_neg_one: int = field(repr=False)        # ind(-1): (q-1)/2, or 0 when p = 2
    _caches: dict = field(default_factory=dict, repr=False)

    # -- the tables derived from np_exp, on first use -----------------------

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

    # -- list copies of the tables, for the scalar operations --------------

    @cached_property
    def exp_table(self) -> list[int]:
        return self.np_exp.tolist()

    @cached_property
    def log_table(self) -> list[int]:
        return self.np_log.tolist()

    @cached_property
    def one_minus_table(self) -> list[int]:
        return self.log_one_minus.tolist()

    # -- element arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return a or b
        # a + b = a (1 - omega^(ind b - ind a + ind(-1)))
        la, n = self.log_table[a], self.q - 1
        z = self.one_minus_table[(self.log_table[b] - la + self.log_neg_one) % n]
        return 0 if z < 0 else self.exp_table[(la + z) % n]

    def neg(self, a: int) -> int:
        if a == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_neg_one) % (self.q - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("inverse of zero")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroInput("discrete log of zero")
        if not 0 < a < self.q:
            raise ValueError(f"{a} is not an element index of GF({self.q})")
        return self.log_table[a]

    def pow_element(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e > 0 else 1
        return self.exp_table[(self.log_table[a] * e) % (self.q - 1)]

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


def _coeffs(a: int, p: int, r: int) -> list[int]:
    """The r base-p digits of a packed index, low degree first."""
    out = []
    for _ in range(r):
        a, d = divmod(a, p)
        out.append(d)
    return out


def _raw_mul(a: int, b: int, ctx_p: int, ctx_r: int, modulus: list[int]) -> int:
    """Table-free multiplication used while bootstrapping the tables."""
    if ctx_r == 1:
        return (a * b) % ctx_p
    prod = _poly_mul_mod(_coeffs(a, ctx_p, ctx_r), _coeffs(b, ctx_p, ctx_r),
                         modulus, ctx_p)
    return sum(c * ctx_p ** i for i, c in enumerate(prod))


def _element_order_is_maximal(g: int, p: int, r: int, q: int,
                              modulus: list[int], qm1_primes: list[int]) -> bool:
    if r == 1:
        return all(pow(g, (q - 1) // ell, p) != 1 for ell in qm1_primes)
    base = _coeffs(g, p, r)
    return all(_poly_powmod(base, (q - 1) // ell, modulus, p) != [1]
               for ell in qm1_primes)


def _exp_table(p: int, r: int, modulus: list[int], omega: int) -> np.ndarray:
    """omega^j for j in [0, q-1) as packed indices.

    In a prime field the packed index is the element itself, and the table
    doubles in place: exp[L:2L] = exp[:L] * omega^L mod p.  The products
    stay below p^2, which is under 2^48 within the default size limit.

    In an extension field multiplication by omega^B is an F_p-linear map on
    digit vectors.  Its matrix is squared while the first block of powers
    doubles to B rows; after that each block of B digit vectors times the
    matrix is the next block, and every block is packed as soon as it is
    made."""
    n = p ** r - 1
    if r == 1:
        exp = np.empty(n, dtype=np.int64)
        exp[0] = 1
        filled = 1
        while filled < n:
            m = min(filled, n - filled)
            chunk = exp[filled:filled + m]
            np.multiply(exp[:m], pow(omega, filled, p), out=chunk)
            chunk %= p
            filled += m
        return exp
    step = np.array([_coeffs(_raw_mul(p ** i, omega, p, r, modulus), p, r)
                     for i in range(r)], dtype=np.int64)     # row i: x^i * omega
    place = p ** np.arange(r, dtype=np.int64)
    block = np.zeros((1, r), dtype=np.int64)
    block[0, 0] = 1
    while len(block) < min(EXP_BLOCK, n):
        block = np.vstack([block, block @ step % p])
        step = step @ step % p
    packed = [block @ place]
    while len(packed) * len(block) < n:
        block = block @ step % p
        packed.append(block @ place)
    return np.concatenate(packed)[:n]


def build_field(p: int, r: int, *, size_limit: int = DEFAULT_SIZE_LIMIT,
                alt_generator: bool = False) -> FieldContext:
    """Construct GF(p^r) deterministically.

    The modulus is the first monic irreducible found in base-p order and the
    primitive element is the generator with the smallest element index, so
    repeated builds are identical.  ``alt_generator`` selects the next
    generator instead, which downstream determinism tests rely on.
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

    exp = _exp_table(p, r, modulus, omega)
    # -1 is the element of order 2, omega^((q-1)/2); for p = 2 it is 1
    log_neg_one = 0 if p == 2 else (q - 1) // 2
    if exp[log_neg_one] != p - 1:
        raise AssertionError(f"GF({q}): omega^{log_neg_one} is not -1")

    return FieldContext(
        p=p, r=r, q=q,
        modulus=tuple(modulus),
        primitive_index=omega,
        np_exp=exp,
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


def is_kth_power(ctx: FieldContext, a: int, k: int) -> bool:
    if a == 0:
        raise ZeroInput("0 is neither a k-th power nor a non-power here")
    if (ctx.q - 1) % k != 0:
        raise ValueError(f"k={k} does not divide q-1={ctx.q - 1}")
    return ctx.dlog(a) % k == 0


def residue_mask(ctx: FieldContext, k: int) -> np.ndarray:
    """Boolean lookup by element index of S_k, the nonzero k-th powers."""
    if (ctx.q - 1) % k != 0:
        raise ValueError(f"k={k} does not divide q-1={ctx.q - 1}")
    mask = np.zeros(ctx.q, dtype=bool)
    mask[ctx.np_exp[0::k]] = True
    return mask


def kth_power_residues(ctx: FieldContext, k: int) -> list[int]:
    """S_k as a sorted list of element indices."""
    return np.flatnonzero(residue_mask(ctx, k)).tolist()


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
    """The prime powers 2 <= q <= q_max, ascending."""
    out = []
    for p in range(2, q_max + 1):
        if is_prime(p):
            q = p
            while q <= q_max:
                out.append(q)
                q *= p
    return sorted(out)
