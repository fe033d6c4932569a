"""Shared test utilities: the package's field cache, Paley pair list and
table-free references for field addition and multiplication."""

from gpaley.verify import field_for as get_field, valid_pairs as paley_pairs

__all__ = ["digit_add", "get_field", "paley_pairs", "raw_mul"]


def digit_add(ctx, a, b, sign=1):
    """Reference a + sign*b: coefficient-wise over the base-p digits.  a and
    b may be ints or integer arrays broadcast against each other."""
    out, place = 0, 1
    for _ in range(ctx.r):
        out += ((a % ctx.p + sign * (b % ctx.p)) % ctx.p) * place
        a, b, place = a // ctx.p, b // ctx.p, place * ctx.p
    return out


def raw_mul(a, b, p, r, modulus):
    """Reference a*b in GF(p^r) on packed indices, with no table: the
    schoolbook product of the two digit polynomials, reduced mod the monic
    modulus (coefficients low degree first) from the top coefficient down."""
    if r == 1:
        return a * b % p
    da = [a // p ** i % p for i in range(r)]
    db = [b // p ** i % p for i in range(r)]
    prod = [0] * (2 * r - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    for top in range(2 * r - 2, r - 1, -1):     # x^top = x^(top-r) (x^r - modulus)
        c = prod[top] % p
        for j in range(r + 1):
            prod[top - r + j] -= c * modulus[j]
    return sum(prod[i] % p * p ** i for i in range(r))
