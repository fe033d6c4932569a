"""Shared test utilities: the package's field cache, Paley pair list and a
table-free reference for field addition."""

from gpaley.verify import field_for as get_field, valid_pairs as paley_pairs

__all__ = ["digit_add", "get_field", "paley_pairs"]


def digit_add(ctx, a, b, sign=1):
    """Reference a + sign*b: coefficient-wise over the base-p digits.  a and
    b may be ints or integer arrays broadcast against each other."""
    out, place = 0, 1
    for _ in range(ctx.r):
        out += ((a % ctx.p + sign * (b % ctx.p)) % ctx.p) * place
        a, b, place = a // ctx.p, b // ctx.p, place * ctx.p
    return out
