"""Multiplicative character values, orders, and orthogonality."""

import pickle

import pytest

from gpaley.characters import MultChar, canonical_char, trivial_char
from gpaley.cyclotomic import CycInt, zeta_pow
from gpaley.errors import OrderNotDividing
from gpaley.finite_field import build_field, residue_mask
from gpaley.jacobi import cyclotomic_numbers
from helpers import get_field, paley_pairs


def test_legendre_character_13():
    ctx = get_field(13)
    chi = canonical_char(ctx, 2)
    assert chi.m == 6
    squares = {a * a % 13 for a in range(1, 13)}
    for a in range(1, 13):
        expect = 1 if a in squares else -1
        assert chi.eval(a).as_integer() == expect


def test_trivial_character():
    ctx = get_field(13)
    eps = canonical_char(ctx, 1)
    assert eps.m == 0 and eps.is_trivial
    assert eps.eval(0).is_zero()
    for a in range(1, 13):
        assert eps.eval(a).as_integer() == 1
    assert trivial_char(ctx).m == 0


def test_canonical_char_16():
    chi = canonical_char(get_field(16), 3)
    assert chi.m == 5
    assert chi.order == 3


def test_order_not_dividing():
    with pytest.raises(OrderNotDividing):
        canonical_char(get_field(13), 5)


@pytest.mark.parametrize("k", [0, -3])
def test_order_below_one_is_rejected(k):
    with pytest.raises(ValueError):
        canonical_char(get_field(13), k)
    with pytest.raises(ValueError):
        cyclotomic_numbers(get_field(13), k)


def test_char_at_one_and_minus_one():
    for k, q in paley_pairs(100):
        chi = canonical_char(get_field(q), k)
        assert chi.eval(1).as_integer() == 1
        assert chi.eval(get_field(q).from_int(-1)).as_integer() == 1


@pytest.mark.parametrize("q", [13, 16, 25, 27, 64])
def test_sign_at_minus_one_is_the_value_at_minus_one(q):
    ctx = get_field(q)
    for m in range(q - 1):
        chi = MultChar(ctx, m)
        assert chi.sign_at_minus_one() == chi.eval(ctx.from_int(-1)).as_integer(), m


def test_char_of_omega_is_primitive_root_of_unity():
    for q in (13, 16, 41):
        ctx = get_field(q)
        for k in (d for d in range(2, 9) if (q - 1) % d == 0):
            chi = canonical_char(ctx, k)
            assert chi.eval(ctx.primitive_index) == zeta_pow(k, 1)


def test_power_compatibility():
    for q in (13, 17, 25):
        ctx = get_field(q)
        chi = canonical_char(ctx, (q - 1))
        for s in (2, 3, 5):
            for a in range(1, q):
                lhs = (chi ** s).eval(a, conductor=q - 1)
                rhs = chi.eval(a, conductor=q - 1)
                prod = CycInt.one(q - 1)
                for _ in range(s):
                    prod = prod * rhs
                assert lhs == prod


def test_character_sum_over_field():
    for q in (13, 16, 17, 25):
        ctx = get_field(q)
        for m in range(q - 1):
            chi = MultChar(ctx, m)
            total = CycInt.zero(q - 1)
            for a in range(q):
                total = total + chi.eval(a, conductor=q - 1)
            expect = q - 1 if chi.is_trivial else 0
            assert total == CycInt.integer(q - 1, expect)


def kth_power_indicator(ctx, k, b):
    """(1/k) sum_t chi_k^t(b), which is 1 when b is a k-th power, else 0."""
    chi = canonical_char(ctx, k)
    total = sum(((chi ** t).eval(b, conductor=k) for t in range(k)),
                CycInt.zero(k)).as_integer()
    assert total % k == 0
    return total // k


def test_orthogonality_examples():
    ctx = get_field(13)
    mask = residue_mask(ctx, 2)
    for b, expect in ((3, 1), (2, 0), (1, 1)):
        assert kth_power_indicator(ctx, 2, b) == mask[b] == expect


def test_orthogonality_matches_kth_power_query():
    for q in range(3, 201):
        try:
            ctx = get_field(q)
        except ValueError:
            continue
        divisors = [k for k in range(1, 13) if (q - 1) % k == 0]
        if q <= 50:
            divisors = [k for k in range(1, q) if (q - 1) % k == 0]
        for k in divisors:
            mask = residue_mask(ctx, k)
            for b in range(1, q):
                assert kth_power_indicator(ctx, k, b) == mask[b], (q, k, b)


def test_equal_exponents_mod_q_minus_one_are_equal_characters():
    ctx = get_field(13)
    for m in (0, 1, 5, 11):
        a, b = MultChar(ctx, m), MultChar(ctx, m + 12)
        assert a == b and hash(a) == hash(b) and b.m == m
        assert MultChar(ctx, m - 12) == a
    assert MultChar(ctx, -1).m == 11
    assert MultChar(ctx, 1) != MultChar(ctx, 2)
    assert MultChar(ctx, 1) != 1
    assert len({MultChar(ctx, m) for m in range(36)}) == 12


def test_characters_over_different_fields_are_unequal_and_do_not_multiply():
    ctx13 = get_field(13)
    for other in (get_field(17), build_field(13, 1)):    # a second GF(13) too
        assert other is not ctx13
        assert MultChar(ctx13, 1) != MultChar(other, 1)
        with pytest.raises(ValueError, match="different fields"):
            MultChar(ctx13, 1) * MultChar(other, 1)


def test_characters_are_immutable():
    chi = MultChar(get_field(13), 1)
    for name, value in (("m", 2), ("ctx", get_field(17)), ("order", 3)):
        with pytest.raises(AttributeError):
            setattr(chi, name, value)
    with pytest.raises(AttributeError):
        del chi.m
    assert chi.m == 1 and chi.ctx is get_field(13)


def test_characters_pickle_with_their_field():
    ctx = get_field(13)
    chi = canonical_char(ctx, 4)
    ctx2, chi2, psi2 = pickle.loads(pickle.dumps((ctx, chi, chi ** 3)))
    assert chi2.ctx is ctx2 and psi2.ctx is ctx2
    assert (chi2.m, psi2.m) == (chi.m, (chi ** 3).m)
    assert chi2 * psi2 == MultChar(ctx2, 0)
    assert [chi2.eval(a) for a in range(13)] == [chi.eval(a) for a in range(13)]


def test_repr_names_the_field_and_exponent():
    ctx = get_field(13)
    assert repr(MultChar(ctx, 15)) == f"MultChar(ctx={ctx!r}, m=3)"
