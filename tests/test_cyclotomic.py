"""Exactness and ring laws of the cyclotomic integer arithmetic."""

import random

import pytest

from gpaley.cyclotomic import CycInt, cyclotomic_polynomial, zeta_pow
from gpaley.errors import ConductorMismatch, NotRational

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("k,coeffs", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomials(k, coeffs):
    assert cyclotomic_polynomial(k) == coeffs


def test_cyclotomic_polynomials_multiply_to_x_k_minus_1():
    # prod over d | k of Phi_d = x^k - 1, multiplied out term by term
    for k in range(1, 401):
        acc = [1]
        for d in range(1, k + 1):
            if k % d == 0:
                phi_d = [(j, c) for j, c in enumerate(cyclotomic_polynomial(d)) if c]
                out = [0] * (len(acc) + len(cyclotomic_polynomial(d)) - 1)
                for i, a in enumerate(acc):
                    if a:
                        for j, c in phi_d:
                            out[i + j] += a * c
                acc = out
        assert acc == [-1] + [0] * (k - 1) + [1], k


def test_zeta_pow_basics():
    assert zeta_pow(4, 2) == CycInt.integer(4, -1)
    assert zeta_pow(3, 3) == CycInt.one(3)
    assert zeta_pow(3, 2).coeffs == (-1, -1)      # zeta^2 = -1 - zeta


def test_zeta_multiplication_table():
    rng = random.Random(4)
    for k in (3, 4, 5, 6, 8, 12, 24):
        for _ in range(30):
            e1, e2 = rng.randrange(3 * k), rng.randrange(3 * k)
            assert zeta_pow(k, e1) * zeta_pow(k, e2) == zeta_pow(k, e1 + e2)


def test_ring_axioms_random():
    rng = random.Random(11)
    for k in (3, 4, 8, 12):
        phi = len(cyclotomic_polynomial(k)) - 1
        rand = lambda: CycInt(k, [rng.randrange(-9, 10) for _ in range(phi)])
        for _ in range(25):
            a, b, c = rand(), rand(), rand()
            assert a + (-a) == CycInt.zero(k)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_conjugation():
    assert zeta_pow(3, 1).conj() == zeta_pow(3, 2)
    assert zeta_pow(4, 1) * zeta_pow(4, 1) == CycInt.integer(4, -1)
    rng = random.Random(7)
    for k in (5, 8, 12):
        for _ in range(20):
            e = rng.randrange(k)
            assert zeta_pow(k, e).conj() == zeta_pow(k, -e)
            a = CycInt(k, [rng.randrange(-5, 6)
                           for _ in range(len(cyclotomic_polynomial(k)) - 1)])
            assert a.conj().conj() == a
            assert (a * a.conj()).conj() == a * a.conj()


def test_norm_embedding_nonnegative():
    rng = random.Random(13)
    for k in (3, 4, 8):
        phi = len(cyclotomic_polynomial(k)) - 1
        for _ in range(40):
            a = CycInt(k, [rng.randrange(-20, 21) for _ in range(phi)])
            z = a.complex_value()
            norm = (a * a.conj()).complex_value()
            assert abs(norm.imag) < 1e-6 * max(1.0, abs(norm))
            assert norm.real >= -1e-6
            assert abs(norm.real - abs(z) ** 2) <= 1e-6 * max(1.0, abs(z) ** 2)


def test_as_integer():
    assert CycInt.integer(8, 7).as_integer() == 7
    with pytest.raises(NotRational):
        zeta_pow(4, 1).as_integer()


def test_conductor_mismatch():
    with pytest.raises(ConductorMismatch):
        zeta_pow(3, 1) + zeta_pow(4, 1)
    with pytest.raises(ConductorMismatch):
        zeta_pow(8, 1).to_conductor(12)


def test_lift_to_larger_conductor():
    assert zeta_pow(3, 1).to_conductor(6) == zeta_pow(6, 2)
    assert zeta_pow(4, 1).to_conductor(8) == zeta_pow(8, 2)
    rng = random.Random(17)
    for small, big in ((3, 6), (4, 8), (4, 12), (6, 12)):
        phi = len(cyclotomic_polynomial(small)) - 1
        for _ in range(15):
            a = CycInt(small, [rng.randrange(-8, 9) for _ in range(phi)])
            b = CycInt(small, [rng.randrange(-8, 9) for _ in range(phi)])
            assert (a * b).to_conductor(big) == a.to_conductor(big) * b.to_conductor(big)
            assert (a + b).to_conductor(big) == a.to_conductor(big) + b.to_conductor(big)


def test_the_constructor_rejects_a_wrong_coefficient_count():
    for k, n in ((4, 1), (4, 3), (5, 5), (12, 3), (1, 0)):
        with pytest.raises(ValueError, match="coefficients"):
            CycInt(k, [1] * n)
    assert CycInt(12, [1, 0, 2, 0]).coeffs == (1, 0, 2, 0)


def test_from_zeta_counts():
    counts = [5, 0, 2, 1]
    expected = (CycInt.integer(4, 5) + 2 * zeta_pow(4, 2) + zeta_pow(4, 3))
    assert CycInt.from_zeta_counts(4, counts) == expected


def dense_zeta_rows(k):
    """Reference: zeta^0 .. zeta^(k-1) as full power-basis rows, zeros
    included, each the previous row times zeta reduced by all of Phi_k."""
    mod = cyclotomic_polynomial(k)
    rows, cur = [], [1] + [0] * (len(mod) - 2)
    for _ in range(k):
        rows.append(cur)
        nxt = [0] + cur
        lead = nxt.pop()
        cur = [a - lead * b for a, b in zip(nxt, mod)]
    return rows


def dense_from_zeta_counts(rows, counts):
    """Reference: every entry of each row, zeros included."""
    k, phi = len(rows), len(rows[0])
    acc = [0] * phi
    for e, c in enumerate(counts):
        for j in range(phi):
            acc[j] += c * rows[e % k][j]
    return tuple(acc)


def dense_mul(rows, a, b):
    """Reference product: the schoolbook polynomial product, folded by rows."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return dense_from_zeta_counts(rows, prod)


def test_from_zeta_counts_matches_the_dense_loop():
    rng = random.Random(23)
    for k in [*range(1, 121), 360, 864]:
        rows = dense_zeta_rows(k)
        phi = len(rows[0])
        for _ in range(3):
            # some zero counts, some past 2^63, and a second lap past k
            counts = [rng.choice((0, rng.randrange(-9, 10),
                                  rng.randrange(-2 ** 80, 2 ** 80)))
                      for _ in range(k + rng.randrange(2))]
            got = CycInt.from_zeta_counts(k, counts).coeffs
            assert got == dense_from_zeta_counts(rows, counts), k
            a, b = ([rng.choice((0, rng.randrange(-2 ** 40, 2 ** 40)))
                     for _ in range(phi)] for _ in range(2))
            assert (CycInt(k, a) * CycInt(k, b)).coeffs == dense_mul(rows, a, b), k
        for e in range(-k, 2 * k):
            assert zeta_pow(k, e).coeffs == tuple(rows[e % k]), (k, e)


def test_hash_agrees_with_equality():
    assert CycInt.integer(4, 5) == 5
    assert len({CycInt.integer(4, 5), 5}) == 1
    assert hash(CycInt.zero(12)) == hash(0)
    a = zeta_pow(12, 5) + 3
    for b in (zeta_pow(12, 2) * zeta_pow(12, 3) + 3,
              zeta_pow(12, 7).conj() + 3,
              CycInt.from_zeta_counts(12, [3, 0, 0, 0, 0, 1])):
        assert a == b and hash(a) == hash(b)
    assert len({a, zeta_pow(12, 5) + 3, 3}) == 2


def test_rational_equality_is_transitive_across_conductors():
    assert CycInt.integer(4, 5) == CycInt.integer(3, 5) == 5
    assert len({CycInt.integer(4, 5), CycInt.integer(3, 5), 5}) == 1
    assert len({5, CycInt.integer(3, 5), CycInt.integer(4, 5)}) == 1
    assert CycInt.integer(4, 5) != CycInt.integer(3, 6)
    # an irrational value still needs its own conductor
    assert zeta_pow(4, 1) != zeta_pow(8, 2) and zeta_pow(4, 1) != 0
    assert zeta_pow(4, 1) != CycInt.integer(3, 0)


def test_json_round_shape():
    a = zeta_pow(8, 3)
    assert a.to_json() == {"k": 8, "coeffs": [0, 0, 0, 1]}
