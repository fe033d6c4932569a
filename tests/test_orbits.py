"""X_k, the transformation group, orbits, and Burnside agreement."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from gpaley import orbits
from gpaley.errors import SizeLimit
from gpaley.orbits import (_GEN_COLUMNS, build_Xk, burnside_Nk,
                           fixed_point_closed_forms, fixed_point_count,
                           generate_group, generators, identity_map,
                           named_composites, orbit_decompose, tables_json,
                           xk_closed_form)

TABLE_X = {2: 1, 3: 12, 4: 93, 5: 424, 6: 1425}
TABLE_N = {2: 1, 3: 1, 4: 11, 5: 28, 6: 92}

# representatives and orbit sizes as listed for k = 4
K4_REPS = {(1, 1, 1, 0, 0): 6, (3, 3, 3, 0, 0): 6, (1, 3, 3, 2, 0): 4,
           (3, 1, 1, 2, 0): 4, (2, 1, 3, 0, 0): 12, (1, 3, 2, 0, 0): 6,
           (2, 3, 1, 0, 0): 12, (1, 2, 2, 0, 0): 24, (2, 2, 1, 0, 0): 6,
           (1, 1, 3, 0, 0): 12, (2, 2, 2, 0, 0): 1}


def test_x2_is_single_vector():
    assert build_Xk(2) == ((1, 1, 1, 0, 0),)


@pytest.mark.parametrize("k", sorted(TABLE_X))
def test_table_1_sizes(k):
    assert len(build_Xk(k)) == TABLE_X[k] == xk_closed_form(k)


def test_membership_conditions():
    for t in build_Xk(5):
        assert all(x not in (0, t[3], t[4]) for x in t[:3])
        assert (t[0] + t[1] + t[2]) % 5 != (t[3] + t[4]) % 5


@pytest.mark.parametrize("k", (3, 4, 5, 6, 7))
def test_group_order_24(k):
    group = generate_group(k)
    assert len(group) == 24
    named = named_composites(k)
    assert len(named) == 24
    assert {m.key() for m in group} == {m.key() for m in named.values()}


def test_group_order_k2_reported_not_assumed():
    group = generate_group(2)
    assert 1 <= len(group) <= 24
    dec = orbit_decompose(2)
    assert dec.group_order == len(group)
    # Burnside over the abstract 24-element list still gives N_2
    named = named_composites(2)
    total = sum(fixed_point_count(m, 2) for m in named.values())
    assert total == 24 * dec.n_orbits


def test_t1_is_involution():
    rng = random.Random(41)
    for k in (2, 3, 5, 8):
        t1 = generators(k)["T1"]
        for _ in range(20):
            t = tuple(rng.randrange(k) for _ in range(5))
            assert t1.apply(t1.apply(t)) == t
        assert t1.compose(t1) == identity_map(k)


def test_orbit_k3_single():
    dec = orbit_decompose(3)
    assert dec.n_orbits == 1
    assert len(dec.orbits[0]) == 12
    assert (1, 1, 2, 0, 0) in dec.orbits[0]


def test_orbit_k4_sizes_and_reps():
    dec = orbit_decompose(4)
    assert dec.n_orbits == 11
    assert sorted(len(o) for o in dec.orbits) == sorted(K4_REPS.values())
    group = generate_group(4)
    for rep, size in K4_REPS.items():
        orbit = {g.apply(rep) for g in group}
        assert len(orbit) == size


@pytest.mark.parametrize("k", sorted(TABLE_N))
def test_table_2_orbit_counts(k):
    assert orbit_decompose(k).n_orbits == TABLE_N[k]
    assert burnside_Nk(k) == TABLE_N[k]


@pytest.mark.parametrize("k", range(2, 13))
def test_burnside_closed_form_vs_enumeration(k):
    assert burnside_Nk(k) == orbit_decompose(k).n_orbits


@pytest.mark.parametrize("k", range(2, 13))
def test_burnside_sum_over_named_elements(k):
    named = named_composites(k)
    total = sum(fixed_point_count(m, k) for m in named.values())
    assert total == 24 * orbit_decompose(k).n_orbits


def test_fixed_point_examples():
    assert fixed_point_count(generators(5)["T1"], 5) == 40
    assert fixed_point_count(generators(4)["T2"], 4) == 15
    assert fixed_point_count(identity_map(6), 6) == 1425


@pytest.mark.parametrize("k", range(2, 13))
def test_fixed_point_closed_form_families(k):
    named = named_composites(k)
    for name, predicted in fixed_point_closed_forms(k).items():
        assert fixed_point_count(named[name], k) == predicted, (k, name)


def test_orbits_partition_xk():
    for k in (3, 4, 5, 6):
        dec = orbit_decompose(k)
        flat = [t for orbit in dec.orbits for t in orbit]
        assert len(flat) == len(set(flat)) == len(build_Xk(k))
        for orbit in dec.orbits:
            assert orbit[0] == min(orbit)


def test_tables_json_shape():
    data = tables_json(4)
    assert data["Xk_size"] == 93
    assert data["N_k"] == 11 == data["N_k_closed_form"]
    assert sum(o["size"] for o in data["orbit_reps_with_sizes"]) == 93


def _reference_orbits(k):
    """Orbits of X_k by breadth-first closure of each vector under the seven
    generator recipes, in plain integers mod k."""
    xk = [t for t in itertools.product(range(k), repeat=5)
          if all(x not in (0, t[3], t[4]) for x in t[:3])
          and (t[0] + t[1] + t[2] - t[3] - t[4]) % k]
    seen, out = set(), []
    for t in xk:
        if t in seen:
            continue
        orbit, frontier = {t}, [t]
        while frontier:
            images = {tuple(x % k for x in recipe(u))
                      for u in frontier for recipe in _GEN_COLUMNS.values()}
            frontier = list(images - orbit)
            orbit |= images
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return tuple(out)


@pytest.mark.parametrize("k", range(2, 9))
def test_orbits_match_generator_closure(k):
    assert orbit_decompose(k).orbits == _reference_orbits(k)


def test_generator_matrices_match_recipes():
    rng = random.Random(7)
    for k in (2, 3, 5, 8, 12, 16):
        vectors = [tuple(rng.randrange(k) for _ in range(5)) for _ in range(40)]
        block = np.array(vectors, dtype=np.int16).T
        for name, recipe in _GEN_COLUMNS.items():
            g = generators(k)[name]
            expected = [tuple(x % k for x in recipe(t)) for t in vectors]
            assert [g.apply(t) for t in vectors] == expected, (k, name)
            assert list(zip(*g.apply(block).tolist())) == expected, (k, name)


@pytest.mark.parametrize("k", (2, 3, 5, 8, 12, 16))
def test_every_group_element_maps_a_block_as_it_maps_tuples(k):
    """The int16 block kernel against the tuple path for all of the group,
    on random vectors plus the all-(k - 1) vector, whose image sums reach
    5 (k - 1)^2, the kernel's largest (1125 at k = 16, the GRID_LIMIT edge)."""
    rng = random.Random(k)
    vectors = [(k - 1,) * 5] + [tuple(rng.randrange(k) for _ in range(5))
                                for _ in range(60)]
    block = np.array(vectors, dtype=np.int16).T.copy()
    for g in generate_group(k):
        image = g.apply(block)
        assert image.dtype == np.int16 and image.shape == block.shape
        assert list(zip(*image.tolist())) == [g.apply(t) for t in vectors], (k, g.name)


def test_xk_block_is_c_contiguous_int16():
    for k in (2, 7, 12):
        block = orbits._xk_block(k)
        assert block.dtype == np.int16 and block.flags.c_contiguous
        assert not block.flags.writeable


def _decomposition_digest(k):
    dec = orbit_decompose(k)
    h = hashlib.sha256()
    h.update(dec.order.astype("<i8").tobytes())
    h.update(dec.bounds.astype("<i8").tobytes())
    fixed = [dec.fixed_points[m.key()] for m in named_composites(k).values()]
    h.update(repr(fixed).encode())
    return h.hexdigest()


# sha256 of orbit_decompose(k)'s order and bounds (as little-endian int64)
# and the fixed-point counts of the named elements in named_composites'
# order, recorded from the ravel_multi_index decomposition; the
# generator-closure reference above stops at k = 8
DECOMPOSITION_DIGESTS = {
    9: "023d9640ab65626c6ecece14383cfd7ebfb246a0783765cab3ea34cd2507849a",
    10: "7dc4adc6b3166fb63fc319c2435c642db52241c298c3c3d8c0498bb63e19b988",
    11: "a8907a38cf3c9478ca03a9017274ac530e9568d426569a0045addd11ce93bd5a",
    12: "19365cf97757bc90ebcf04274b89a2f6c5bf5eaacb410fdbd0dcb5095b807f0b",
}


@pytest.mark.parametrize("k", sorted(DECOMPOSITION_DIGESTS))
def test_decomposition_matches_the_recorded_digest(k):
    assert _decomposition_digest(k) == DECOMPOSITION_DIGESTS[k]


@pytest.mark.parametrize("k", (0, 1, -3))
def test_k_below_two_is_rejected(k):
    for fn in (build_Xk, generate_group, identity_map, named_composites,
               orbit_decompose, tables_json):
        with pytest.raises(ValueError):
            fn(k)


def test_maps_of_another_modulus_are_rejected():
    t1 = generators(5)["T1"]
    assert fixed_point_count(generators(7)["T1"], 7) == 156
    with pytest.raises(ValueError):
        fixed_point_count(t1, 7)
    with pytest.raises(ValueError):
        t1.compose(identity_map(7))


def test_fixed_point_count_rejects_a_map_outside_the_group():
    matrix = np.eye(5, dtype=np.int64)
    matrix[0, 1] = 1                       # t1 -> t1 + t2 moves X_5 off itself
    stray = orbits.AffineMap(5, "stray", matrix)
    assert stray not in generate_group(5)
    with pytest.raises(ValueError):
        fixed_point_count(stray, 5)


@pytest.mark.parametrize("k", range(2, 13))
def test_stored_fixed_points_match_direct_count(k):
    block = orbits._xk_block(k)
    for m in generate_group(k):
        direct = int((m.apply(block) == block).all(axis=0).sum())
        assert fixed_point_count(m, k) == direct, (k, m.name)


def test_enumeration_grid_is_capped():
    assert 16 ** 5 <= orbits.GRID_LIMIT < 17 ** 5
    for fn in (build_Xk, orbit_decompose,
               lambda k: fixed_point_count(identity_map(k), k)):
        with pytest.raises(SizeLimit):
            fn(17)


ORBIT_PEAK_BUDGET_MB = 64


def test_orbit_layer_memory_budget():
    for cached in (orbits._xk_block, build_Xk, generators, generate_group,
                   named_composites, orbit_decompose):
        cached.cache_clear()
    tracemalloc.start()
    try:
        dec = orbit_decompose(12)
        counts = [fixed_point_count(m, 12) for m in named_composites(12).values()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 24 * dec.n_orbits
    assert peak < ORBIT_PEAK_BUDGET_MB * 2 ** 20
