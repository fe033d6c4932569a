"""Graph construction, the clique-count routes, and the subgraph laws."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gpaley import hypergeometric, paley_graph, verify
from gpaley.errors import InvalidCongruence, NonIntegerResult, SizeLimit
from gpaley.finite_field import build_field, split_prime_power
from gpaley.jacobi import EISENSTEIN, solve_quadform
from gpaley.paley_graph import (CliqueCountResult, K3_closed, K3_corollary,
                                K4_corollary, K4_subgraph_method, K4_thm1,
                                K4_thm2, _difference_table, _edge_count,
                                _exact_div, adjacency_rows,
                                brute_force_K, build_graph, clique_count,
                                count_cliques, h1_edge_count, h1_vertices,
                                h_edge_count, pack_words, routes_for,
                                row_popcounts, subgraph_masks, unpack_words)
from gpaley.ramsey_search import admissible_q
from gpaley.verify import (check_clique_recursions, check_strong_regularity,
                           check_subgraph_props)
from helpers import digit_add, get_field, paley_pairs


def test_h_vertices_q13():
    g = build_graph(get_field(13), 2)
    verts = list(g.S)
    assert verts == [1, 3, 4, 9, 10, 12]
    assert len(verts) == (13 - 1) // 2
    deg = row_popcounts(subgraph_masks(g, verts))
    assert len(set(deg.tolist())) == 1   # H is regular


def test_h1_vertices_q13():
    g = build_graph(get_field(13), 2)
    assert h1_vertices(g) == [4, 10]
    edges = int(row_popcounts(subgraph_masks(g, h1_vertices(g))).sum()) // 2
    assert edges == (1 if g.in_S[g.ctx.sub(10, 4)] else 0)


def test_edge_count_G17():
    g = build_graph(get_field(17), 2)
    rows = adjacency_rows(g)
    edges = int(row_popcounts(rows).sum()) // 2
    assert edges == 17 * 16 // 4 == 68


def test_degree_regular():
    for k, q in paley_pairs(100):
        g = build_graph(get_field(q), k)
        rows = adjacency_rows(g)
        assert all(row_popcounts(rows) == (q - 1) // k)
        assert not unpack_words(rows, q).diagonal().any()


def test_invalid_congruence_propagates():
    with pytest.raises(InvalidCongruence):
        build_graph(get_field(13), 4)


def test_naive_counts_known_values():
    assert brute_force_K(build_graph(get_field(17), 2), 4).count == 0
    assert brute_force_K(build_graph(get_field(13), 2), 3).count == 26
    assert 13 * 12 * 8 // 48 == 26
    assert brute_force_K(build_graph(get_field(29), 2), 4).count == 203
    assert 29 * 28 * (400 - 16) // 1536 == 203


def test_naive_cap():
    with pytest.raises(SizeLimit):
        brute_force_K(build_graph(get_field(1009), 2), 4)
    g = build_graph(get_field(29), 2)
    assert brute_force_K(g, 4).count == 203
    with pytest.raises(SizeLimit):                # a cached count still obeys the cap
        brute_force_K(g, 4, cap=17)


def test_count_cliques_complete_graph():
    n = 7
    rows = pack_words(~np.eye(n, dtype=bool))
    assert count_cliques(rows, 2) == 21
    assert count_cliques(rows, 3) == 35
    assert count_cliques(rows, 4) == 35
    for n in (64, 65):                           # one word, and one bit past it
        rows = pack_words(~np.eye(n, dtype=bool))
        assert [count_cliques(rows, m) for m in (1, 2, 3, 4)] == [
            math.comb(n, m) for m in (1, 2, 3, 4)], n


def _random_symmetric_graph(n, density):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < density, 1)
    return upper | upper.T


def _reference_cliques(adj, m):
    """K_m by itertools.combinations of each vertex's higher neighbours."""
    n = len(adj)
    if m == 1:
        return n
    adj = adj.tolist()
    above = [[u for u in range(v + 1, n) if adj[v][u]] for v in range(n)]
    return sum(all(adj[a][b] for a, b in itertools.combinations(c, 2))
               for v in range(n) for c in itertools.combinations(above[v], m - 1))


# n below, at and past multiples of the 64-bit word of the oracle
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200])
def test_count_cliques_at_word_boundaries(n):
    adj = _random_symmetric_graph(n, 0.2)
    rows = pack_words(adj)
    assert rows.shape == (n, -(-n // 64))
    for m in (1, 2, 3, 4):
        assert count_cliques(rows, m) == _reference_cliques(adj, m), (n, m)


def test_count_cliques_empty_graph():
    rows = pack_words(np.zeros((0, 0), dtype=bool))
    assert [count_cliques(rows, m) for m in (1, 2, 3, 4)] == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        count_cliques(rows, 5)


def test_count_cliques_byte_lookup_popcount(monkeypatch):
    # the path taken on numpy < 2.0, which has no np.bitwise_count
    monkeypatch.setattr(paley_graph, "_bitwise_count",
                        paley_graph._byte_lookup_count)
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    adj = _random_symmetric_graph(129, 0.2)
    rows = pack_words(adj)
    for m in (2, 3, 4):
        assert count_cliques(rows, m) == _reference_cliques(adj, m), m
    rows = pack_words(~np.eye(65, dtype=bool))  # full bytes, rare at random
    assert [count_cliques(rows, m) for m in (2, 3, 4)] == [
        math.comb(65, m) for m in (2, 3, 4)]
    g = build_graph(build_field(29, 1), 2)       # a fresh field: no cached count
    assert [brute_force_K(g, m).count for m in (3, 4)] == [406, 203]


NAIVE_PEAK_BUDGET_MB = 8


def test_count_cliques_memory_is_blocked():
    # dense rows at q = 997: gathering up[u] for all 248k edges at once
    # would take about 30 MiB
    rows = adjacency_rows(build_graph(get_field(997), 2))
    tracemalloc.start()
    try:
        count = count_cliques(rows, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 997 * 996 * (997 - 5) // 48
    assert peak < NAIVE_PEAK_BUDGET_MB * 2 ** 20


def test_subgraph_method_matches_naive():
    for k, q in paley_pairs(250):
        g = build_graph(get_field(q), k)
        assert K4_subgraph_method(g).count == brute_force_K(g, 4).count


def test_subgraph_method_paper_zeros():
    assert K4_subgraph_method(build_graph(get_field(127), 3)).count == 0
    assert K4_subgraph_method(build_graph(get_field(457), 4)).count == 0
    assert K4_subgraph_method(build_graph(get_field(29), 2)).count == 203


def test_k3_closed_and_zeros():
    assert K3_closed(get_field(5), 2).count == 0
    assert K3_closed(get_field(16), 3).count == 0
    assert K3_closed(get_field(41), 4).count == 0
    assert K3_closed(get_field(13), 2).count == 26


def test_k3_g3_13_vanishes():
    ctx = get_field(13)
    assert solve_quadform(EISENSTEIN, ctx).a == -5
    assert K3_corollary(ctx, 3).count == 0
    assert brute_force_K(build_graph(ctx, 3), 3).count == 0


def test_k3_routes_agree():
    for k, q in paley_pairs(200):
        ctx = get_field(q)
        expect = K3_closed(ctx, k).count
        assert brute_force_K(build_graph(ctx, k), 3).count == expect
        if k in (2, 3, 4):
            assert K3_corollary(ctx, k).count == expect


def test_k4_thm1_examples():
    assert K4_thm1(get_field(17), 2).count == 0
    ctx25 = get_field(25)
    assert K4_thm1(ctx25, 2).count == brute_force_K(build_graph(ctx25, 2), 4).count
    ctx13 = get_field(13)
    assert K4_thm1(ctx13, 3).count == brute_force_K(build_graph(ctx13, 3), 4).count


def test_k4_thm1_past_the_grid_range():
    ctx = get_field(137)
    count = K4_thm1(ctx, 2).count
    assert count == K4_thm2(ctx, 2).count == 197965
    assert count == K4_subgraph_method(build_graph(ctx, 2)).count
    with pytest.raises(SizeLimit):                 # 9^5 histogram bins
        K4_thm1(get_field(19), 9)


def test_k4_thm2_paper_cases():
    assert K4_thm2(get_field(127), 3).count == 0
    assert K4_thm2(get_field(457), 4).count == 0


def test_k4_thm2_matches_thm1_at_k5():
    ctx = get_field(61)
    thm1 = K4_thm1(ctx, 5).count
    assert K4_thm2(ctx, 5).count == thm1
    assert brute_force_K(build_graph(ctx, 5), 4).count == thm1


def test_k4_corollary_values():
    ctx17 = get_field(17)
    assert K4_corollary(ctx17, 2).count == 0
    assert K4_corollary(get_field(127), 3).count == 0
    assert K4_corollary(get_field(457), 4).count == 0
    assert K4_corollary(get_field(29), 2).count == 203


def test_exact_division_guard():
    with pytest.raises(NonIntegerResult):
        _exact_div(7, 3, "guard")
    assert _exact_div(12, 3, "guard") == 4


def test_clique_count_dispatch():
    ctx = get_field(17)
    for method in ("auto", "naive", "subgraph", "thm2", "corollary", "thm1"):
        assert clique_count(ctx, 2, 4, method=method).count == 0
    for method in ("auto", "thm", "naive", "corollary", "subgraph"):
        assert clique_count(ctx, 2, 3, method=method).count == 17 * 16 * 12 // 48
    res = clique_count(ctx, 2, 4)
    assert isinstance(res, CliqueCountResult)
    assert res.to_json()["count"] == "0"
    with pytest.raises(ValueError):
        clique_count(ctx, 2, 4, method="thm")
    with pytest.raises(ValueError):
        clique_count(ctx, 2, 5)


@pytest.mark.parametrize("k", range(2, 10))
def test_routes_for_limits(k):
    thm1 = ["thm1"] if k <= 8 else []
    corollary = ["corollary"] if k <= 4 else []
    assert routes_for(k, 4, 300) == ["subgraph", "thm2", *thm1, *corollary, "naive"]
    assert routes_for(k, 4, 301) == ["subgraph", "thm2", *thm1, *corollary]
    assert routes_for(k, 3, 1000) == ["thm", "subgraph", *corollary, "naive"]
    assert routes_for(k, 3, 1001) == ["thm", "subgraph", *corollary]


def test_subgraph_props_grid():
    res = check_subgraph_props(q_limit=61)
    assert res.passed, res.detail


def test_clique_recursions_full_grid():
    res = check_clique_recursions(q_limit=200, ks=(2, 3, 4))
    assert res.passed, res.detail


def test_strong_regularity():
    res = check_strong_regularity(q_limit=101)
    assert res.passed, res.detail


def test_strong_regularity_catches_a_degree_preserving_switch(monkeypatch):
    # swap edges ab, cd for ac, bd: every degree stays (q-1)/2, but the
    # common-neighbour counts of G_2(13) no longer take just two values
    def switched(g):
        adj = unpack_words(adjacency_rows(g), g.q)
        if g.q == 13:
            a, b, c, d = next(
                (a, b, c, d)
                for a, b, c, d in itertools.permutations(range(g.q), 4)
                if adj[a, b] and adj[c, d] and not adj[a, c] and not adj[b, d])
            adj[[a, b, c, d], [b, a, d, c]] = False
            adj[[a, c, b, d], [c, a, d, b]] = True
        assert (adj.sum(axis=1) == (g.q - 1) // 2).all()
        return pack_words(adj)

    monkeypatch.setattr(verify, "adjacency_rows", switched)
    res = check_strong_regularity(q_limit=13)
    assert not res.passed and "[13]" in res.detail, res.detail


# the H1 kernel holds at most 2^20 pair cells (about 5 MiB) per row block
K4_SUBGRAPH_PEAK_BUDGET_MB = 16


def test_K4_subgraph_memory_is_blocked():
    g = build_graph(get_field(6561), 2)          # GF(3^8)
    tracemalloc.start()
    try:
        count = K4_subgraph_method(g).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1202902531740
    assert peak < K4_SUBGRAPH_PEAK_BUDGET_MB * 2 ** 20


def test_K4_gf3_10_k2():
    # the seed's dense sub_outer asked for 16.2 GiB here
    assert clique_count(get_field(59049), 2, 4).count == 7912600177561200


def assert_edge_counts_match_scalar_enumeration(g):
    for verts, count in ((list(g.S), h_edge_count(g)),
                         (h1_vertices(g), h1_edge_count(g))):
        edges = sum(g.in_S[g.ctx.sub(a, b)]
                    for i, a in enumerate(verts) for b in verts[i + 1:])
        assert type(count) is int and count == edges, (g.k, g.q)


def test_h_and_h1_edge_counts_match_scalar_enumeration():
    for k, q in paley_pairs(61):
        assert_edge_counts_match_scalar_enumeration(build_graph(get_field(q), k))


# |S| = (q-1)/k below, at and past multiples of the 64-bit word of the kernel
@pytest.mark.parametrize("k, q", [
    (4, 257), (3, 193),                          # |S| = 64
    (2, 257), (5, 641),                          # |S| = 128
    (2, 149), (2, 169),                          # |S| = 74, 84
    (2, 81), (4, 81), (5, 81),                   # GF(3^4)
    (3, 256), (5, 256), (15, 256), (17, 256),    # GF(2^8)
])
def test_edge_counts_at_word_boundaries(k, q):
    assert_edge_counts_match_scalar_enumeration(build_graph(get_field(q), k))


def assert_edge_kernel_matches_pair_loop_on_random_table(n):
    rng = np.random.default_rng(n)
    half = rng.integers(0, 2, n).astype(bool)
    table = half | half[-np.arange(n)]          # T[t] = T[-t]
    table[0] = False
    t = np.flatnonzero(rng.integers(0, 3, n))   # about two thirds of [0, n)
    expect = sum(bool(table[b - a]) for i, a in enumerate(t) for b in t[i + 1:])
    assert _edge_count(table, t) == expect


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 200])
def test_edge_kernel_matches_pair_loop_on_random_tables(n):
    assert_edge_kernel_matches_pair_loop_on_random_table(n)


@pytest.mark.parametrize("n", [1, 64, 65, 200])
def test_edge_kernel_byte_lookup_popcount(n, monkeypatch):
    # the path taken on numpy < 2.0, which has no np.bitwise_count
    monkeypatch.setattr(paley_graph, "_bitwise_count",
                        paley_graph._byte_lookup_count)
    assert_edge_kernel_matches_pair_loop_on_random_table(n)
    assert_edge_counts_match_scalar_enumeration(build_graph(get_field(81), 4))


def test_subgraph_count_leaves_the_list_tables_unbuilt():
    unbuilt = ("exp_table", "log_table", "one_minus_table", "np_log",
               "log_one_minus")
    for p, r, k in ((457, 1, 4), (3457, 1, 6), (3, 4, 4), (2, 6, 3)):
        ctx = build_field(p, r)
        count = clique_count(ctx, k, 4).count
        assert not any(name in vars(ctx) for name in unbuilt), (p, r, k)
        assert "S" not in vars(build_graph(ctx, k))
        ctx.add(1, 1)                            # a scalar op builds them
        assert [getattr(ctx, name) for name in unbuilt[:3]] == [
            ctx.np_exp.tolist(), ctx.np_log.tolist(), ctx.log_one_minus.tolist()]
        # the subgraph count reads neither the log nor the difference table
        shuffled = build_field(p, r)
        rng = np.random.default_rng(ctx.q)
        shuffled.__dict__["np_log"] = rng.permutation(ctx.np_log)
        shuffled.__dict__["log_one_minus"] = rng.permutation(ctx.log_one_minus)
        assert not np.array_equal(shuffled.np_log, ctx.np_log), (p, r, k)
        assert clique_count(shuffled, k, 4).count == count, (p, r, k)


def test_graph_routes_build_one_graph_per_field_and_k(monkeypatch):
    calls = []
    original = paley_graph.build_graph

    def counting(ctx, k):
        calls.append((ctx.q, k))
        return original(ctx, k)

    monkeypatch.setattr(paley_graph, "build_graph", counting)
    monkeypatch.setattr(verify, "_FIELDS", {})       # fresh fields, no cached graph
    res = verify.check_cross_method_equality()
    assert res.passed, res.detail
    pairs = verify.valid_pairs(200, (2, 3, 4, 5))
    assert len(pairs) == 83
    assert sorted(calls) == sorted((q, k) for k, q in pairs)


def test_difference_table_matches_the_log_sub_form():
    # 27 and 243 are admissible only for k = 13 and k = 11, 121
    pairs = [(k, q) for k in range(2, 9) for q in admissible_q(k, 1000)]
    pairs += [(13, 27), (11, 243), (121, 243)]
    for q in (16, 64, 256, 27, 81, 243, 729, 25, 49, 121, 343):
        assert any(pq == q for _, pq in pairs), q
    for k, q in pairs:
        g = build_graph(get_field(q), k)
        x = digit_add(g.ctx, g.ctx.np_exp[::k], 1, -1)     # omega^(kt) - 1
        expect = (x != 0) & (g.ctx.np_log[x] % k == 0)
        assert np.array_equal(_difference_table(g), expect), (k, q)


def test_graph_routes_share_no_pass_with_the_hypergeometric_routes(monkeypatch):
    """The naive oracle and the subgraph count read no part of the O(q^2)
    character-sum pass behind thm1, thm2 and the k = 3, 4 corollaries: with
    that pass made to raise, they still count K3 and K4 on fresh fields."""
    def broken(*args):
        raise RuntimeError("shared character-sum pass called")

    def fresh(q):
        return build_field(*split_prime_power(q))

    cases = [(2, 13), (2, 25), (3, 16), (3, 31), (4, 41), (5, 41)]
    monkeypatch.setattr(hypergeometric, "_window_bincount", broken)
    counts = {(k, q, m, method): clique_count(fresh(q), k, m, method).count
              for k, q in cases for m in (3, 4) for method in ("naive", "subgraph")}
    with pytest.raises(RuntimeError, match="shared character-sum pass"):
        clique_count(fresh(13), 2, 4, "thm1")
    monkeypatch.undo()
    for k, q in cases:
        for m, exact in ((3, "thm"), (4, "thm1")):
            want = clique_count(fresh(q), k, m, exact).count
            assert counts[k, q, m, "naive"] == counts[k, q, m, "subgraph"] == want, (k, q, m)
