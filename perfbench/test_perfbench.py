"""Tests of the benchmark's own arithmetic: self time, failure counting,
seeded inputs and the metric names BENCHMARK.json promises.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from gpaley.finite_field import is_prime  # noqa: E402
from tracing import Span, covered_length, second_route_frac, self_times  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert covered_length([(11, 12), (4, 4)], 0, 10) == 0.0


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.5, 1),      # grandchild: only b loses it
        Span("d", 6.0, 9.0, 0),
        Span("e", 12.0, 13.0, -1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 1.5, 3.0, 1.0])


def test_self_time_never_counts_a_child_twice():
    spans = [Span("a", 0.0, 4.0, -1), Span("b", 1.0, 3.0, 0), Span("b", 2.0, 5.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_sum_self_time_per_function():
    spans = [
        Span("ramsey_search.search_zeros", 0.0, 5.0, -1, q=100, k=4, m=4, zeros=[17]),
        Span("finite_field.build_field", 0.5, 1.5, 0, q=17),
        Span("finite_field.build_field", 2.0, 2.5, 0, q=41),
        Span("paley_graph.K4_subgraph_method", 3.0, 4.0, 0, q=17, k=4, m=4, peak_mb=2.5),
    ]
    out = tracing.layer_metrics(spans)
    assert out["finite_field.build_field.calls"] == 2
    assert out["finite_field.build_field.self_s"] == pytest.approx(1.5)
    assert out["ramsey_search.search_zeros.self_s"] == pytest.approx(2.5)
    assert out["paley_graph.K4_subgraph_method.peak_mb"] == 2.5
    assert out["jacobi.R_k.calls"] == 0
    assert out["ramsey_search.zeros_second_route_frac"] == 0.0


def test_second_route_needs_another_route_at_the_same_zero():
    search = Span("ramsey_search.search_zeros", 0.0, 10.0, -1, q=500, k=4, m=4,
                  zeros=[17, 41, 457])
    spans = [
        search,
        Span("paley_graph.K4_subgraph_method", 1.0, 2.0, 0, q=17, k=4, m=4),
        Span("paley_graph.brute_force_K", 3.0, 4.0, 0, q=17, k=4, m=4),
        Span("paley_graph.K4_thm2", 4.0, 5.0, 0, q=41, k=3, m=4),     # other k
        Span("paley_graph.K3_closed", 5.0, 6.0, 0, q=41, k=4, m=3),   # other m
        Span("paley_graph.K4_thm2", 11.0, 12.0, -1, q=457, k=4, m=4),  # after the search
    ]
    assert second_route_frac(spans) == pytest.approx(1 / 3)
    assert second_route_frac(spans[1:]) == 0.0


# ---------------------------------------------------------------------------
# failure counting
# ---------------------------------------------------------------------------

def _op(label, rows, fn):
    return workloads.Op(label, rows, fn)


def test_raise_fails_every_row_of_the_op_and_keeps_its_type():
    def boom():
        raise MemoryError("Unable to allocate 16.2 GiB")
    rows = worker.run_op(_op("GF(3^10)", 3, boom))
    assert [r["status"] for r in rows] == ["error"] * 3
    assert all(r["error"].startswith("MemoryError") for r in rows)
    assert worker.tally(rows) == {"attempted": 3, "failed": 3, "wrong": 0, "units": 0}


def test_wrong_output_is_failed_and_wrong_and_earns_no_units():
    rows = worker.run_op(_op("counts", 2, lambda: [("a", True, 5), ("b", False, 7)]))
    rows += worker.run_op(_op("gone", 1, lambda: 1 // 0))
    assert worker.tally(rows) == {"attempted": 3, "failed": 2, "wrong": 1, "units": 5}


def test_end_to_end_failed_share_and_rates():
    repeats = [
        {"attempted": 9, "failed": 1, "units": 8, "wall_s": 4.0, "peak_rss_mb": 900.0,
         "setup_s": 0.2},
        {"attempted": 9, "failed": 1, "units": 8, "wall_s": 2.0, "peak_rss_mb": 910.0,
         "setup_s": 0.4},
        {"attempted": 9, "failed": 1, "units": 8, "wall_s": 8.0, "peak_rss_mb": 905.0,
         "setup_s": 0.3},
    ]
    out = run.end_to_end(repeats)
    assert out["ops_ok_frac"] == pytest.approx(8 / 9)
    assert out["wall_s"] == 4.0
    assert out["counts_per_s"] == 2.0
    assert out["peak_rss_mb"] == 905.0
    assert out["setup_s"] == 0.3


# ---------------------------------------------------------------------------
# inputs and the metric contract
# ---------------------------------------------------------------------------

def test_seeded_inputs_repeat_and_every_pick_has_a_checked_count():
    assert workloads.large_q_inputs(7) == workloads.large_q_inputs(7)
    for seed in range(200):
        rows = workloads.large_q_inputs(seed)
        assert len(rows) == 9
        for _, q, k, m, _ in rows:
            assert (q, k, m) in workloads.EXPECTED
    for band in (c for c in workloads.LARGE_Q if isinstance(c, workloads.Band)):
        for q in band.candidates():
            assert band.lo <= q < band.lo + band.width + 100
            assert is_prime(q) and q % (2 * band.k) == 1


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END_UNITS)
    layer_names = set(tracing.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == layer_names
    for metric in bench["end_to_end"]:
        assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
    for metric in bench["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

def test_install_patches_every_module_that_bound_the_name():
    import gpaley.cli  # noqa: F401
    import gpaley.verify  # noqa: F401
    from gpaley import finite_field, paley_graph, ramsey_search, verify

    original = finite_field.build_field
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ramsey_search.build_field is finite_field.build_field
        assert verify.build_field is finite_field.build_field
        assert finite_field.build_field is not original
        g = paley_graph.build_graph(finite_field.build_field(17, 1), 4)
        assert paley_graph.K4_subgraph_method(g).count == 0
    finally:
        for name, mod in list(sys.modules.items()):
            if name == "gpaley" or name.startswith("gpaley."):
                for attr, value in list(vars(mod).items()):
                    if hasattr(value, "__wrapped_original__"):
                        setattr(mod, attr, value.__wrapped_original__)
    assert finite_field.build_field is original
    names = [(s.name, s.q, s.k, s.m) for s in tracer.spans]
    assert names[:3] == [("finite_field.build_field", 17, None, None),
                         ("paley_graph.build_graph", 17, 4, None),
                         ("paley_graph.K4_subgraph_method", 17, 4, 4)]
    assert tracer.spans[2].peak_mb > 0
