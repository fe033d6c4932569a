"""The benchmark's per-layer tracer must still find every function it names,
and the benchmark's operations must still run.

The tracer skips a name that no longer exists, so a rename inside gpaley
would silently drop that function's series from the per-layer metrics.
It wraps module attributes, so work routed around a traced name (a
private kernel called directly, a bound reference kept elsewhere) would
move that work's time to the caller's self time.  The operations import
gpaley names of their own (``ramsey_search.STATED_QMAX``,
``finite_field.is_prime``, the package itself), so a removal there would
otherwise show only as a failed benchmark run.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from gpaley import orbits, paley_graph
from gpaley.finite_field import build_field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module          # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracing = _perfbench("tracing")
    names = [f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns]
    names += list(tracing.MEMORY_TRACED) + list(tracing.COUNT_ROUTES)
    names += list(tracing.SEARCH_ROUTE.values())
    missing = []
    for name in names:
        mod, fn = name.split(".")
        if not callable(getattr(importlib.import_module(f"gpaley.{mod}"), fn, None)):
            missing.append(name)
    assert not missing, f"traced names missing from gpaley: {missing}"


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_naive_oracle_runs_through_its_traced_names(monkeypatch):
    counted = _count_calls(monkeypatch, paley_graph, "count_cliques")
    rows = _count_calls(monkeypatch, paley_graph, "adjacency_rows")
    g = paley_graph.build_graph(build_field(17, 1), 2)   # fresh: no cached count
    assert paley_graph.brute_force_K(g, 4).count == 0
    assert len(counted) == len(rows) == 1


def test_orbit_tables_run_through_orbit_decompose(monkeypatch):
    calls = _count_calls(monkeypatch, orbits, "orbit_decompose")
    t1 = orbits.generators(5)["T1"]
    assert orbits.fixed_point_count(t1, 5) == 40
    assert calls == [(5,)]
    assert orbits.tables_json(4)["N_k"] == 11
    assert calls == [(5,), (4,)]


def test_search_checks_reach_routes_by_module_attribute(monkeypatch):
    import random

    from gpaley.ramsey_search import THM2_CROSSCHECK_CAP, admissible_q, search_zeros

    thm2 = _count_calls(monkeypatch, paley_graph, "K4_thm2")
    naive = _count_calls(monkeypatch, paley_graph, "brute_force_K")
    rep = search_zeros(3, 4, 230)
    eligible = [q for q in admissible_q(3, 230) if q <= THM2_CROSSCHECK_CAP]
    sample = random.Random(0).sample(eligible, len(eligible) // 10)
    cap = paley_graph.ORACLE_CAP[4]
    assert sorted(ctx.q for ctx, _ in thm2) == sorted(sample)
    assert sorted(g.q for g, _ in naive) == sorted(
        {q for q in rep.zero_qs + sample if q <= cap})


@pytest.mark.parametrize("k", range(9, 13))
def test_search_recounts_past_the_paper_by_both_theorems(monkeypatch, k):
    import random

    from gpaley.ramsey_search import admissible_q, search_zeros

    thm1 = _count_calls(monkeypatch, paley_graph, "K4_thm1")
    thm2 = _count_calls(monkeypatch, paley_graph, "K4_thm2")
    rep = search_zeros(k, 4, 300)
    qs = admissible_q(k, 300)
    sample = random.Random(0).sample(qs, max(1, len(qs) // 10))
    assert not rep.partial
    assert sorted(ctx.q for ctx, _ in thm1) == sorted(sample)
    assert sorted(ctx.q for ctx, _ in thm2) == sorted(sample)


def test_scan_and_large_q_ops_run_and_every_row_is_correct():
    """make_ops builds every workload at a fixed seed; the scan and large-q
    ops run here (0.3 s in the suite, 0.6 s alone).  Paper's one op is
    run_suite("paper"), which test_acceptance and test_verify cover."""
    workloads = _perfbench("workloads")
    ops = {w: workloads.make_ops(w, 1) for w in workloads.WORKLOADS}
    assert [op.rows for op in ops["paper"]] == [workloads.PAPER_CHECKS]
    for w in ("scan", "large-q"):
        rows = [row for op in ops[w] for row in op.run()]
        assert len(rows) == sum(op.rows for op in ops[w]), w
        assert all(ok for _, ok, _ in rows), [label for label, ok, _ in rows if not ok]
