"""Timing spans around gpaley's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
gpaley module that bound its name, so calls made through any import path
are timed.  A span records name, start, end, parent span and the call's
(q, k, m).  Spans stay in memory until ``write`` at the end of the run.
A span's self time is its duration minus the part its child spans cover.

Calls made in a forked worker process (the process pool of
``check_determinism``) go straight to the original function: they are not
traced, and the span that waits for them counts the wait as self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = {
    "finite_field": ("build_field",),
    "paley_graph": ("build_graph", "K4_subgraph_method", "brute_force_K",
                    "count_cliques", "adjacency_rows", "K3_closed", "K4_thm1",
                    "K4_thm2", "K4_corollary", "K3_corollary"),
    "jacobi": ("jacobi_sum", "R_k", "S_k", "solve_quadform"),
    "hypergeometric": ("residue_histogram", "f32_indexed", "f32_full_grid_sum",
                       "f32_scaled", "f21_scaled"),
    "orbits": ("orbit_decompose", "build_Xk", "generate_group"),
    "ramsey_search": ("search_zeros", "admissible_q"),
    "verify": ("check_cross_method_equality", "check_paper_zeros",
               "check_section6_values", "check_ramsey_bounds",
               "check_tables_and_burnside", "check_jacobi_props",
               "check_aggregate_identities", "check_quadform_lemmas",
               "check_reductions", "check_transformations",
               "check_orbit_invariance", "check_exact_vs_numeric",
               "check_subgraph_props", "check_clique_recursions",
               "check_strong_regularity", "check_determinism"),
}

# functions whose peak traced allocation is reported as <name>.peak_mb; numpy
# also records an allocation it attempted and failed, so a request that ends
# in MemoryError shows at its full size
MEMORY_TRACED = ("paley_graph.K4_subgraph_method",)

# clique-count routes and the order they count when it is not an argument
COUNT_ROUTES = {
    "paley_graph.K4_subgraph_method": 4, "paley_graph.K4_thm1": 4,
    "paley_graph.K4_thm2": 4, "paley_graph.K4_corollary": 4,
    "paley_graph.K3_closed": 3, "paley_graph.K3_corollary": 3,
    "paley_graph.brute_force_K": None,
}
# the route search_zeros counts with, by clique order
SEARCH_ROUTE = {4: "paley_graph.K4_subgraph_method", 3: "paley_graph.K3_closed"}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int                 # index of the enclosing span, -1 at top level
    q: int | None = None
    k: int | None = None
    m: int | None = None
    error: str | None = None
    zeros: list | None = None   # zero q found, for search_zeros spans
    peak_mb: float | None = None

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _int_or_none(value):
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def call_qkm(params: list[str], args: tuple, kwargs: dict, m_default=None):
    """(q, k, m) of a call: from arguments of those names (q_max, or p and r,
    standing for q), else q from a field context or graph argument and k
    from a graph argument."""
    bound = dict(zip(params, args))
    bound.update(kwargs)
    q = _int_or_none(bound.get("q", bound.get("q_max")))
    if q is None and _int_or_none(bound.get("p")) and _int_or_none(bound.get("r")):
        q = bound["p"] ** bound["r"]
    k = _int_or_none(bound.get("k"))
    m = _int_or_none(bound.get("m", m_default))
    for value in bound.values():
        if q is None:
            q = _int_or_none(getattr(value, "q", None)) or _int_or_none(
                getattr(getattr(value, "ctx", None), "q", None))
        if k is None and hasattr(value, "in_S"):
            k = _int_or_none(getattr(value, "k", None))
    return q, k, m


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    def wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)
        m_default = COUNT_ROUTES.get(name)
        track_memory = name in MEMORY_TRACED
        spans, stack, pid = self.spans, self._stack, self._pid

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            q, k, m = call_qkm(params, args, kwargs, m_default)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, q, k, m)
            stack.append(len(spans))
            spans.append(span)
            started_memory = track_memory and not tracemalloc.is_tracing()
            if started_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if started_memory:
                    span.peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
            if name == "ramsey_search.search_zeros":
                span.zeros = list(result.zero_qs)
            return result
        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function of LAYERS in every gpaley module bound to it."""
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == "gpaley" or key.startswith("gpaley."))]
        for module, functions in LAYERS.items():
            home = sys.modules[f"gpaley.{module}"]
            for function in functions:
                original = getattr(home, function, None)
                if original is None:
                    continue
                traced = self.wrap(f"{module}.{function}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [(s.end - s.start) - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def second_route_frac(spans: list[Span]) -> float:
    """Share of the zeros found by search_zeros that some count route other
    than the search's own also counted, inside the same search.  0 when the
    run found no zeros."""
    found = confirmed = 0
    searches = [i for i, s in enumerate(spans) if s.name == "ramsey_search.search_zeros"]
    for i in searches:
        search = spans[i]
        zeros = set(search.zeros or ())
        other_routes = set(COUNT_ROUTES) - {SEARCH_ROUTE.get(search.m)}
        hit = set()
        for j in range(i + 1, len(spans)):
            span = spans[j]
            if span.start >= search.end:
                break
            if (span.name in other_routes and span.q in zeros
                    and span.k == search.k and span.m == search.m):
                hit.add(span.q)
        found += len(zeros)
        confirmed += len(hit)
    return confirmed / found if found else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """calls and self_s for every traced function, peak_mb for the memory-
    traced ones and the second-route share; absent functions read 0."""
    out: dict[str, float] = {}
    for module, functions in LAYERS.items():
        for function in functions:
            out[f"{module}.{function}.calls"] = 0
            out[f"{module}.{function}.self_s"] = 0.0
    for name in MEMORY_TRACED:
        out[f"{name}.peak_mb"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += own
        if span.peak_mb is not None:
            out[f"{span.name}.peak_mb"] = max(out[f"{span.name}.peak_mb"], span.peak_mb)
    out["ramsey_search.zeros_second_route_frac"] = second_route_frac(spans)
    return out
