"""Acceptance checks: every reproduction the package promises, as callable
suites shared by the CLI `verify` subcommand and the test harness.

Each check returns a CheckResult with an instance count, so a pass line
records how much evidence backs it.  Randomized sweeps take an explicit
seed and are deterministic given one.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .characters import MultChar, canonical_char, trivial_char
from .cyclotomic import CycInt
from .finite_field import build_field, prime_powers, split_prime_power
from .hypergeometric import (check_reduction, check_transformation, f21_scaled,
                             f32_full_grid_sum, f32_indexed, greene_sum)
from .jacobi import (EISENSTEIN, J0, JJ0, TWO_SQUARES, TWO_TIMES_SQUARE, R_k,
                     S_k, jacobi_sum, jacobi_table, solve_quadform)
from .orbits import (build_Xk, burnside_Nk, fixed_point_closed_forms,
                     fixed_point_count, generate_group, named_composites,
                     orbit_decompose, xk_closed_form)
from .paley_graph import (ROUTES, K3_closed, K4_subgraph_method, K4_thm2,
                          adjacency_rows, brute_force_K, build_graph,
                          clique_count, count_cliques, h1_vertices,
                          routes_for, row_popcounts, subgraph_masks,
                          unpack_words)
from .ramsey_search import admissible_q, paper_bounds_suite, search_zeros

ACCEPTANCE_QS = (13, 16, 17, 25, 27, 37, 41, 49, 61)
IDENTITY_SEED = 746

_FIELDS: dict[tuple[int, bool], object] = {}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0    # run_suite: the check's time, in the process that ran it

    def line(self) -> str:
        return (f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"
                f" ({self.seconds:.3f} s)")


def field_for(q: int, alt: bool = False):
    key = (q, alt)
    if key not in _FIELDS:
        p, r = split_prime_power(q)
        _FIELDS[key] = build_field(p, r, alt_generator=alt)
    return _FIELDS[key]


def valid_pairs(q_limit: int, ks=(2, 3, 4, 5, 6)):
    """All (k, q) with the Paley congruence, q a prime power, by q and then
    in ks order (the sort is stable)."""
    return sorted(((k, q) for k in ks for q in admissible_q(k, q_limit)),
                  key=lambda kq: kq[1])


def _result(name: str, failures: list, instances: int, minimum: int = 1) -> CheckResult:
    ok = not failures and instances >= minimum
    if failures:
        detail = f"{len(failures)} failures out of {instances}: {failures[:3]}"
    elif instances < minimum:
        detail = f"only {instances} instances (needed {minimum})"
    else:
        detail = f"{instances} instances"
    return CheckResult(name, ok, detail)


# ---------------------------------------------------------------------------
# criterion 1: cross-method equality
# ---------------------------------------------------------------------------

def check_cross_method_equality(q_limit: int = 200, ks=(2, 3, 4, 5)) -> CheckResult:
    failures, instances = [], 0
    for k, q in valid_pairs(q_limit, ks):
        ctx = field_for(q)
        for m in (3, 4):
            counts = {method: ROUTES[m, method](ctx, k).count
                      for method in routes_for(k, m, q)}
            instances += 1
            if len(set(counts.values())) != 1:
                failures.append((f"K{m}", k, q, counts))
    return _result("cross-method equality", failures, instances)


# ---------------------------------------------------------------------------
# criterion 2: the published zero counts
# ---------------------------------------------------------------------------

def check_paper_zeros() -> CheckResult:
    cases = [(2, 17, 4), (3, 127, 4), (4, 457, 4),
             (2, 5, 3), (3, 16, 3), (4, 41, 3)]
    failures = []
    for k, q, m in cases:
        count = clique_count(field_for(q), k, m).count
        if count != 0:
            failures.append((k, q, m, count))
    return _result("published zero counts", failures, len(cases))


# ---------------------------------------------------------------------------
# criterion 3: the intermediate search values
# ---------------------------------------------------------------------------

def check_section6_values() -> CheckResult:
    failures = []
    ctx127 = field_for(127)
    if solve_quadform(EISENSTEIN, ctx127).a != -20:
        failures.append("c at 127")
    if f32_indexed(ctx127, 3, (1, 1, 2, 0, 0)).as_integer() != -205:
        failures.append("3F2 at 127")
    ctx457 = field_for(457)
    if solve_quadform(TWO_SQUARES, ctx457).a != 21:
        failures.append("x at 457")
    if solve_quadform(TWO_TIMES_SQUARE, ctx457).a != -13:
        failures.append("u at 457")
    if f32_indexed(ctx457, 4, (1, 1, 3, 0, 0)).as_integer() != 290:
        failures.append("3F2 (chi4,chi4,conj) at 457")
    if f32_indexed(ctx457, 4, (1, 2, 2, 0, 0)).as_integer() != -590:
        failures.append("3F2 (chi4,phi,phi) at 457")
    return _result("intermediate search values", failures, 6)


# ---------------------------------------------------------------------------
# criterion 4: the Ramsey bound suite
# ---------------------------------------------------------------------------

def check_ramsey_bounds() -> CheckResult:
    try:
        suite = paper_bounds_suite()
    except Exception as exc:   # MismatchAgainstPaper or a per-q failure
        return CheckResult("Ramsey bound suite", False, str(exc))
    detail = f"{len(suite['searches'])} searches"
    if suite["flags"]:
        detail += f", flags: {suite['flags']}"
    return CheckResult("Ramsey bound suite", True, detail)


# ---------------------------------------------------------------------------
# criterion 5: tables, Burnside, fixed-point closed forms
# ---------------------------------------------------------------------------

def check_tables_and_burnside(k_enum_max: int = 12) -> CheckResult:
    failures, instances = [], 0
    expect_x = {2: 1, 3: 12, 4: 93, 5: 424, 6: 1425}
    expect_n = {2: 1, 3: 1, 4: 11, 5: 28, 6: 92}
    for k in range(2, 7):
        instances += 2
        if len(build_Xk(k)) != expect_x[k] or xk_closed_form(k) != expect_x[k]:
            failures.append(("Xk", k))
        if orbit_decompose(k).n_orbits != expect_n[k] or burnside_Nk(k) != expect_n[k]:
            failures.append(("Nk", k))
    for k in range(2, k_enum_max + 1):
        dec = orbit_decompose(k)
        instances += 1
        if dec.n_orbits != burnside_Nk(k):
            failures.append(("burnside-vs-enumeration", k))
        named = named_composites(k)
        fixed = {name: fixed_point_count(m, k) for name, m in named.items()}
        instances += 1
        if sum(fixed.values()) != 24 * dec.n_orbits:
            failures.append(("burnside-sum", k))
        if k >= 3:
            instances += 1
            if len({m.key() for m in named.values()}) != 24 or dec.group_order != 24:
                failures.append(("group-order", k))
        for name, predicted in fixed_point_closed_forms(k).items():
            instances += 1
            if fixed[name] != predicted:
                failures.append(("fixed-form", k, name))
    return _result("tables and Burnside counts", failures, instances)


# ---------------------------------------------------------------------------
# criterion 6: identity suites
# ---------------------------------------------------------------------------

def _random_char(rng: random.Random, ctx) -> MultChar:
    return MultChar(ctx, rng.randrange(ctx.q - 1))


def _random_nontrivial(rng: random.Random, ctx) -> MultChar:
    return MultChar(ctx, rng.randrange(1, ctx.q - 1))


def check_jacobi_props(seed: int = IDENTITY_SEED, cases: int = 100,
                       qs=ACCEPTANCE_QS) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    fails, n = [], 0
    for q in qs:
        ctx = field_for(q)
        eps = trivial_char(ctx)
        n += 1
        if jacobi_sum(eps, eps).as_integer() != q - 2:
            fails.append(("a", q))
        for _ in range(cases // len(qs) + 1):
            chi = _random_nontrivial(rng, ctx)
            c = chi.order
            n += 2
            if jacobi_sum(eps, chi, conductor=c).as_integer() != -1:
                fails.append(("b", q, chi.m))
            if jacobi_sum(chi, chi.conj(), conductor=c) != CycInt.integer(c, -chi.sign_at_minus_one()):
                fails.append(("c", q, chi.m))
    out.append(_result("Jacobi special values", fails, n, minimum=cases - 5))

    fails, n = [], 0
    for q in qs:
        ctx = field_for(q)
        for _ in range(cases // len(qs) + 1):
            chi, psi = _random_char(rng, ctx), _random_char(rng, ctx)
            c = ctx.q - 1
            lhs = jacobi_sum(chi, psi, conductor=c)
            rhs = chi.sign_at_minus_one() * jacobi_sum(chi, (chi * psi).conj(), conductor=c)
            n += 1
            if lhs != rhs:
                fails.append((q, chi.m, psi.m))
    out.append(_result("Jacobi transfer identity", fails, n, minimum=cases // 3))

    fails, n = [], 0
    for q in qs:
        ctx = field_for(q)
        tries = 0
        while tries < cases // len(qs) + 1:
            chi, psi = _random_nontrivial(rng, ctx), _random_nontrivial(rng, ctx)
            if (chi * psi).is_trivial:
                continue
            tries += 1
            c = ctx.q - 1
            prod = jacobi_sum(chi, psi, conductor=c) * jacobi_sum(chi.conj(), psi.conj(), conductor=c)
            n += 1
            if prod != CycInt.integer(c, q):
                fails.append((q, chi.m, psi.m))
    out.append(_result("Jacobi conjugate product", fails, n, minimum=cases // 3))
    return out


def check_aggregate_identities(q_limit: int = 200) -> CheckResult:
    """The J0/JJ0 closures and the conjugate double sum, on the full grid."""
    failures, instances = [], 0
    for k, q in valid_pairs(q_limit, ks=(2, 3, 4, 5, 6)):
        ctx = field_for(q)
        R, S = R_k(ctx, k), S_k(ctx, k)
        j0, jj0 = J0(ctx, k), JJ0(ctx, k)
        instances += 4
        if j0 != R + q - 3 * k + 1:
            failures.append(("J0", k, q))
        if jj0 != S - 4 * R + q * q + k * (k - 5) * q + k * k + 6 * k - 3:
            failures.append(("JJ0", k, q))
        if j0 % (k * k) != 0:
            failures.append(("J0 mod k^2", k, q))
        J = jacobi_table(ctx, k)
        total = sum((J[s][t] * J[-s][-t] for s in range(1, k) for t in range(1, k)),
                    CycInt.zero(k))
        if total.as_integer() != (k - 1) * ((k - 2) * q + 1):
            failures.append(("conjugate double sum", k, q))
    return _result("aggregate Jacobi identities", failures, instances, minimum=100)


def check_quadform_lemmas(q_limit: int = 500) -> CheckResult:
    """Order 3/4/8 Jacobi-sum evaluations against the quadratic forms,
    all branches of the prime splitting included."""
    failures, instances = [], 0
    for q in prime_powers(q_limit):
        ctx = None
        if q % 3 == 1:
            ctx = field_for(q)
            c = solve_quadform(EISENSTEIN, ctx).a
            chi3 = canonical_char(ctx, 3)
            lhs = jacobi_sum(chi3, chi3, conductor=3) + jacobi_sum(chi3.conj(), chi3.conj(), conductor=3)
            instances += 1
            if lhs.as_integer() != c:
                failures.append(("order3", q))
        if q % 4 == 1:
            ctx = ctx or field_for(q)
            rep = solve_quadform(TWO_SQUARES, ctx)
            x, y = rep.a, rep.b
            chi4 = canonical_char(ctx, 4)
            j = jacobi_sum(chi4, chi4, conductor=4)
            jc = jacobi_sum(chi4.conj(), chi4.conj(), conductor=4)
            instances += 2
            if (j + jc).as_integer() != -2 * x:
                failures.append(("order4 trace", q))
            if (j * j + jc * jc).as_integer() != 4 * x * x - 2 * q:
                failures.append(("order4 square", q))
        if q % 8 == 1:
            ctx = ctx or field_for(q)
            x = solve_quadform(TWO_SQUARES, ctx).a
            u = solve_quadform(TWO_TIMES_SQUARE, ctx).a
            chi8 = canonical_char(ctx, 8)
            chi4 = canonical_char(ctx, 4)
            chi8_4 = chi8.eval(ctx.from_int(4), conductor=8).as_integer()
            chi8_m4 = chi8.eval(ctx.from_int(-4), conductor=8).as_integer()
            j88 = jacobi_sum(chi8, chi8, conductor=8)
            j8_3 = jacobi_sum(chi8, chi8 ** 3, conductor=8)
            j33 = jacobi_sum(chi8 ** 3, chi8 ** 3, conductor=8)
            j8_2 = jacobi_sum(chi8, chi8 ** 2, conductor=8)
            j44 = jacobi_sum(chi4, chi4, conductor=8)
            instances += 4
            if not (j88 == j33 and j88 == chi8_m4 * j8_3):
                failures.append(("order8 (1)", q))
            if (j88 + j88.conj()).as_integer() != 2 * chi8_4 * u:
                failures.append(("order8 (2)", q))
            if j8_2 != chi8_m4 * j44:
                failures.append(("order8 (3)", q))
            if (j8_2 + j8_2.conj()).as_integer() != -2 * chi8_m4 * x:
                failures.append(("order8 (4)", q))
    return _result("quadratic-form Jacobi evaluations", failures, instances,
                   minimum=q_limit // 5)


def check_reductions(seed: int = IDENTITY_SEED, cases: int = 100,
                     qs=ACCEPTANCE_QS) -> CheckResult:
    rng = random.Random(seed)
    failures, instances = [], 0
    per_q = cases // len(qs) + 1
    for q in qs:
        ctx = field_for(q)
        eps = trivial_char(ctx)
        for _ in range(per_q):
            A, B, C, D, E = (_random_char(rng, ctx) for _ in range(5))
            shaped = {
                1: (eps, B, C, D, E),
                2: (A, eps, C, D, E),
                3: (A, B, C, A, E),
                4: (A, B, C, B, E),
                5: (A, B, C, D, B),
                6: (A, B, C, D, A * B * C * D.conj()),
            }
            for case, params in shaped.items():
                instances += 1
                if not check_reduction(case, params):
                    failures.append((case, q))
            instances += 1
            if not check_reduction("2F1", (A, B, C)):
                failures.append(("2F1", q))
    return _result("reduction formulae", failures, instances, minimum=cases)


def check_transformations(seed: int = IDENTITY_SEED, cases: int = 100,
                          qs=ACCEPTANCE_QS) -> CheckResult:
    rng = random.Random(seed)
    failures, instances = [], 0
    per_q = cases // len(qs) + 1
    for q in qs:
        ctx = field_for(q)
        for _ in range(per_q):
            params = tuple(_random_char(rng, ctx) for _ in range(5))
            for case in (1, 2, 3, 4, 5, 6, 7, "perm"):
                instances += 1
                if not check_transformation(case, params):
                    failures.append((case, q))
    return _result("transformation formulae", failures, instances, minimum=cases)


def check_orbit_invariance(seed: int = IDENTITY_SEED, q_limit: int = 61,
                           min_cases: int = 100) -> CheckResult:
    rng = random.Random(seed)
    failures, instances = [], 0
    for k, q in valid_pairs(q_limit, ks=(2, 3, 4, 5, 6)):
        ctx = field_for(q)
        xk = build_Xk(k)
        group = generate_group(k)
        for _ in range(6):
            t = xk[rng.randrange(len(xk))]
            ref = f32_indexed(ctx, k, t)
            g = group[rng.randrange(len(group))]
            instances += 1
            if f32_indexed(ctx, k, g.apply(t)) != ref:
                failures.append((k, q, t, g.name))
    return _result("orbit invariance of 3F2", failures, instances, minimum=min_cases)


def check_exact_vs_numeric(seed: int = IDENTITY_SEED, q_limit: int = 61) -> CheckResult:
    """Indexed 3F2 and 2F1 values against Greene's definition, summed
    exactly over all q-1 characters: greene_sum is (q-1) times the value
    at conductor q-1.  Every character order dividing q-1 is fair game
    here, not only the orders satisfying the graph congruence."""
    rng = random.Random(seed)
    failures, instances = [], 0
    divisor_pairs = [(k, q) for q in prime_powers(q_limit) if q > 3
                     for k in range(2, 9) if (q - 1) % k == 0]
    for k, q in divisor_pairs:
        ctx = field_for(q)
        chi = canonical_char(ctx, k)
        for _ in range(3):
            t = tuple(rng.randrange(k) for _ in range(5))
            chars = [chi ** ti for ti in t]
            value = f32_indexed(ctx, k, t).to_conductor(q - 1)
            instances += 1
            if greene_sum(chars[:3], chars[3:], 1) != (q - 1) * value:
                failures.append(("3F2", k, q, t))
            a, b, c = (chi ** rng.randrange(k) for _ in range(3))
            lam = rng.randrange(1, q)
            value = f21_scaled(a, b, c, lam, conductor=k).to_conductor(q - 1)
            instances += 1
            if greene_sum((a, b), (c,), lam) != (q - 1) * value:
                failures.append(("2F1", k, q, lam))
    return _result("exact vs Greene's definition", failures, instances, minimum=50)


def check_subgraph_props(q_limit: int = 61, ks=(2, 3, 4, 5, 6),
                         f21_grid: bool = True) -> CheckResult:
    """Vertex/degree/edge laws for H and H1, including the 2F1/3F2 forms."""
    failures, instances = [], 0
    for k, q in valid_pairs(q_limit, ks):
        ctx = field_for(q)
        g = build_graph(ctx, k)
        verts = np.flatnonzero(g.in_S)
        deg = row_popcounts(subgraph_masks(g, verts))
        h1v = h1_vertices(g)
        deg1 = row_popcounts(subgraph_masks(g, h1v))
        j0 = J0(ctx, k)
        instances += 4
        if len(verts) != (q - 1) // k:
            failures.append(("(a)", k, q))
        if (deg != j0 // (k * k)).any() or j0 % (k * k):
            failures.append(("(b)", k, q))
        if int(deg.sum()) * k ** 3 != (q - 1) * j0:
            failures.append(("(c)", k, q))
        if len(h1v) * k * k != j0:
            failures.append(("(d)", k, q))
        if f21_grid:
            chi = canonical_char(ctx, k)
            for a, d1 in zip(h1v, deg1.tolist()):
                total = CycInt.zero(k)
                for t1 in range(k):
                    for t2 in range(k):
                        for t3 in range(k):
                            total = total + f21_scaled(chi ** t1, chi ** t2, chi ** t3,
                                                       lam=a, conductor=k)
                instances += 1
                if total.as_integer() != d1 * k ** 3:
                    failures.append(("(e)", k, q, a))
        instances += 1
        if f32_full_grid_sum(ctx, k).as_integer() != k ** 5 * int(deg1.sum()):
            failures.append(("(f)", k, q))
    return _result("subgraph vertex/degree/edge laws", failures, instances, minimum=50)


def check_clique_recursions(q_limit: int = 200, ks=(2, 3, 4)) -> CheckResult:
    """K_(n+1)(G) = q/(n+1) K_n(H) and its H/H1 counterparts, by enumeration."""
    failures, instances = [], 0
    for k, q in valid_pairs(q_limit, ks):
        ctx = field_for(q)
        g = build_graph(ctx, k)
        h_rows = subgraph_masks(g, np.flatnonzero(g.in_S))
        h1_rows = subgraph_masks(g, h1_vertices(g))
        kg = {m: brute_force_K(g, m).count for m in (3, 4)}
        kh = {m: count_cliques(h_rows, m) for m in (2, 3, 4)}
        kh1 = {m: count_cliques(h1_rows, m) for m in (1, 2, 3)}
        for n in (2, 3):
            instances += 3
            if (n + 1) * kg[n + 1] != q * kh[n]:
                failures.append(("4.2a", k, q, n))
            if k * (n + 1) * kh[n + 1] != (q - 1) * kh1[n]:
                failures.append(("4.2b", k, q, n))
            if k * n * (n + 1) * kg[n + 1] != q * (q - 1) * kh1[n - 1]:
                failures.append(("4.2c", k, q, n))
        instances += 2
        if 12 * k * kg[4] != q * (q - 1) * kh1[2]:
            failures.append(("cor4.3", k, q))
        if 3 * kg[3] != q * kh[2]:
            failures.append(("cor4.4", k, q))
    return _result("clique recursion laws", failures, instances, minimum=50)


def check_strong_regularity(q_limit: int = 101) -> CheckResult:
    failures, instances = [], 0
    for q in admissible_q(2, q_limit):
        ctx = field_for(q)
        g = build_graph(ctx, 2)
        rows = adjacency_rows(g)
        lam, mu = (q - 5) // 4, (q - 1) // 4
        degree = (q - 1) // 2
        ok = bool((row_popcounts(rows) == degree).all())
        adjacent = unpack_words(rows, q)
        for a in range(q - 1):
            common = row_popcounts(rows[a] & rows[a + 1:])
            expect = np.where(adjacent[a, a + 1:], lam, mu)
            if (common != expect).any():
                ok = False
        instances += 1
        if not ok:
            failures.append(q)
    return _result("strong regularity (k=2)", failures, instances, minimum=10)


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

def check_determinism() -> CheckResult:
    failures = []
    for k, q in ((2, 13), (3, 13), (3, 16), (4, 17), (5, 41)):
        base = field_for(q)
        alt = field_for(q, alt=True)
        if base.primitive_index == alt.primitive_index:
            failures.append(("generator not alternate", q))
        pairs = [
            ("R", R_k(base, k), R_k(alt, k)),
            ("S", S_k(base, k), S_k(alt, k)),
            ("K3", K3_closed(base, k).count, K3_closed(alt, k).count),
            ("K4", K4_thm2(base, k).count, K4_thm2(alt, k).count),
            ("K4sub", K4_subgraph_method(build_graph(base, k)).count,
             K4_subgraph_method(build_graph(alt, k)).count),
        ]
        failures.extend((name, k, q) for name, a, b in pairs if a != b)

    rep1 = search_zeros(3, 4, 230, jobs=1)
    rep2 = search_zeros(3, 4, 230, jobs=2)
    if [(r.q, r.count) for r in rep1.records] != [(r.q, r.count) for r in rep2.records]:
        failures.append("thread count changed search results")
    rep3 = search_zeros(3, 4, 230, jobs=1)
    if [(r.q, r.count) for r in rep1.records] != [(r.q, r.count) for r in rep3.records]:
        failures.append("repeat run changed search results")
    return _result("determinism", failures, 5 * 5 + 2)


# ---------------------------------------------------------------------------
# suite runners
# ---------------------------------------------------------------------------

def _suite_calls(profile: str, seed: int) -> list[partial]:
    """The profile's check calls, in output order."""
    quick = profile == "quick"
    calls = [
        partial(check_cross_method_equality, q_limit=100 if quick else 200),
        partial(check_paper_zeros),
        partial(check_section6_values),
        partial(check_tables_and_burnside, k_enum_max=8 if quick else 12),
        partial(check_jacobi_props, seed, cases=40 if quick else 100),
        partial(check_aggregate_identities, q_limit=100 if quick else 200),
        partial(check_quadform_lemmas, q_limit=100 if quick else 500),
        partial(check_reductions, seed, cases=30 if quick else 100),
        partial(check_transformations, seed, cases=30 if quick else 100),
        partial(check_orbit_invariance, seed, min_cases=50 if quick else 100),
        partial(check_exact_vs_numeric, seed),
        partial(check_subgraph_props, q_limit=41 if quick else 61, f21_grid=not quick),
        partial(check_clique_recursions, q_limit=61 if quick else 200),
        partial(check_strong_regularity, q_limit=61 if quick else 101),
    ]
    if not quick:
        calls += [partial(check_ramsey_bounds),
                  partial(check_determinism)]
    return calls


def _suite_tasks(profile: str, seed: int) -> list[tuple[int, ...]]:
    """run_suite's worker tasks, heaviest first.  A task is a tuple of
    positions in _suite_calls' list, run in that order by one process.

    The clique recursions read the naive counts that the cross-method check
    leaves in field_for's contexts (about 175 ms cold, 22 ms after it), so
    the two share a task.  The order follows each task's cold in-process
    time on the paper profile, the median of four runs, each task in a
    fresh interpreter, in ms on a 2-core VM: 193, 155, 131, 96, 87, 81,
    78, 75, 56, 25, 18, 13, 10, then the two checks near 4 ms together.
    A call the order does not name gets a task of its own at the end.
    """
    heaviest_first = (
        ("check_cross_method_equality", "check_clique_recursions"),
        ("check_ramsey_bounds",), ("check_exact_vs_numeric",),
        ("check_tables_and_burnside",), ("check_subgraph_props",),
        ("check_reductions",), ("check_transformations",),
        ("check_determinism",), ("check_aggregate_identities",),
        ("check_orbit_invariance",), ("check_quadform_lemmas",),
        ("check_jacobi_props",), ("check_strong_regularity",),
        ("check_section6_values", "check_paper_zeros"),
    )
    rank = {name: i for i, group in enumerate(heaviest_first) for name in group}
    tasks: dict[int, tuple[int, ...]] = {}
    for pos, call in enumerate(_suite_calls(profile, seed)):
        key = rank.get(call.func.__name__, len(heaviest_first) + pos)
        tasks[key] = tasks.get(key, ()) + (pos,)
    return [tasks[key] for key in sorted(tasks)]


def _timed(call: partial) -> list[CheckResult]:
    """Run one check call in this process; a call that returns several
    results splits its time evenly among them."""
    t0 = time.perf_counter()
    out = call()
    seconds = time.perf_counter() - t0
    results = out if isinstance(out, list) else [out]
    for res in results:
        res.seconds = seconds / len(results)
    return results


def _run_task(profile: str, seed: int,
              task: tuple[int, ...]) -> list[tuple[int, list[CheckResult]]]:
    calls = _suite_calls(profile, seed)
    return [(pos, _timed(calls[pos])) for pos in task]


def run_suite(profile: str = "quick", jobs: int | None = None,
              seed: int = IDENTITY_SEED) -> list[CheckResult]:
    """Every check of the profile ("quick" or "paper"), in one fixed order.

    jobs=None means one worker per CPU this process may run on.  With
    jobs=1 the checks run here, one after another, where a tracer in this
    process sees them.  With jobs > 1 the tasks of _suite_tasks run in a
    process pool (the default start method, as search_zeros uses).  Either
    way check_ramsey_bounds runs its ten searches serially, and only
    check_determinism opens a pool of its own, to compare a serial search
    with a 2-process one.  The results come back in the same order either
    way, each with the seconds its check took in the process that ran it.
    If a check raises, the pending tasks are cancelled, the workers are
    joined, and the exception propagates.
    """
    if jobs is None:
        jobs = len(os.sched_getaffinity(0))
    if jobs < 1:
        raise ValueError(f"jobs={jobs} must be at least 1")
    if jobs == 1:
        return [res for call in _suite_calls(profile, seed) for res in _timed(call)]
    tasks = _suite_tasks(profile, seed)
    pool = ProcessPoolExecutor(min(jobs, len(tasks)))
    try:
        futures = [pool.submit(_run_task, profile, seed, task) for task in tasks]
        by_position = dict(pair for fut in futures for pair in fut.result())
    finally:
        pool.shutdown(cancel_futures=True)
    return [res for pos in sorted(by_position) for res in by_position[pos]]
