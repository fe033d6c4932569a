"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Every check prints a pass/fail line (visible with pytest -s or in the CLI
`verify` output, which runs the same suites).
"""

from gpaley import verify


def _assert(results):
    if not isinstance(results, list):
        results = [results]
    for res in results:
        print(res.line())
        assert res.passed, f"{res.name}: {res.detail}"


def test_criterion_1_cross_method_equality():
    # k in 2..5, q <= 200: naive = thm = corollary for K3;
    # naive = subgraph = thm1 = thm2 = corollary for K4
    _assert(verify.check_cross_method_equality(q_limit=200, ks=(2, 3, 4, 5)))


def test_criterion_2_paper_zeros():
    _assert(verify.check_paper_zeros())


def test_criterion_3_section6_intermediates():
    _assert(verify.check_section6_values())


def test_criterion_4_ramsey_bounds():
    _assert(verify.check_ramsey_bounds())


def test_criterion_5_tables_and_burnside():
    _assert(verify.check_tables_and_burnside(k_enum_max=12))


def test_criterion_6_identity_suites():
    _assert(verify.check_jacobi_props(cases=100))
    _assert(verify.check_aggregate_identities(q_limit=200))
    _assert(verify.check_quadform_lemmas(q_limit=500))
    _assert(verify.check_reductions(cases=100))
    _assert(verify.check_transformations(cases=100))
    _assert(verify.check_orbit_invariance(min_cases=100))
    _assert(verify.check_exact_vs_numeric())
    _assert(verify.check_subgraph_props(q_limit=61))
    _assert(verify.check_clique_recursions(q_limit=200, ks=(2, 3, 4)))
    _assert(verify.check_strong_regularity(q_limit=101))


def test_criterion_7_determinism():
    _assert(verify.check_determinism())
