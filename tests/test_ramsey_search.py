"""Admissible-q enumeration, zero searches, bounds, and the results cache."""

import json

import pytest

from gpaley.ramsey_search import (PAPER_BOUNDS, SearchReport, admissible_q,
                                  search_zeros)


def test_admissible_q_k2():
    assert admissible_q(2, 17) == [5, 9, 13, 17]


def test_admissible_q_k3():
    # 4 and 16 are the even prime powers congruent to 1 mod 3 in range
    assert admissible_q(3, 16) == [4, 7, 13, 16]


def test_admissible_q_k4():
    assert admissible_q(4, 41) == [9, 17, 25, 41]
    assert 33 not in admissible_q(4, 41)


def test_admissible_q_congruences():
    for k in (2, 3, 4, 5, 6):
        for q in admissible_q(k, 300):
            assert q % (k if q % 2 == 0 else 2 * k) == 1


def test_valid_pairs_match_a_brute_force_enumeration():
    from gpaley.finite_field import paley_congruence, split_prime_power
    from gpaley.verify import valid_pairs

    def brute_force(ks):
        out = []
        for q in range(3, 301):
            try:
                split_prime_power(q)
            except ValueError:
                continue
            out += [(k, q) for k in ks if paley_congruence(k, q)]
        return out

    assert valid_pairs(300) == brute_force((2, 3, 4, 5, 6))
    assert valid_pairs(300, ks=(4, 2)) == brute_force((4, 2))   # ks order kept


def test_search_k3_m4():
    rep = search_zeros(3, 4, 230)
    assert rep.bound == 128
    assert max(rep.zero_qs) == 127
    assert [r.q for r in rep.records] == admissible_q(3, 230)


def test_search_k4_m3():
    rep = search_zeros(4, 3, 100)
    assert max(rep.zero_qs) == 41
    assert rep.bound == 42


def test_search_past_the_histogram_cross_checks_by_thm2():
    # k = 9 is past the paper's range; its sample is recounted by thm2 and thm1
    rep = search_zeros(9, 4, 200)
    assert rep.zero_qs == [19, 37, 73, 109, 127, 163, 181]


def test_search_past_the_grid_is_not_partial():
    # k = 17 is past the (Z_k)^5 grid cap: no thm route, subgraph and naive only
    rep = search_zeros(17, 4, 700)
    assert not rep.partial and rep.error is None
    assert [r.q for r in rep.records] == admissible_q(17, 700)


def test_search_empty_range():
    rep = search_zeros(2, 4, 4)
    assert rep.records == [] and rep.bound is None


def test_report_json_uses_decimal_strings():
    rep = search_zeros(2, 3, 30)
    data = rep.to_json()
    assert all(isinstance(r["count"], str) for r in data["records"])
    assert all(set(r["field"]) == {"p", "r", "q", "modulus", "primitive"}
               for r in data["records"])
    assert data["bound"] == 6


def test_jobs_do_not_change_results():
    rep1 = search_zeros(3, 4, 150, jobs=1)
    rep2 = search_zeros(3, 4, 150, jobs=3)
    assert [(r.q, r.count) for r in rep1.records] == [(r.q, r.count) for r in rep2.records]


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    rep1 = search_zeros(3, 4, 100, cache_path=path)
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert len(lines) == len(rep1.records)
    for rec in lines:
        assert rec["k"] == 3 and rec["m"] == 4
        assert isinstance(rec["count"], str)
        assert set(rec["field"]) == {"p", "r", "q", "modulus", "primitive"}
    # a second run must hit the cache and agree
    rep2 = search_zeros(3, 4, 100, cache_path=path)
    assert [(r.q, r.count) for r in rep1.records] == [(r.q, r.count) for r in rep2.records]
    with open(path) as fh:
        assert len(fh.readlines()) == len(lines)   # nothing re-appended
    # cold recomputation agrees with the cached values
    rep3 = search_zeros(3, 4, 100)
    assert [(r.q, r.count) for r in rep3.records] == [(r.q, r.count) for r in rep1.records]


def test_cache_partial_extension(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    search_zeros(3, 4, 60, cache_path=path)
    rep = search_zeros(3, 4, 130, cache_path=path)
    assert rep.bound == 128
    keys = set()
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            keys.add((rec["k"], rec["q"], rec["m"]))
    assert keys == {(3, q, 4) for q in admissible_q(3, 130)}


def test_paper_bounds_table():
    assert PAPER_BOUNDS[(4, 3)] == (128, 127)
    assert PAPER_BOUNDS[(3, 6)] == (278, 277)


def test_bound_property_requires_zeros():
    rep = SearchReport(k=2, m=4, q_max=10, records=[])
    assert rep.bound is None and rep.zero_qs == []


def test_partial_report_on_per_q_error(monkeypatch):
    from gpaley import ramsey_search

    real = ramsey_search._search_q

    def explode_at_13(args):
        if args[1] >= 13:
            raise RuntimeError("synthetic failure")
        return real(args)

    monkeypatch.setattr(ramsey_search, "_search_q", explode_at_13)
    rep = ramsey_search.search_zeros(2, 3, 30, jobs=1)
    assert rep.partial
    assert "synthetic failure" in rep.error
    assert [r.q for r in rep.records] == [5, 9]
    assert rep.to_json()["partial"] is True


def _records(rep):
    return [(r.q, r.count, r.method, r.field) for r in rep.records]


def test_cache_with_truncated_last_line(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    search_zeros(3, 4, 100, cache_path=path)
    with open(path) as fh:
        text = fh.read()
    last = text.rstrip("\n").rsplit("\n", 1)[1]
    torn = text[:len(text) - len(last) // 2 - 1]        # cut the last record mid-line
    with open(path, "w") as fh:
        fh.write(torn)
    rep = search_zeros(3, 4, 100, cache_path=path)
    fresh = search_zeros(3, 4, 100)
    assert _records(rep) == _records(fresh)
    assert rep.zero_qs == fresh.zero_qs and rep.bound == fresh.bound
    # the recomputed q went onto a line of its own: a third run hits the cache
    with open(path) as fh:
        n_lines = len(fh.readlines())
    assert _records(search_zeros(3, 4, 100, cache_path=path)) == _records(fresh)
    with open(path) as fh:
        assert len(fh.readlines()) == n_lines


def _tamper_first_nonzero(path, rep):
    from gpaley.paley_graph import ORACLE_CAP

    victim = next(r.q for r in rep.records if r.count > 0)
    assert victim <= ORACLE_CAP[4]
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    for rec in lines:
        if rec["q"] == victim:
            rec["count"] = "0"
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in lines)


def test_tampered_cache_count_raises_cross_check_mismatch(tmp_path):
    from gpaley.errors import CrossCheckMismatch, GPaleyError

    path = str(tmp_path / "cache.jsonl")
    _tamper_first_nonzero(path, search_zeros(3, 4, 100, cache_path=path))
    with pytest.raises(CrossCheckMismatch):
        search_zeros(3, 4, 100, cache_path=path)
    assert issubclass(CrossCheckMismatch, GPaleyError)


def test_tampered_cache_raises_from_worker_processes(tmp_path):
    from gpaley.errors import CrossCheckMismatch

    path = str(tmp_path / "cache.jsonl")
    _tamper_first_nonzero(path, search_zeros(3, 4, 100, cache_path=path))
    with pytest.raises(CrossCheckMismatch):
        search_zeros(3, 4, 100, cache_path=path, jobs=2)


def _cached_qs(path):
    with open(path) as fh:
        return {json.loads(line)["q"] for line in fh}


def test_count_that_fails_its_check_is_not_cached(monkeypatch, tmp_path):
    from gpaley import paley_graph
    from gpaley.errors import CrossCheckMismatch

    # q = 67 is in the seed-0 sample of the k = 3 search to 100; its count
    # is 0, and 6 H1 edges keep the subgraph route's division exact
    real = paley_graph.h1_edge_count
    monkeypatch.setattr(paley_graph, "h1_edge_count",
                        lambda g: real(g) + (6 if g.q == 67 else 0))
    path = str(tmp_path / "cache.jsonl")
    with pytest.raises(CrossCheckMismatch, match="q=67"):
        search_zeros(3, 4, 100, cache_path=path)
    assert 67 not in _cached_qs(path)
    monkeypatch.undo()
    # a rerun that does not sample 67 still counts it, and finds the zero
    assert 67 in search_zeros(3, 4, 100, cache_path=path, seed=5).zero_qs


def _build_calls(monkeypatch):
    from gpaley import ramsey_search

    calls = []
    real = ramsey_search.build_field

    def counted(p, r, **kwargs):
        calls.append(p ** r)
        return real(p, r, **kwargs)

    monkeypatch.setattr(ramsey_search, "build_field", counted)
    return calls


def test_each_fresh_q_builds_its_field_once(monkeypatch):
    calls = _build_calls(monkeypatch)
    rep = search_zeros(3, 4, 230)
    assert calls == admissible_q(3, 230) == [r.q for r in rep.records]


def test_cache_hits_build_only_the_checked_q(monkeypatch, tmp_path):
    import random

    from gpaley.paley_graph import ORACLE_CAP
    from gpaley.ramsey_search import THM2_CROSSCHECK_CAP

    path = str(tmp_path / "cache.jsonl")
    first = search_zeros(3, 4, 230, cache_path=path)
    calls = _build_calls(monkeypatch)
    second = search_zeros(3, 4, 230, cache_path=path)
    assert _records(second) == _records(first)
    eligible = [q for q in admissible_q(3, 230) if q <= THM2_CROSSCHECK_CAP]
    sample = random.Random(0).sample(eligible, len(eligible) // 10)
    zeros = [q for q in first.zero_qs if q <= ORACLE_CAP[4]]
    assert calls == sorted(set(sample) | set(zeros))


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_value_error(jobs):
    with pytest.raises(ValueError, match="at least 1"):
        search_zeros(2, 3, 30, jobs=jobs)
