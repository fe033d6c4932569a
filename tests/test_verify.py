"""run_suite: the in-process loop, the process pool, and their agreement."""

import multiprocessing
import os

import pytest

from gpaley import verify
from gpaley.errors import ZeroInput


def _triples(results):
    return [(res.name, res.passed, res.detail) for res in results]


def test_pool_returns_the_serial_results_in_the_serial_order():
    serial = verify.run_suite("quick", jobs=1)
    pooled = verify.run_suite("quick", jobs=2)
    assert _triples(pooled) == _triples(serial)
    assert all(res.passed for res in pooled)
    assert multiprocessing.active_children() == []
    # each result carries the time of its check, measured in its worker;
    # check_jacobi_props returns three results from one call: one time, split
    assert all(res.seconds > 0 for res in pooled)
    assert pooled[0].line().endswith(f" ({pooled[0].seconds:.3f} s)")
    jacobi = [res.seconds for res in pooled if res.name.startswith("Jacobi")]
    assert len(jacobi) == 3 and len(set(jacobi)) == 1


def test_a_check_that_raises_in_a_worker_raises_here_and_leaves_no_child(monkeypatch):
    # the workers are forked (the default start method here), so they run
    # the patched check
    def broken(*args, **kwargs):
        raise ZeroInput("injected")

    monkeypatch.setattr(verify, "check_orbit_invariance", broken)
    with pytest.raises(ZeroInput, match="injected"):
        verify.run_suite("quick", jobs=2)
    assert multiprocessing.active_children() == []


def test_the_cross_method_and_clique_checks_share_one_task_in_suite_order():
    calls = verify._suite_calls("paper", 2, verify.IDENTITY_SEED)
    tasks = verify._suite_tasks("paper", 2, verify.IDENTITY_SEED)
    names = [[calls[pos].func.__name__ for pos in task] for task in tasks]
    assert names[0] == ["check_cross_method_equality", "check_clique_recursions"]
    assert sorted(pos for task in tasks for pos in task) == list(range(len(calls)))
    assert all(list(task) == sorted(task) for task in tasks)


def test_checks_the_order_does_not_name_still_run(monkeypatch):
    def renamed(*args, **kwargs):
        return verify.CheckResult("renamed", True, "ran")

    monkeypatch.setattr(verify, "check_paper_zeros", renamed)
    monkeypatch.setattr(verify, "check_strong_regularity", renamed)
    calls = verify._suite_calls("quick", 2, verify.IDENTITY_SEED)
    tasks = verify._suite_tasks("quick", 2, verify.IDENTITY_SEED)
    assert tasks[-2:] == [(1,), (len(calls) - 1,)]
    assert sorted(pos for task in tasks for pos in task) == list(range(len(calls)))


def test_one_available_cpu_runs_the_checks_in_this_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was opened")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(verify, "ProcessPoolExecutor", no_pool)
    results = verify.run_suite("quick")
    assert all(res.passed for res in results)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_a_value_error(jobs):
    with pytest.raises(ValueError, match="at least 1"):
        verify.run_suite("quick", jobs=jobs)
