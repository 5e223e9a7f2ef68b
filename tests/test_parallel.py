"""The command's one worker pool: every public entry point forks at most one
pool for all of its sweeps and searches, none at one worker or on one CPU,
and no child process outlives the call, also when it raises.  A pool
worker runs nested calls in process."""

import multiprocessing
import os

import pytest

from hyperlab import cli, parallel
from hyperlab.dorroh import associativity_probe
from hyperlab.enumeration import EnumerationJob, enumerate_models, golden_check
from hyperlab.samples import sign_hyperfield
from hyperlab.theorems import search_independence, verify


@pytest.fixture
def pools(monkeypatch):
    """The sizes of the pools forked, on two CPUs."""
    built = []
    real = multiprocessing.get_context

    class Counting:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, size):
            built.append(size)
            return self.context.Pool(size)

    monkeypatch.setattr(parallel.multiprocessing, "get_context", Counting)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    return built


def _golden():
    return golden_check(cli.default_catalog_path(), workers=2)


def _t28_drops():
    return verify("T28", 3, drop_premises=True, workers=2)


@pytest.mark.parametrize("command", [_golden, _t28_drops])
def test_a_command_forks_one_pool(pools, command):
    # the parent forked 34 pools for golden-check and 19 for T28/3's drops
    command()
    assert pools == [2]
    assert not multiprocessing.active_children()


def test_one_worker_forks_no_pool(pools):
    golden_check(cli.default_catalog_path(), workers=1)
    verify("T28", 3, drop_premises=True, workers=1)
    associativity_probe(sign_hyperfield(), 2, workers=1)
    assert pools == []


def test_nested_entries_share_the_outer_pool(pools):
    jobs = [EnumerationJob(3, ("canonical-hypergroup",)), EnumerationJob(3, ("normal-hypergroup",))]
    with parallel.pool(2):
        for job in jobs:
            enumerate_models(job, workers=2)
        assert len(multiprocessing.active_children()) == 2
    assert pools == [2]
    assert not multiprocessing.active_children()


def test_no_child_outlives_a_public_call(pools):
    calls = [
        lambda: verify("T25", 3, drop_premises=True, workers=2),
        lambda: search_independence(["reproductive"], "associative", 3, workers=2),
        lambda: enumerate_models(EnumerationJob(3, ("canonical-hypergroup",)), workers=2),
        lambda: associativity_probe(sign_hyperfield(), 2, workers=2),
        _golden,
    ]
    for call in calls:
        call()
        assert not multiprocessing.active_children()
    assert pools == [2] * len(calls)


def _inverse(x):
    return 1 / x


def _hit_at_one(x):
    return x if 1 / x == 1 else None


def test_no_child_outlives_a_task_that_raises(pools):
    with pytest.raises(ZeroDivisionError):
        with parallel.pool(2):
            parallel.parallel_map(_inverse, [1, 2, 0, 3])
    assert not multiprocessing.active_children()
    with pytest.raises(ZeroDivisionError):
        with parallel.pool(2):
            parallel.first_hit(_hit_at_one, [2, 4, 0, 1, 6])
    assert not multiprocessing.active_children()
    assert pools == [2, 2]


@pytest.mark.usefixtures("drop_one_model")
def test_no_child_outlives_the_cli_internal_error_path(pools, capsys):
    argv = ["enumerate", "--order", "3", "--structure", "canonical-hypergroup", "--workers", "2"]
    for command in (argv, ["golden-check", "--workers", "2"]):
        assert cli.main(command) == 1
        assert capsys.readouterr().err.startswith("error: internal: orbit not closed")
        assert not multiprocessing.active_children()
    assert pools[:1] == [2]  # the enumeration raised with its pool forked


def _pids(_):
    return os.getpid()


def _nested_map(_):
    return os.getpid(), parallel.parallel_map(_pids, range(4))


def _nested_first_hit(_):
    return os.getpid(), parallel.first_hit(_pids, range(4))


def test_a_pool_worker_runs_nested_calls_in_process(pools):
    with parallel.pool(2):
        mapped = parallel.parallel_map(_nested_map, range(4))
        hits = parallel.parallel_map(_nested_first_hit, range(4))
    assert pools == [2]
    assert all(pid != os.getpid() and inner == [pid] * 4 for pid, inner in mapped)
    assert all(pid != os.getpid() and inner == pid for pid, inner in hits)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_workers_are_bounded_by_the_cpus_the_process_may_use(pools, monkeypatch, capsys):
    # two CPUs in the machine, one of them allowed to this process
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    assert parallel.default_workers() == 1
    assert cli.main(["verify", "--theorem", "T28", "--order", "3", "--workers", "8"]) == 0
    assert cli.main(["golden-check", "--workers", "8"]) == 0
    capsys.readouterr()
    assert pools == []
