"""Deterministic fan-out of independent tasks over worker processes.

Results always come back in task order, so any associative merge yields
the same value for one worker as for many.
"""

import multiprocessing
import os


def default_workers() -> int:
    return os.cpu_count() or 1


def _pool_size(workers, tasks) -> int:
    return min(workers, len(tasks), os.cpu_count() or 1)


def parallel_map(fn, tasks, workers: int = 1) -> list:
    """`[fn(t) for t in tasks]`, computed in task order by `workers`
    processes, but never more than there are tasks or CPUs."""
    tasks = list(tasks)
    size = _pool_size(workers, tasks)
    if size <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.get_context("fork").Pool(size) as pool:
        return pool.map(fn, tasks)


def first_hit(fn, tasks, workers: int = 1):
    """The first `fn(t)` in task order that is not None, or None.  One
    process computes no task after the hit; a pool (bounded like
    `parallel_map`'s) is consumed in task order and terminated at the hit."""
    tasks = list(tasks)
    size = _pool_size(workers, tasks)
    if size <= 1:
        return next((r for r in map(fn, tasks) if r is not None), None)
    with multiprocessing.get_context("fork").Pool(size) as pool:
        return next((r for r in pool.imap(fn, tasks) if r is not None), None)
