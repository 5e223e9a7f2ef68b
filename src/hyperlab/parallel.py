"""Deterministic fan-out of independent tasks over worker processes.

Results always come back in task order, so any associative merge yields
the same value for one worker as for many.
"""

import multiprocessing
import os


def default_workers() -> int:
    return os.cpu_count() or 1


def parallel_map(fn, tasks, workers: int = 1) -> list:
    """`[fn(t) for t in tasks]`, computed in task order by `workers`
    processes, but never more than there are tasks or CPUs."""
    tasks = list(tasks)
    size = min(workers, len(tasks), os.cpu_count() or 1)
    if size <= 1:
        return [fn(t) for t in tasks]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(size) as pool:
        return pool.map(fn, tasks)
