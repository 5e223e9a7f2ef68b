"""Deterministic fan-out of independent tasks over worker processes.

Results always come back in task order, so any associative merge yields
the same value for one worker as for many.
"""

import multiprocessing
import os
import threading
from itertools import takewhile


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
    """The first `fn(t)` in task order that is not None, or None.  One process
    computes no task after the hit; a pool (bounded like `parallel_map`'s) gets
    a task per free worker and lets those in flight finish after the hit, as a
    worker killed mid-send would leave the result queue locked for good."""
    tasks = list(tasks)
    size = _pool_size(workers, tasks)
    if size <= 1:
        return next((r for r in map(fn, tasks) if r is not None), None)
    free, hit = threading.Semaphore(size), []
    # read on the pool's task thread, which blocks here until a worker is free
    feed = takewhile(lambda _: free.acquire() and not hit, tasks)
    with multiprocessing.get_context("fork").Pool(size) as pool:
        try:
            for r in pool.imap(fn, feed):
                if r is not None and not hit:
                    hit.append(r)
                free.release()
        finally:  # on an error too: end the feed, which may be waiting
            hit.append(None)
            free.release()
    return hit[0]
