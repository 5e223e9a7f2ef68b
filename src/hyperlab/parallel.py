"""Deterministic fan-out of independent tasks over worker processes.

Results always come back in task order, so any associative merge yields
the same value for one worker as for many.

A command decides how many processes run its tasks once, where it starts:
each public entry point opens `pool(workers)` around its work, and a nested
entry reuses the outer context.  Inside it, `parallel_map` and `first_hit`
share one pool of min(workers, CPUs) processes, forked on the first call
with at least 2 tasks and terminated and joined when the outermost context
exits, on an error too.  Outside a context, and inside a pool worker (which
cannot fork), every call runs in process.  Tasks carry what they need, so
a worker forked before a sweep began rebuilds that sweep's state from its
tasks (`engines._backtracker` caches one build per process).
"""

import multiprocessing
import os
import threading
from contextlib import contextmanager
from itertools import takewhile


def default_workers() -> int:
    """The CPUs this process may run on, which also cap every pool."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Context:
    """An open `pool` context: its process count, the pid that may fork its
    pool (a forked worker inherits the context but runs tasks in process),
    and the pool once forked."""

    def __init__(self, size):
        self.size, self.owner, self.pool = size, os.getpid(), None

    def processes(self, tasks, cap=None):
        """The pool for a call over `tasks` capped at `cap` processes, or
        None to run it in process."""
        size = self.size if cap is None else min(cap, self.size)
        if size <= 1 or len(tasks) <= 1 or os.getpid() != self.owner:
            return None
        if self.pool is None:
            self.pool = multiprocessing.get_context("fork").Pool(self.size)
        return self.pool

    def close(self):
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()


_context = None


@contextmanager
def pool(workers: int):
    """Run the enclosed calls' tasks on at most min(workers, CPUs) processes
    of one shared pool; a nested context reuses the outer one."""
    global _context
    if _context is not None:
        yield
        return
    _context = _Context(min(workers, default_workers()))
    try:
        yield
    finally:
        context, _context = _context, None
        context.close()


def parallel_map(fn, tasks, workers=None) -> list:
    """`[fn(t) for t in tasks]`, computed in task order on the open context's
    pool, or in process outside one.  `workers` None takes the context's
    count, and an explicit count caps the call, so 1 runs it in process:
    perfbench's tracer forwards the count it is given, 1 when a call passes
    none, and traced passes run at `--workers 1`, where both mean in
    process."""
    tasks = list(tasks)
    workers_pool = None if _context is None else _context.processes(tasks, workers)
    if workers_pool is None:
        return [fn(t) for t in tasks]
    return workers_pool.map(fn, tasks)


def first_hit(fn, tasks):
    """The first `fn(t)` in task order that is not None, or None.  In process
    no task is computed after the hit; on the context's pool each free worker
    gets the next task, and the tasks in flight after the hit finish before
    the call returns: a worker killed mid-send would leave the result queue
    locked for good, and a feed left blocked on the pool's task thread would
    stall every later call."""
    tasks = list(tasks)
    workers_pool = None if _context is None else _context.processes(tasks)
    if workers_pool is None:
        return next((r for r in map(fn, tasks) if r is not None), None)
    free, hit = threading.Semaphore(_context.size), []
    # read on the pool's task thread, which blocks here until a worker is free
    feed = takewhile(lambda _: free.acquire() and not hit, tasks)
    try:
        for r in workers_pool.imap(fn, feed):
            if r is not None and not hit:
                hit.append(r)
            free.release()
    finally:  # on an error too: end the feed, which may be waiting
        hit.append(None)
        free.release()
    return hit[0]
