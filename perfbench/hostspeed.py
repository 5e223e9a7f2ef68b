"""A fixed reference computation that measures how fast the host runs now.

On a shared host the same pass can run tens of percent slower a few minutes
later, because other tenants slow the vCPU itself; CPU time slows with wall
time.  The pass worker times `calibrate()` every half second of a pass, and
the benchmark divides the pass's times by `slowdown`, the mean sample over
REFERENCE_S.  A slow spell of the host then cancels out while a change to
hyperlab does not: the kernel imports nothing from hyperlab and runs with the
cyclic garbage collector off.  A sample is the kernel's CPU time, so a sample
that shares its CPU with a busy worker is not counted as slow.

The kernel is interpreter work like hyperlab's own: integer arithmetic, a
pointer chase through a small shuffled table with dict lookups, and short-lived
tuples and frozensets.  Its working set stays in the core's private caches; a
table larger than them tracked the program's slowdowns poorly.  Measured on a
2-vCPU VM over four minutes, 10-sample means of this kernel and of
`verify --theorem T13 --order 4` moved together (log-log slope 1.06), and
their ratio varied 3% where the raw times varied 13%.
"""

import gc
import random
import time

TABLE_SIZE = 256
ARITH_STEPS = 130_000
CHASE_STEPS = 100_000
TUPLE_STEPS = 50_000

# About the mean calibrate() time over the runs that set up this benchmark on
# a shared 2-vCPU Intel Xeon VM (Python 3.11.7): scaled times read as seconds
# of that host.
REFERENCE_S = 0.05


def _build():
    order = list(range(TABLE_SIZE))
    random.Random(20100101).shuffle(order)
    chain = [0] * TABLE_SIZE  # one cycle through every slot
    for a, b in zip(order, order[1:] + order[:1]):
        chain[a] = b
    weights = {k: (k * 2654435761) & 0xFF for k in range(TABLE_SIZE)}
    return chain, weights


_CHAIN, _WEIGHTS = _build()


def _kernel() -> int:
    acc = 0
    for i in range(ARITH_STEPS):
        acc ^= (i * 2654435761) & 0x3FFF
    chain, weights = _CHAIN, _WEIGHTS
    j = 0
    for _ in range(CHASE_STEPS):
        j = chain[j]
        acc += weights[j]
    for i in range(TUPLE_STEPS):
        acc += len(frozenset((i & 3, (i >> 2) & 3, i & 7)))
    return acc


def calibrate() -> float:
    """CPU seconds one run of the reference kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        acc = _kernel()
        elapsed = time.thread_time() - start
    finally:
        if enabled:
            gc.enable()
    if acc <= 0:  # keeps the kernel's result live
        raise RuntimeError("calibration kernel computed nothing")
    return elapsed


def slowdown(samples) -> float:
    """How much slower than the reference host the samples say this one is."""
    return sum(samples) / len(samples) / REFERENCE_S
