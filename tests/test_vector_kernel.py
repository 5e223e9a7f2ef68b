"""The order-3 vector kernel against the authoritative predicates.

`engines.v3_eval` evaluates a conjunction of descriptors over the 8^6 tails of
one chunk (a fixed first row) on factored tail axes, and runs the triple laws
only on the tails that survive the other descriptors.  Every mask checked
here must be a flat 8^6 mask in canonical tail order or a numpy scalar, and
must agree with `engines.satisfies_all` on the decoded table: at every
survivor of the conjunctions (which run the compacted path) and at sampled
tails otherwise.  Chunk heads are drawn from a fixed seed.
"""

import random

import numpy as np
import pytest

from hyperlab import axioms, classify, engines, enumeration, theorems
from hyperlab.engines import at
from hyperlab.model import HyperTable, table_key

TAILS = 8 ** 6
SEED = 20261018
HEADS = engines.vector_sweep3_tasks()
T6_RUNS = list(enumeration.two_op_plan(3, classify.axioms_of("multiplicative-hyperring-def7")))


def _vectorizable_descriptors():
    out = [("law", law) for law in sorted(axioms.LAW_IDS)]
    for e in range(3):
        out += [
            ("identity-at", e),
            ("polysymmetry-at", e, False),
            ("polysymmetry-at", e, True),
            ("unique-opposite-at", e),
            ("scalar-zero-at", e),
        ]
    out += [("divisions-nonempty",), ("not", ("law", "degenerate"))]
    out += [("not", ("law", "associative"))]
    for run in T6_RUNS:  # the multiplication over each additive group
        out += [("distributive-inclusion-over", run.fixed), ("sign-rule-over", run.fixed, run.zero)]
    return out


DESCRIPTORS = _vectorizable_descriptors()

CONJUNCTIONS = {
    "qmp": [at(c, 0) for c in classify.axioms_of("qmp-hypergroup")],
    "weak-qmp": list(theorems._descriptors_at(theorems._WEAK_QMP.premises[0], 0)),
    "canonical[:3]": [at(c, 1) for c in classify.axioms_of("canonical-hypergroup")[:3]],
    "T9-left": [("law", "left-inverted-associative"), ("law", "reproductive")],
    "T9-right": [("law", "right-inverted-associative"), ("law", "reproductive")],
    "T6": list(T6_RUNS[0].descriptors),
}


def _flat(mask):
    """The mask as a flat 8^6 array, after checking the kernel's contract."""
    if np.ndim(mask) == 0:
        assert isinstance(mask, np.bool_)
        return np.full(TAILS, bool(mask))
    assert mask.dtype == bool and mask.shape == (TAILS,)
    return mask


def _agrees(head, constraints, mask, indices):
    for i in indices:
        table = HyperTable(3, engines.v3_decode(head, int(i)))
        assert bool(mask[i]) == engines.satisfies_all(table, constraints), (head, int(i))


def _sample(rng, indices, k):
    return rng.sample(list(indices), min(k, len(indices)))


def test_descriptors_are_vectorizable():
    assert all(engines.vectorizable(c) for c in DESCRIPTORS)
    assert all(engines.vectorizable(c) for cs in CONJUNCTIONS.values() for c in cs)


@pytest.mark.parametrize("c", DESCRIPTORS, ids=repr)
def test_single_descriptor_mask(c):
    rng = random.Random(SEED)
    for head in rng.sample(HEADS, 3):
        mask = _flat(engines.v3_eval(engines.v3_chunk_cells(head), [c]))
        hits = np.flatnonzero(mask)
        misses = np.flatnonzero(~mask)
        _agrees(head, [c], mask, _sample(rng, hits, 24) + _sample(rng, misses, 24))


def _heads_with_survivors(constraints, rng, want=2):
    """The first `want` heads in a seeded order whose chunk has survivors,
    and the first without."""
    found, empty = [], []
    for head in rng.sample(HEADS, len(HEADS)):
        mask = _flat(engines.v3_eval(engines.v3_chunk_cells(head), constraints))
        (found if mask.any() else empty).append((head, mask))
        if len(found) >= want and empty:
            break
    return found[:want] + empty[:1]


@pytest.mark.parametrize("name", sorted(CONJUNCTIONS))
def test_conjunction_survivors(name):
    constraints = CONJUNCTIONS[name]
    rng = random.Random(SEED)
    chunks = _heads_with_survivors(constraints, rng)
    assert any(mask.any() for _, mask in chunks), "no chunk with survivors"
    for head, mask in chunks:
        hits = np.flatnonzero(mask)
        _agrees(head, constraints, mask, hits)
        _agrees(head, constraints, mask, _sample(rng, np.flatnonzero(~mask), 64))
        assert engines.v3_collect_chunk(head, constraints) == [
            engines.v3_decode(head, int(i)) for i in hits
        ]


def test_decode_is_increasing_in_table_key():
    rng = random.Random(SEED)
    heads = sorted(rng.sample(HEADS, 8))
    keys = []
    for head in heads:
        for i in sorted({0, TAILS - 1, *rng.sample(range(TAILS), 32)}):
            keys.append(table_key(HyperTable(3, engines.v3_decode(head, i))))
    assert all(a < b for a, b in zip(keys, keys[1:]))
