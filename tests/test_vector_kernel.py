"""The order-3 vector kernel against the authoritative predicates.

`engines.v3_eval` evaluates a conjunction of descriptors over the 8^6 tails of
one chunk (a fixed first row) on factored tail axes, and runs the triple laws
on the tails that survive the other descriptors once few do.  Every mask
checked here must be a numpy bool or a bool array that broadcasts to the tail
shape (8,)*6, whose C order is the canonical tail order.  Broadcast and
flattened, it must agree with `engines.satisfies_all` on the decoded table: at
every survivor of the conjunctions and at sampled tails otherwise.  Count mode
must give the counts and first failures of those masks, and the kernel's
conjunction the AND of its parts.  Chunk heads are drawn from a fixed seed.
"""

import random

import numpy as np
import pytest

from hyperlab import axioms, classify, engines, enumeration, theorems
from hyperlab.engines import at
from hyperlab.model import HyperTable, key_sorted_masks, table_key

TAILS = 8 ** 6
TAIL_SHAPE = (8,) * 6
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
    out += [("not", ("divisions-nonempty",)), ("not", ("law", "reproductive"))]
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
    """The mask as a flat 8^6 array in canonical tail order, after checking
    the kernel's contract: a numpy bool, or a bool array that broadcasts to
    the tail shape (8,)*6."""
    if np.ndim(mask) == 0:
        assert isinstance(mask, np.bool_)
        return np.full(TAILS, bool(mask))
    assert isinstance(mask, np.ndarray) and mask.dtype == bool
    assert np.broadcast_shapes(mask.shape, TAIL_SHAPE) == TAIL_SHAPE
    return np.broadcast_to(mask, TAIL_SHAPE).reshape(-1)


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


def _claim_count(tid, conclusion=None):
    """The premise runs, conclusion and biconditional flag of a count-mode
    claim, with the conclusion replaced by the given ids if any."""
    claim = theorems.CLAIMS[tid]
    runs = tuple(theorems._descriptors_at(run, None) for run in claim.premises)
    ids = claim.conclusion if conclusion is None else conclusion
    return runs, theorems._descriptors_at(ids, None), claim.biconditional is not None


COUNTS = {
    "T7": _claim_count("T7"),
    "T7-commutative": _claim_count("T7", ("commutative",)),
    "T9": _claim_count("T9"),
    "T9-total": _claim_count("T9", ("total",)),
    "T11": _claim_count("T11"),
    "T11-cellwise": _claim_count("T11", ("reproductive", "cellwise-nonempty")),
}


def _flat_count(head, runs, conclusion, biconditional):
    """(premise count, first failure or None) read off the flat masks."""
    cells = engines.v3_chunk_cells(head)
    premise = np.zeros(TAILS, dtype=bool)
    for run in runs:
        premise |= _flat(engines.v3_eval(cells, list(run))) if run else True
    if biconditional:
        a, b = (_flat(engines.v3_eval(cells, [c])) for c in conclusion)
        bad = premise & (a != b)
    else:
        bad = premise & ~_flat(engines.v3_eval(cells, list(conclusion)))
    hits = np.flatnonzero(bad)
    return int(np.count_nonzero(premise)), hits[0] if hits.size else None


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_count_chunk_matches_the_flat_masks(name):
    runs, conclusion, biconditional = COUNTS[name]
    rng = random.Random(SEED)
    counted = failed = 0
    for head in rng.sample(HEADS, 24):
        count, first = engines.v3_count_chunk(head, runs, conclusion, biconditional)
        flat_count, i = _flat_count(head, runs, conclusion, biconditional)
        assert count == flat_count, head
        assert first == (None if i is None else engines.v3_decode(head, int(i))), head
        counted += count > 0
        if first is not None:
            failed += 1
            table = HyperTable(3, first)
            assert any(engines.satisfies_all(table, run) for run in runs)
            holds = [engines.constraint_holds(table, c) for c in conclusion]
            assert holds[0] != holds[1] if biconditional else not all(holds)
    assert counted
    # the claims hold, so only the replaced conclusions fail
    assert bool(failed) == (name not in theorems.CLAIMS)


def test_conjunction_is_the_and_of_its_parts():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        # a few shapes per conjunction, so that most shapes repeat
        shapes = [tuple(8 if a else 1 for a in rng.random(6) < 0.4) for _ in range(4)]
        parts = []
        for _ in range(rng.integers(1, 12)):
            kind = rng.integers(10)
            if kind == 0:
                parts.append(bool(rng.random() < 0.9))
            elif kind == 1:
                parts.append(np.bool_(rng.random() < 0.9))
            else:
                part = rng.random(shapes[rng.integers(4)]) < 0.97
                part.setflags(write=False)
                parts.append(part)
        before = [np.copy(p) for p in parts]
        want = np.logical_and.reduce([np.broadcast_to(p, TAIL_SHAPE) for p in parts])
        assert np.array_equal(_flat(engines._v3_conj(parts)), want.reshape(-1))
        assert all(np.array_equal(p, q) for p, q in zip(parts, before))


def test_module_arrays_are_read_only():
    planes = [p for axis in engines._V3_BIT_PLANES for p in axis]
    arrays = [engines._V3_CODE_TO_MASK, *engines._V3_TAIL_CELLS, *planes]
    assert not any(a.flags.writeable for a in arrays)
    cells = engines.v3_chunk_cells((1, 2, 3))
    with pytest.raises(ValueError):
        cells[3] |= 1
    with pytest.raises(ValueError):
        planes[0] |= True
    assert engines._V3_CODE_TO_MASK.tolist() == list(key_sorted_masks(3))
