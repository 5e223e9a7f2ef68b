"""Canonical forms and table keys against the brute-force references in
`oracles`, which build one relabeled table and one tuple of `cell_key`s per
permutation."""

import json
import random
from importlib import resources
from itertools import permutations

import pytest

from hyperlab import enumeration, model
from hyperlab.classify import SINGLE_LABELS, TWO_OP_LABELS, candidate_rule, max_order
from hyperlab.enumeration import EnumerationJob, enumerate_models, job_is_two_op
from hyperlab.model import (
    KIND_COMPOSITION,
    KIND_HYPER,
    HyperTable,
    TwoOpModel,
    apply_permutation,
    canonical_form,
    canonical_form_two_op,
    orbit_representatives,
    table_key,
    two_op_key,
)

import oracles


def random_table(rng, order):
    """A table whose cells come from a small random palette, so that distinct
    relabelings often tie on long key prefixes."""
    if rng.random() < 0.2:
        kind, masks = KIND_COMPOSITION, [1 << i for i in range(order)]
    else:
        kind, masks = KIND_HYPER, range(1 << order)
    palette = rng.sample(masks, min(len(masks), rng.randint(1, 4)))
    return HyperTable(order, tuple(rng.choice(palette) for _ in range(order * order)), kind)


def pin_sets(order):
    return [pins for pins in ((), (0,), (0, 1), (order - 1,)) if max(pins, default=0) < order]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_canonical_form_equals_brute_force(order):
    rng = random.Random(1200 + order)
    for _ in range(40 if order == 5 else 150):
        table = random_table(rng, order)
        for pins in pin_sets(order):
            canon = canonical_form(table, pins)
            assert canon == oracles.canonical_form(table, pins), (table, pins)
            assert canonical_form(canon, pins) is canon


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_table_key_orders_tables_as_cell_key_tuples(order):
    rng = random.Random(1300 + order)
    tables = [random_table(rng, order) for _ in range(300)]
    assert sorted(tables, key=table_key) == sorted(tables, key=oracles.cell_key_table_key)
    for a, b in zip(tables, tables[1:]):
        assert (table_key(a) < table_key(b)) == (
            oracles.cell_key_table_key(a) < oracles.cell_key_table_key(b)
        )


def relabeled(m: TwoOpModel, perm) -> TwoOpModel:
    one = None if m.one is None else perm[m.one]
    add, mul = apply_permutation(m.add, perm), apply_permutation(m.mul, perm)
    return TwoOpModel(m.order, add, mul, perm[m.zero], one)


@pytest.mark.parametrize(
    "order, label, pins",
    [
        (3, "hyperfield", {"zero": 0, "one": 1}),
        (4, "hyperfield", {"zero": 0, "one": 1}),
        (3, "krasner-hyperring", {"zero": 0}),
    ],
)
def test_canonical_form_two_op_equals_brute_force_on_catalog_models(order, label, pins):
    models = []
    enumerate_models(EnumerationJob(order, (label,), emit=models.append, **pins))
    assert models
    # every relabeling of a catalog model moves its zero and one too
    for m in models:
        for perm in permutations(range(order)):
            r = relabeled(m, perm)
            assert canonical_form_two_op(r) == oracles.canonical_form_two_op(r), (r, perm)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_canonical_form_two_op_equals_brute_force_on_random_pairs(order):
    rng = random.Random(1400 + order)
    for _ in range(60):
        zero = rng.randrange(order)
        one = rng.choice([None] + [x for x in range(order) if x != zero])
        m = TwoOpModel(order, random_table(rng, order), random_table(rng, order), zero, one)
        canon = canonical_form_two_op(m)
        assert canon == oracles.canonical_form_two_op(m), m
        assert canonical_form_two_op(canon) is canon


def test_relabeling_cache_stays_bounded():
    model._relabelings.cache_clear()
    rng = random.Random(1500)
    keys = 0
    for order in range(1, 6):
        for pin in range(order):
            canonical_form(random_table(rng, order), (pin,))
            keys += 1
    # two-operation walks, each over the orbit of a random model under the
    # permutations fixing its zero and one
    for order in range(2, 5):
        for zero, one in ((0, None), (0, 1), (1, 0), (order - 1, None)):
            m = TwoOpModel(order, random_table(rng, order), random_table(rng, order), zero, one)
            pins = {zero, one} - {None}
            fixing = [p for p in permutations(range(order)) if all(p[x] == x for x in pins)]
            orbit = sorted({relabeled(m, p) for p in fixing}, key=two_op_key)
            assert orbit_representatives(orbit) == [canonical_form_two_op(m)]
            keys += 1
    info = model._relabelings.cache_info()
    assert keys > 8 and info.currsize <= 8, info


@pytest.mark.slow
def test_canonical_form_equals_brute_force_on_every_order3_hypergroup():
    models = []
    enumerate_models(EnumerationJob(3, ("hypergroup",), emit=models.append))
    assert len(models) == 23192
    for pins in ((), (0,)):
        forms = [canonical_form(m, pins) for m in models]
        assert forms == [oracles.canonical_form(m, pins) for m in models]
    assert len({f.cells for f in forms}) == 11721
    assert len({canonical_form(m).cells for m in models}) == 3999
    for pins, count in (((), 3999), ((0,), 11721)):
        reps = orbit_representatives(models, pins)
        assert len(reps) == count
        assert all(oracles.canonical_form(r, pins) == r for r in reps)


# -- the orbit walk of `enumerate_models` --------------------------------------


def _catalog_jobs():
    """The single-operation catalog jobs up to order 3, and every
    two-operation one."""
    with (resources.files("hyperlab") / "data" / "golden_catalog.json").open() as fh:
        entries = json.load(fh)["jobs"]
    for e in entries:
        job = EnumerationJob(e["order"], tuple(e["constraints"]), zero=e.get("zero"),
                             one=e.get("one"))
        if job.order <= 3 or job_is_two_op(job):
            yield pytest.param(job, id=e["name"])


def _pinned_jobs():
    """Every zero pin of the element-quantified and two-operation labels, up
    to order 3."""
    for label in SINGLE_LABELS + TWO_OP_LABELS:
        if candidate_rule(label):
            for order in range(1, min(3, max_order(label)) + 1):
                for zero in range(order):
                    yield pytest.param(EnumerationJob(order, (label,), zero=zero),
                                       id=f"{label}/{order}@{zero}")


def _emitted(job, up_to_iso):
    models = []
    job = EnumerationJob(job.order, job.constraints, up_to_iso, job.zero, job.one,
                         emit=models.append)
    summary = enumerate_models(job)
    return summary, models


@pytest.mark.parametrize("job", [*_catalog_jobs(), *_pinned_jobs()])
def test_orbit_walk_classes_are_the_oracle_canonical_forms(job):
    summary, models = _emitted(job, False)
    _, reps = _emitted(job, True)
    if job_is_two_op(job):
        forms = sorted(set(map(oracles.canonical_form_two_op, models)), key=two_op_key)
    else:
        pins = () if job.zero is None else (job.zero,)
        forms = sorted({oracles.canonical_form(m, pins) for m in models}, key=table_key)
    assert reps == forms
    assert summary.canonical_count == len(forms) and summary.raw_count == len(models)


def test_orbit_walk_keeps_the_first_table_of_each_orbit():
    t = HyperTable(2, (1, 2, 2, 1))
    swapped = apply_permutation(t, (1, 0))
    tables = sorted({t, swapped}, key=table_key)
    assert orbit_representatives(tables) == tables[:1]
    assert orbit_representatives(tables, (0,)) == tables
    assert orbit_representatives([]) == []


@pytest.mark.usefixtures("drop_one_model")
def test_orbit_walk_refuses_a_set_missing_one_model():
    with pytest.raises(RuntimeError, match="orbit not closed"):
        enumerate_models(EnumerationJob(3, ("canonical-hypergroup",)))
    with pytest.raises(RuntimeError, match="orbit not closed"):
        enumerate_models(EnumerationJob(3, ("canonical-hypergroup",), zero=1))


@pytest.mark.usefixtures("wrong_transposition")
def test_orbit_walk_refuses_a_set_mapped_by_a_wrong_transposition():
    with pytest.raises(RuntimeError, match="orbit not closed"):
        enumerate_models(EnumerationJob(3, ("canonical-hypergroup",)))


def test_two_operation_canonical_forms_run_once_per_class(monkeypatch):
    calls = []
    real = enumeration.canonical_form_two_op
    monkeypatch.setattr(enumeration, "canonical_form_two_op", lambda m: calls.append(m) or real(m))
    summary = enumerate_models(EnumerationJob(3, ("multiplicative-hyperring-def7",), zero=0))
    assert (summary.raw_count, summary.canonical_count, len(calls)) == (40, 33, 33)


def test_orbit_walk_groups_two_operation_models_by_their_pins():
    # unpinned, the models at each zero are walked under the permutations
    # fixing that zero, and so are the classes the oracle forms give
    job = EnumerationJob(3, ("multiplicative-hyperring-def7",))
    summary, models = _emitted(job, False)
    _, reps = _emitted(job, True)
    assert {m.zero for m in models} == {0, 1, 2}
    assert reps == sorted(set(map(oracles.canonical_form_two_op, models)), key=two_op_key)
    assert summary.canonical_count == 3 * 33


def test_enumeration_refuses_a_representative_that_is_not_canonical(monkeypatch):
    # out of key order the walk keeps the last table of each orbit, which is
    # closed all the same; the revalidation of each kept table catches it
    real = enumeration.element_sweep

    def reversed_sweep(*args, **kwargs):
        pairs, pruned = real(*args, **kwargs)
        return pairs[::-1], pruned

    monkeypatch.setattr(enumeration, "element_sweep", reversed_sweep)
    with pytest.raises(RuntimeError, match="not its canonical form"):
        enumerate_models(EnumerationJob(3, ("canonical-hypergroup",)))
