"""Canonical forms and table keys against the brute-force references in
`oracles`, which build one relabeled table and one tuple of `cell_key`s per
permutation."""

import random
from itertools import permutations

import pytest

from hyperlab import model
from hyperlab.enumeration import EnumerationJob, enumerate_models
from hyperlab.model import (
    KIND_COMPOSITION,
    KIND_HYPER,
    HyperTable,
    TwoOpModel,
    apply_permutation,
    canonical_form,
    canonical_form_two_op,
    table_key,
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
