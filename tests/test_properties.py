"""Randomized law properties; every suite runs 1000 cases from a fixed
derandomized seed."""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from hyperlab import axioms, theorems
from hyperlab.classify import classify_single, classify_two_op
from hyperlab.model import (
    HyperTable,
    TwoOpModel,
    apply_permutation,
    canonical_form,
    complex_product,
    left_division,
    members_of,
    right_division,
)
from hyperlab.modelio import parse_model, serialize_model

import oracles

SUITE = settings(max_examples=1000, derandomize=True, deadline=None)


@st.composite
def tables(draw, max_order=5, kind="hyper", allow_empty=True):
    order = draw(st.integers(1, max_order))
    n2 = order * order
    if kind == "composition":
        cells = [1 << draw(st.integers(0, order - 1)) for _ in range(n2)]
    else:
        low = 0 if allow_empty else 1
        cells = [draw(st.integers(low, (1 << order) - 1)) for _ in range(n2)]
    return HyperTable(order, tuple(cells), kind)


@st.composite
def tables_with_permutation(draw, max_order=5):
    table = draw(tables(max_order=max_order))
    perm = draw(st.permutations(range(table.order)))
    return table, tuple(perm)


@st.composite
def two_op_models(draw, max_order=4):
    order = draw(st.integers(1, max_order))
    n2 = order * order
    add = HyperTable(
        order, tuple(draw(st.integers(0, (1 << order) - 1)) for _ in range(n2))
    )
    mul = HyperTable(
        order, tuple(draw(st.integers(0, (1 << order) - 1)) for _ in range(n2))
    )
    return TwoOpModel(order, add, mul, zero=draw(st.integers(0, order - 1)))


@SUITE
@given(tables_with_permutation())
def test_axiom_verdicts_permutation_invariant(case):
    table, perm = case
    image = apply_permutation(table, perm)
    for law in axioms.LAW_IDS:
        assert (
            axioms.check_law(table, law).holds == axioms.check_law(image, law).holds
        )


# premise models of the element claims at orders 1-3, on which the quantified
# ids hold at their element, beside the random tables where they mostly fail
_CLAIM_MODELS = [
    table
    for claim in ("T13", "T25", "T27")
    for order in (1, 2, 3)
    for table, _ in theorems._premise_models(theorems.CLAIMS[claim], order, False)
]


@SUITE
@given(st.one_of(tables(max_order=3), st.sampled_from(_CLAIM_MODELS)))
def test_verifier_ids_permutation_equivariant(table):
    # drop and premise searches at a candidate k are the images under (0 k)
    # of those at 0 only if every id relabels with its element
    ids = [*theorems._DESCRIPTOR_IDS, *theorems._PREDICATE_IDS]
    elements = range(table.order)
    holds = {(i, e): theorems._id_holds(table, i, e) for i in ids for e in elements}
    for p in permutations(elements):
        image = apply_permutation(table, p)
        for (ident, e), verdict in holds.items():
            assert theorems._id_holds(image, ident, p[e]) == verdict, (ident, e, p)


@SUITE
@given(tables_with_permutation())
def test_witnesses_map_through_permutations(case):
    # the permuted witness need not be first in scan order, but it must
    # still exhibit a violation on the permuted table
    table, perm = case
    image = apply_permutation(table, perm)
    image_rows = oracles.from_table(image)
    side_fns = {
        "associative": oracles.assoc_sides,
        "left-inverted-associative": oracles.lia_sides,
        "right-inverted-associative": oracles.ria_sides,
    }
    for law, fn in side_fns.items():
        res = axioms.check_law(table, law)
        if res.holds:
            continue
        mapped = tuple(perm[e] for e in res.witness.elements)
        lhs, rhs = fn(image_rows, *mapped)
        assert lhs != rhs


@SUITE
@given(tables_with_permutation())
def test_classification_permutation_invariant(case):
    table, perm = case
    assert (
        classify_single(table).labels
        == classify_single(apply_permutation(table, perm)).labels
    )


@SUITE
@given(tables_with_permutation())
def test_canonical_form_orbit_constant_and_idempotent(case):
    table, perm = case
    canon = canonical_form(table)
    assert canonical_form(apply_permutation(table, perm)) == canon
    assert canonical_form(canon) == canon


@SUITE
@given(tables(max_order=4), st.data())
def test_division_duality(table, data):
    n = table.order
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    for z in range(n):
        assert bool(right_division(table, x, y) >> z & 1) == bool(
            table.cell(z, y) >> x & 1
        )
        assert bool(left_division(table, y, x) >> z & 1) == bool(
            table.cell(y, z) >> x & 1
        )


@SUITE
@given(tables(max_order=4), st.data())
def test_complex_product_absorption_and_monotonicity(table, data):
    n = table.order
    full = (1 << n) - 1
    a = data.draw(st.integers(0, full))
    b = data.draw(st.integers(0, full))
    assert complex_product(table, 0, b) == 0
    assert complex_product(table, a, 0) == 0
    sub_a = a & data.draw(st.integers(0, full))
    sub_b = b & data.draw(st.integers(0, full))
    small = complex_product(table, sub_a, sub_b)
    assert small & ~complex_product(table, a, b) == 0


@SUITE
@given(st.data())
def test_parse_serialize_round_trip(data):
    if data.draw(st.booleans()):
        model = data.draw(tables(max_order=4))
    else:
        model = data.draw(two_op_models())
    for fmt in ("text", "json"):
        assert parse_model(serialize_model(model, fmt=fmt), fmt=fmt) == model


@SUITE
@given(tables(max_order=4))
def test_witness_soundness(table):
    rows = oracles.from_table(table)
    side_fns = {
        "associative": oracles.assoc_sides,
        "weakly-associative": oracles.assoc_sides,
        "left-inverted-associative": oracles.lia_sides,
        "right-inverted-associative": oracles.ria_sides,
    }
    for law in axioms.LAW_IDS:
        res = axioms.check_law(table, law)
        assert res.holds == oracles.law_holds(rows, law)
        if res.holds:
            continue
        w = res.witness
        lhs = set(members_of(w.lhs))
        rhs = set(members_of(w.rhs))
        if law in side_fns:
            got_lhs, got_rhs = side_fns[law](rows, *w.elements)
            assert set(got_lhs) == lhs and set(got_rhs) == rhs
            if law == "weakly-associative":
                assert not (lhs & rhs)
            else:
                assert lhs != rhs
        elif law == "reproductive":
            x = w.elements[0]
            carrier = frozenset(range(table.order))
            col = oracles.cp_sets(rows, carrier, {x})
            row = oracles.cp_sets(rows, {x}, carrier)
            assert lhs in (col, row) and lhs != carrier
        elif law == "commutative":
            x, y = w.elements
            assert rows[x][y] == lhs and rows[y][x] == rhs and lhs != rhs
        elif law == "cellwise-nonempty":
            x, y = w.elements
            assert rows[x][y] == frozenset()
        elif law == "total":
            x, y = w.elements
            assert rows[x][y] == lhs != frozenset(range(table.order))
        elif law == "degenerate":
            x, y = w.elements
            assert rows[x][y] == lhs != frozenset()


@SUITE
@given(two_op_models(max_order=3))
def test_two_op_classification_matches_oracle_axioms(model):
    add_rows = oracles.from_table(model.add)
    mul_rows = oracles.from_table(model.mul)
    labels = classify_two_op(model).labels
    def7 = (
        oracles.is_abelian_group(add_rows, model.zero)
        and oracles.law_holds(mul_rows, "associative")
        and not oracles.law_holds(mul_rows, "degenerate")
        and oracles.distributive(add_rows, mul_rows, inclusion=True)
        and oracles.sign_rule(add_rows, mul_rows, model.zero)
    )
    assert ("multiplicative-hyperring-def7" in labels) == def7
