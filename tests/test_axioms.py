import random
from itertools import islice, product

import pytest

from hyperlab.axioms import (
    LAW_IDS,
    PreconditionError,
    attractive_elements,
    check_identity_element,
    check_law,
    check_opposite_additivity,
    check_polysymmetry,
    check_reversibility_canonical,
    check_reversibility_poly,
    check_ring_axioms,
    check_scalar_zero,
    check_unique_opposite,
    find_identities,
    line_unions,
    opposite_map,
    symmetric_set,
)
from hyperlab.engines import Backtracker, SearchSpec
from hyperlab.model import HyperTable, TwoOpModel, table_from_rows
from hyperlab.samples import (
    cyclic_group_table,
    degenerate_table,
    krasner_hyperfield,
    sign_hyperfield,
    subtraction_table,
    total_table,
)

import oracles

Z2 = cyclic_group_table(2)
Z3 = cyclic_group_table(3)


def random_table(rng, order, allow_empty=True):
    lo = 0 if allow_empty else 1
    return HyperTable(order, tuple(rng.randrange(lo, 1 << order) for _ in range(order * order)))


# -- check_law ----------------------------------------------------------------


def test_degenerate_table_is_associative_but_not_weakly():
    d = degenerate_table(2)
    assert check_law(d, "associative").holds
    res = check_law(d, "weakly-associative")
    assert not res.holds
    assert res.witness.elements == (0, 0, 0)
    assert res.witness.lhs == 0 and res.witness.rhs == 0


def test_associative_first_witness_in_scan_order():
    # 0·0={0}, 0·1={0}, 1·0={1}, 1·1={0}: brute expansion puts the first
    # violation at (1,0,1): (1·0)·1 = {0} but 1·(0·1) = {1}
    t = table_from_rows([[{0}, {0}], [{1}, {0}]])
    res = check_law(t, "associative")
    assert not res.holds
    assert res.witness.elements == (1, 0, 1)
    assert res.witness.lhs == 0b01
    assert res.witness.rhs == 0b10
    # (1,1,1) is also violating, just not first
    lhs, rhs = oracles.assoc_sides(oracles.from_table(t), 1, 1, 1)
    assert lhs == {0} and rhs == {1}


def test_subtraction_table_laws():
    t = subtraction_table(3)
    assert check_law(t, "left-inverted-associative").holds
    assert check_law(t, "reproductive").holds
    assert not check_law(t, "associative").holds


def test_reproductive_with_empty_cells():
    t = table_from_rows([[set(), {0, 1}], [{0, 1}, set()]])
    assert check_law(t, "reproductive").holds
    assert not check_law(t, "associative").holds


def test_reproductive_witness_takes_the_column_before_the_row():
    # at x = 0 the column 0·0 ∪ 1·0 = {1} and the row 0·0 ∪ 0·1 = {0} both fall short
    t = table_from_rows([[set(), {0}], [{1}, {0, 1}]])
    w = check_law(t, "reproductive").witness
    assert (w.elements, w.lhs, w.rhs) == ((0,), 0b10, 0b11)


def test_total_and_degenerate_laws():
    assert check_law(total_table(2), "total").holds
    assert not check_law(total_table(2), "degenerate").holds
    assert check_law(degenerate_table(2), "degenerate").holds
    assert not check_law(degenerate_table(2), "cellwise-nonempty").holds


def test_unknown_law_rejected():
    with pytest.raises(ValueError, match="unknown law"):
        check_law(Z2, "nope")


def test_laws_match_oracle_randomized():
    rng = random.Random(42)
    for _ in range(300):
        order = rng.randrange(1, 4)
        t = random_table(rng, order)
        rows = oracles.from_table(t)
        for law in LAW_IDS:
            assert check_law(t, law).holds == oracles.law_holds(rows, law), (t, law)


TRIPLE_SIDES = {
    "associative": (oracles.assoc_sides, lambda a, b: a != b),
    "weakly-associative": (oracles.assoc_sides, lambda a, b: not a & b),
    "left-inverted-associative": (oracles.lia_sides, lambda a, b: a != b),
    "right-inverted-associative": (oracles.ria_sides, lambda a, b: a != b),
}


def assert_first_triple_witness(t, law):
    """check_law's verdict on a triple law is the oracle's: its witness is
    the first row-major triple whose oracle sides violate the law."""
    sides, violated = TRIPLE_SIDES[law]
    rows = oracles.from_table(t)
    expected = next(
        (
            (law, (x, y, z), lhs, rhs)
            for x, y, z in product(range(t.order), repeat=3)
            for lhs, rhs in [sides(rows, x, y, z)]
            if violated(lhs, rhs)
        ),
        None,
    )
    res = check_law(t, law)
    if expected is None:
        assert res.holds, (t, law)
    else:
        w = res.witness
        got = (w.axiom, w.elements, oracles.from_mask(w.lhs), oracles.from_mask(w.rhs))
        assert got == expected, (t, law)


def test_witness_soundness_randomized():
    """Uniform tables, and near-total ones whose first violation comes late."""
    rng = random.Random(43)
    for order in range(1, 5):
        full = (1 << order) - 1
        for i in range(150):
            t = random_table(rng, order)
            if i % 2:
                t = HyperTable(order, tuple(full if rng.random() < 0.9 else c for c in t.cells))
            for law in TRIPLE_SIDES:
                assert_first_triple_witness(t, law)


def test_line_unions_are_cached_immutable_tuples():
    line = (0b001, 0b010, 0b110)
    unions = line_unions(line)
    assert type(unions) is tuple and line_unions(line) is unions
    assert unions == (0, 0b001, 0b010, 0b011, 0b110, 0b111, 0b110, 0b111)


def test_triple_witnesses_at_order5_through_line_cache_evictions():
    """Random and near-total order-5 tables bring more distinct lines than
    the bounded cache holds; the first tables' lines are evicted, and their
    witnesses are the oracle's again when checked once more."""
    line_unions.cache_clear()
    rng = random.Random(44)
    tables = []
    for i in range(240):
        t = random_table(rng, 5)
        if i % 2:
            t = HyperTable(5, tuple(31 if rng.random() < 0.9 else c for c in t.cells))
        tables.append(t)
    for t in tables + tables[:10]:
        for law in TRIPLE_SIDES:
            assert_first_triple_witness(t, law)
    info = line_unions.cache_info()
    assert info.currsize == info.maxsize < info.misses, info


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_triple_law_witnesses_on_groups_and_hypergroups(order):
    """Tables where the laws hold scan every triple: the cyclic group, where
    all four hold, and backtracker-emitted hypergroups (associative and
    reproductive), where the inverted laws mostly fail."""
    hypergroups = Backtracker(
        SearchSpec(order, (("law", "associative"), ("law", "reproductive")))
    ).search()
    tables = [cyclic_group_table(order)]
    tables += [HyperTable(order, cells) for cells in islice(hypergroups, 40)]
    for law in TRIPLE_SIDES:
        assert check_law(tables[0], law).holds
    for t in tables:
        for law in TRIPLE_SIDES:
            assert_first_triple_witness(t, law)


# -- identities ---------------------------------------------------------------


def test_find_identities_z2():
    ids = find_identities(Z2)
    assert ids.two_sided == ids.scalar == ids.strong == 0b01
    assert ids.left == ids.right == 0b01


def test_find_identities_total2():
    # each element is a two-sided identity, but x=e breaks scalar and strong:
    # 0·0 = {0,1} is neither {0} nor inside {0}
    ids = find_identities(total_table(2))
    assert ids.two_sided == 0b11
    assert ids.scalar == 0
    assert ids.strong == 0


def test_find_identities_degenerate():
    ids = find_identities(degenerate_table(3))
    assert ids.left == ids.right == ids.two_sided == ids.scalar == ids.strong == 0


def test_strong_identity_example():
    # e=0 with 1·0 = 0·1 = {0,1}: xe ⊆ {e,x} everywhere but 1·0 ≠ {1},
    # so 0 is strong without being scalar
    t = table_from_rows([[{0}, {0, 1}], [{0, 1}, {1}]])
    ids = find_identities(t)
    assert ids.strong == 0b11  # the table is symmetric in 0 and 1
    assert ids.scalar == 0
    # the Krasner addition's zero is scalar (and hence strong)
    k = table_from_rows([[{0}, {1}], [{1}, {0, 1}]])
    ids = find_identities(k)
    assert ids.scalar == 0b01
    assert ids.strong == 0b01


def test_attractive_elements():
    assert attractive_elements(Z3, 0) == 0
    assert attractive_elements(total_table(3), 0) == 0b110
    assert attractive_elements(degenerate_table(3), 1) == 0


# -- polysymmetry -------------------------------------------------------------


def test_symmetric_set_z2():
    assert symmetric_set(Z2, 0, 1) == 0b10
    assert symmetric_set(Z2, 0, 0) == 0b01


def test_symmetric_set_total():
    assert symmetric_set(total_table(2), 0, 0) == 0
    assert symmetric_set(total_table(2), 0, 0, weak=True) == 0b11


def test_polysymmetry_cases():
    assert check_polysymmetry(Z2, 0).holds
    res = check_polysymmetry(total_table(2), 0)
    assert not res.holds and res.witness.elements == (0,)
    assert check_polysymmetry(total_table(2), 0, weak=True).holds
    one = table_from_rows([[{0}]])
    assert check_polysymmetry(one, 0).holds


def test_reversibility_poly_group_and_degenerate():
    assert check_reversibility_poly(Z3, 0).holds
    assert check_reversibility_poly(degenerate_table(2), 0).holds  # vacuous


def test_reversibility_poly_matches_oracle():
    rng = random.Random(44)
    for _ in range(200):
        order = rng.randrange(1, 4)
        t = random_table(rng, order)
        e = rng.randrange(order)
        rows = oracles.from_table(t)
        for weak in (False, True):
            assert (
                check_reversibility_poly(t, e, weak=weak).holds
                == oracles.reversibility_poly(rows, e, weak=weak)
            )


def test_identity_element_check():
    assert check_identity_element(Z2, 0).holds
    assert not check_identity_element(Z2, 1).holds
    assert check_identity_element(total_table(3), 2).holds


# -- opposites ----------------------------------------------------------------


def test_unique_opposite_krasner():
    k = krasner_hyperfield()
    assert check_unique_opposite(k.add, 0).holds
    assert opposite_map(k.add, 0) == (0, 1)


def test_unique_opposite_total_fails():
    res = check_unique_opposite(total_table(2), 0)
    assert not res.holds
    assert res.witness.elements == (0,)
    assert res.witness.lhs == 0b11  # every candidate qualifies


def test_unique_opposite_missing():
    t = table_from_rows([[{0}, {1}], [{1}, {1}]])
    res = check_unique_opposite(t, 0)
    assert not res.holds
    assert res.witness.elements == (1,)
    assert opposite_map(t, 0) is None


def test_reversibility_canonical_examples():
    k = krasner_hyperfield()
    assert check_reversibility_canonical(k.add, 0).holds
    s = sign_hyperfield()
    assert check_reversibility_canonical(s.add, 0).holds
    with pytest.raises(PreconditionError):
        check_reversibility_canonical(total_table(2), 0)


def test_opposite_additivity_examples():
    k = krasner_hyperfield()
    assert check_opposite_additivity(k.add, 0).holds
    assert check_opposite_additivity(Z3, 0).holds


def test_reversibility_equivalent_to_opposite_additivity_order2():
    # exhaustively over commutative associative order-2 tables with unique
    # opposites, reversibility and opposite additivity agree
    seen = 0
    for c00, c01, c11 in product(range(4), repeat=3):
        t = HyperTable(2, (c00, c01, c01, c11))
        for zero in (0, 1):
            if opposite_map(t, zero) is None:
                continue
            if not check_law(t, "associative").holds:
                continue
            seen += 1
            assert (
                check_reversibility_canonical(t, zero).holds
                == check_opposite_additivity(t, zero).holds
            )
    assert seen > 5


def test_scalar_zero():
    k = krasner_hyperfield()
    assert check_scalar_zero(k.add, 0).holds
    assert not check_scalar_zero(total_table(2), 0).holds


# -- ring axioms --------------------------------------------------------------


def test_krasner_ring_axioms():
    k = krasner_hyperfield()
    for variant in (
        "distributive-equal",
        "absorbing-zero",
        "multiplicative-group-on-H*",
        "multiplicative-semigroup-on-H*",
    ):
        assert check_ring_axioms(k, variant).holds, variant


def test_degenerate_mul_over_z3():
    m = TwoOpModel(3, Z3, degenerate_table(3), zero=0)
    assert check_ring_axioms(m, "distributive-inclusion").holds
    assert check_ring_axioms(m, "sign-rule").holds
    assert not check_ring_axioms(m, "mul-nondegenerate-associative").holds
    assert check_ring_axioms(m, "additive-abelian-group").holds


def test_sign_rule_precondition():
    k = krasner_hyperfield()  # addition is not a group (1+1 is multivalued)
    with pytest.raises(PreconditionError):
        check_ring_axioms(k, "sign-rule")


def test_unknown_ring_axiom():
    with pytest.raises(ValueError, match="unknown ring axiom"):
        check_ring_axioms(krasner_hyperfield(), "nope")


def test_absorbing_zero_failure_witness():
    m = TwoOpModel(2, Z2, total_table(2), zero=0)
    res = check_ring_axioms(m, "absorbing-zero")
    assert not res.holds
    assert res.witness.elements == (0,)


def test_z3_field_is_multiplicative_hyperring():
    from hyperlab.samples import field_model

    m = field_model(3)
    for variant in (
        "additive-abelian-group",
        "mul-nondegenerate-associative",
        "distributive-inclusion",
        "sign-rule",
        "distributive-equal",
        "multiplicative-group-on-H*",
        "absorbing-zero",
    ):
        assert check_ring_axioms(m, variant).holds, variant


def test_ring_axioms_match_oracle_randomized():
    rng = random.Random(46)
    for _ in range(150):
        order = rng.randrange(1, 4)
        add = random_table(rng, order)
        mul = random_table(rng, order)
        m = TwoOpModel(order, add, mul, zero=0)
        add_rows = oracles.from_table(add)
        mul_rows = oracles.from_table(mul)
        assert (
            check_ring_axioms(m, "distributive-equal").holds
            == oracles.distributive(add_rows, mul_rows)
        )
        assert (
            check_ring_axioms(m, "distributive-inclusion").holds
            == oracles.distributive(add_rows, mul_rows, inclusion=True)
        )
        assert (
            check_ring_axioms(m, "additive-abelian-group").holds
            == oracles.is_abelian_group(add_rows, 0)
        )
        if oracles.is_abelian_group(add_rows, 0):
            assert (
                check_ring_axioms(m, "sign-rule").holds
                == oracles.sign_rule(add_rows, mul_rows, 0)
            )


def test_empty_star_semigroup_vs_group():
    one_elt = TwoOpModel(
        1, table_from_rows([[{0}]]), table_from_rows([[{0}]]), zero=0
    )
    assert check_ring_axioms(one_elt, "multiplicative-semigroup-on-H*").holds
    assert not check_ring_axioms(one_elt, "multiplicative-group-on-H*").holds
