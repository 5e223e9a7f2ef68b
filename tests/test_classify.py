import random
from itertools import product

import pytest

from hyperlab.axioms import PreconditionError
from hyperlab.classify import (
    ELEMENTS,
    IDENTITIES,
    SINGLE_LABELS,
    STRUCTURES,
    TWO_OP_LABELS,
    axioms_of,
    axiom_name,
    candidate_rule,
    check_hypermodule,
    classify_single,
    classify_two_op,
    holds_at,
)
from hyperlab.model import (
    HyperTable,
    HypermoduleModel,
    TwoOpModel,
    apply_permutation,
    key_sorted_masks,
    table_from_rows,
)
from hyperlab.samples import (
    cyclic_group_table,
    degenerate_table,
    field_model,
    krasner_hyperfield,
    krasner_self_module,
    sign_hyperfield,
    subtraction_table,
    total_table,
)

import oracles


def labels_of(table):
    return classify_single(table).labels


def test_z2_group_labels():
    # all group labels, plus la/ra since abelian groups satisfy both
    # inverted associativities trivially
    assert labels_of(cyclic_group_table(2)) == {
        "hypergroupoid",
        "semihypergroup",
        "quasihypergroup",
        "hypergroup",
        "group",
        "hv-group",
        "la-hypergroup",
        "ra-hypergroup",
        "qmp-hypergroup",
        "m-polysymmetrical-hypergroup",
        "normal-hypergroup",
        "canonical-hypergroup",
        "quasicanonical-hypergroup",
    }


def test_degenerate_labels():
    assert labels_of(degenerate_table(2)) == {"partial-hypergroupoid"}


def test_total_labels():
    assert labels_of(total_table(2)) == {
        "hypergroupoid",
        "semihypergroup",
        "quasihypergroup",
        "hypergroup",
        "hv-group",
        "la-hypergroup",
        "ra-hypergroup",
    }


def test_krasner_addition_is_canonical():
    k = krasner_hyperfield()
    labels = labels_of(k.add)
    assert "canonical-hypergroup" in labels
    assert "normal-hypergroup" in labels
    assert "group" not in labels
    report = classify_single(k.add)
    assert report.constants["canonical-zero"] == 0


def test_subtraction_table_is_la_group_not_hypergroup():
    labels = labels_of(subtraction_table(3))
    assert "la-hypergroup" in labels
    assert "quasihypergroup" in labels
    assert "hypergroup" not in labels
    assert "semihypergroup" not in labels


def test_order_one_table():
    labels = labels_of(table_from_rows([[{0}]]))
    assert labels == set(SINGLE_LABELS) - {"partial-hypergroupoid"}


def test_label_lattice_random():
    rng = random.Random(7)
    for _ in range(300):
        order = rng.randrange(1, 4)
        t = HyperTable(
            order, tuple(rng.randrange(1 << order) for _ in range(order * order))
        )
        labels = labels_of(t)
        assert ("hypergroupoid" in labels) != ("partial-hypergroupoid" in labels)
        if "hypergroup" in labels:
            assert {"hypergroupoid", "semihypergroup", "quasihypergroup", "hv-group"} <= labels
        if "group" in labels:
            assert "hypergroup" in labels
            assert all(c.bit_count() == 1 for c in t.cells)
        if "canonical-hypergroup" in labels:
            assert "quasicanonical-hypergroup" in labels
            assert "normal-hypergroup" in labels
        assert ("m-polysymmetrical-hypergroup" in labels) == (
            "qmp-hypergroup" in labels and _commutative(t)
        )
        if "qmp-hypergroup" in labels:
            assert "hypergroup" in labels  # reproductivity is derived


def _commutative(t):
    return all(
        t.cell(x, y) == t.cell(y, x) for x, y in product(range(t.order), repeat=2)
    )


def test_quasicanonical_commutative_iff_canonical_exhaustive_order2():
    for cells in product(range(4), repeat=4):
        t = HyperTable(2, cells)
        labels = labels_of(t)
        if "canonical-hypergroup" in labels:
            assert "quasicanonical-hypergroup" in labels and _commutative(t)
        if "quasicanonical-hypergroup" in labels and _commutative(t):
            assert "canonical-hypergroup" in labels


def test_classification_permutation_invariant():
    rng = random.Random(11)
    for _ in range(100):
        order = rng.randrange(1, 5)
        t = HyperTable(
            order, tuple(rng.randrange(1 << order) for _ in range(order * order))
        )
        perm = list(range(order))
        rng.shuffle(perm)
        assert labels_of(t) == labels_of(apply_permutation(t, perm))


def test_krasner_two_op_labels():
    report = classify_two_op(krasner_hyperfield())
    assert report.labels == {
        "krasner-hyperring",
        "unitary-hyperring",
        "hyperfield",
        "hyperfield-def15",
    }
    assert report.constants["one"] == 1


def test_sign_hyperfield_labels():
    report = classify_two_op(sign_hyperfield())
    assert {
        "krasner-hyperring",
        "unitary-hyperring",
        "hyperfield",
        "hyperfield-def15",
    } <= report.labels


def test_def15_implies_def14_labels():
    rng = random.Random(13)
    for _ in range(200):
        order = rng.randrange(1, 4)
        add = HyperTable(
            order, tuple(rng.randrange(1 << order) for _ in range(order * order))
        )
        mul = HyperTable(
            order, tuple(1 << rng.randrange(order) for _ in range(order * order)),
            "composition",
        )
        m = TwoOpModel(order, add, mul, zero=0)
        labels = classify_two_op(m).labels
        if "hyperfield-def15" in labels:
            assert "hyperfield" in labels
        if "hyperfield" in labels:
            assert "krasner-hyperring" in labels


def test_field_models_are_everything():
    for n in (2, 3):
        report = classify_two_op(field_model(n))
        assert report.labels == {
            "krasner-hyperring",
            "unitary-hyperring",
            "hyperfield",
            "hyperfield-def15",
            "multiplicative-hyperring-def6",
            "multiplicative-hyperring-def7",
            "m-polysymmetrical-hyperring",
        }


def test_z2_total_mul_def7_golden():
    # (Z2,+) with total multiplication: sign-rule fails because negation is
    # the identity map yet -(a·b) must equal a·b elementwise, which holds;
    # check the actual axioms and freeze the verdict
    z2 = cyclic_group_table(2)
    m = TwoOpModel(2, z2, total_table(2), zero=0)
    add_rows = oracles.from_table(z2)
    mul_rows = oracles.from_table(total_table(2))
    expect_def7 = (
        oracles.is_abelian_group(add_rows, 0)
        and oracles.law_holds(mul_rows, "associative")
        and not oracles.law_holds(mul_rows, "degenerate")
        and oracles.distributive(add_rows, mul_rows, inclusion=True)
        and oracles.sign_rule(add_rows, mul_rows, 0)
    )
    labels = classify_two_op(m).labels
    assert ("multiplicative-hyperring-def7" in labels) == expect_def7
    assert expect_def7  # computed: the total mul over Z2 satisfies all of them


def test_one_element_model_is_hyperring_not_hyperfield():
    t = table_from_rows([[{0}]])
    m = TwoOpModel(1, t, t, zero=0)
    labels = classify_two_op(m).labels
    assert "krasner-hyperring" in labels
    # H* is empty: no multiplicative group, so no hyperfield; the trivial
    # ring still has an identity (0 itself)
    assert "hyperfield" not in labels
    assert "hyperfield-def15" not in labels
    assert "unitary-hyperring" in labels


def test_hypermodule_krasner_self_action():
    report = check_hypermodule(krasner_self_module())
    assert "hypermodule" in report.labels
    assert "madd-canonical-hypergroup" in report.labels
    assert "madd-commutative-normal-hypergroup" in report.labels


def test_hypermodule_zero_action_axiom():
    hm = krasner_self_module()
    assert hm.action == ((0, 0), (0, 1))
    bad = HypermoduleModel(hm.scalars, hm.madd, 0, ((0, 1), (0, 1)))  # 0·1 = 1
    report = check_hypermodule(bad)
    assert "hypermodule" not in report.labels
    trail = {e["axiom"]: e for e in report.evidence["action-axioms"]}
    assert not trail["unit-and-zero-action"]["holds"]
    assert trail["unit-and-zero-action"]["witness"]["elements"] == [1]


def test_hypermodule_requires_unitary_scalars():
    k = krasner_hyperfield()
    no_one = TwoOpModel(2, k.add, degenerate_table(2), zero=0)
    hm_madd = k.add
    with pytest.raises(PreconditionError, match="unitary"):
        check_hypermodule(HypermoduleModel(no_one, hm_madd, 0, ((0, 0), (0, 0))))


def test_weak_hypermodule_inclusion_variant():
    hm = krasner_self_module()
    strict = check_hypermodule(hm, weak=False)
    weak = check_hypermodule(hm, weak=True)
    assert "hypermodule" in strict.labels
    assert "weak-hypermodule" in weak.labels


def test_sign_hyperfield_self_module_and_opposite_action():
    from hyperlab.axioms import opposite_map

    s = sign_hyperfield()
    action = tuple(
        tuple(s.mul.cell(a, m).bit_length() - 1 for m in range(3)) for a in range(3)
    )
    hm = HypermoduleModel(s, s.add, 0, action)
    report = check_hypermodule(hm)
    assert "hypermodule" in report.labels
    assert "madd-canonical-hypergroup" in report.labels
    # acting by the opposite of the unit negates: (-1)m = -m
    opp = opposite_map(s.add, 0)
    minus_one = opp[1]
    assert minus_one == 2
    for m in range(3):
        assert hm.act(minus_one, m) == opp[m]


def test_table_states_the_minimised_definitions():
    # Def. 15 is the hyperfield of Def. 14 without reversibility, and Def. 7
    # is Def. 6 without non-empty products
    def14 = axioms_of("hyperfield")
    without = [a for a in def14 if axiom_name(a) != "reversibility-canonical"]
    assert len(without) == len(def14) - 1
    assert tuple(without) == axioms_of("hyperfield-def15")
    def6 = axioms_of("multiplicative-hyperring-def6")
    assert def6 == axioms_of("multiplicative-hyperring-def7") + ("mul-cellwise-nonempty",)


def test_table_defines_every_label_once():
    assert set(STRUCTURES) == set(SINGLE_LABELS) | set(TWO_OP_LABELS)
    assert len(SINGLE_LABELS) == 14 and len(TWO_OP_LABELS) == 7


def test_holds_at_agrees_with_classify_single_on_every_order2_table():
    # a quantified label holds at some candidate, any other at None; the
    # complement partial-hypergroupoid is a negated run, not an empty one
    for cells in product(key_sorted_masks(2), repeat=4):
        table = HyperTable(2, cells)
        labels = classify_single(table).labels
        for label in SINGLE_LABELS:
            quantified = candidate_rule(label) in (ELEMENTS, IDENTITIES)
            held = any(holds_at(label, table, c) for c in (range(2) if quantified else [None]))
            assert held == (label in labels), (label, cells)
