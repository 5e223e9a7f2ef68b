import json
import time
from dataclasses import replace
from functools import partial

import pytest

from hyperlab import axioms, classify, engines, enumeration, parallel, theorems
from hyperlab.enumeration import EnumerationJob, enumerate_models, sweep, two_op_plan
from hyperlab.model import HyperTable, table_key
from hyperlab.modelio import parse_model, serialize_model
from hyperlab.samples import cyclic_group_table
from hyperlab.theorems import (
    THEOREM_IDS,
    qmp_property_checks,
    search_independence,
    verify,
)

from conftest import verify_cached

import oracles


def test_unknown_theorem_and_order_caps():
    with pytest.raises(ValueError, match="unknown theorem"):
        verify("T99", 2)
    with pytest.raises(ValueError, match="outside"):
        verify("T3", 4)
    with pytest.raises(ValueError, match="outside"):
        verify("T2", 0)


def test_t2_order2and3():
    r = verify("T2", 2)
    assert r.premise_models == 8  # the labeled semigroups on two elements
    assert r.conclusion_holds
    r = verify("T2", 3)
    assert r.premise_models == 113  # the labeled semigroups on three elements
    assert r.space_size == 3 ** 9
    assert r.conclusion_holds


def _composition_identity_and_inverses(rows):
    n = len(rows)
    for e in range(n):
        if all(rows[e][x] == {x} and rows[x][e] == {x} for x in range(n)):
            return all(
                any(rows[x][y] == {e} and rows[y][x] == {e} for y in range(n))
                for x in range(n)
            )
    return False


def test_t2_drop_associativity_breaks_the_biconditional():
    r = verify("T2", 3, drop_premises=True)
    entry = r.independence_witnesses[0]
    assert entry["dropped"] == "associative"
    table = parse_model(entry["model"])
    rows = oracles.from_table(table)
    assert not oracles.law_holds(rows, "associative")
    assert oracles.law_holds(rows, "reproductive") != _composition_identity_and_inverses(rows)


def test_t3_order2_oracle():
    r = verify("T3", 2, oracle=True, drop_premises=True)
    assert r.space_size == 256
    assert r.premise_models == 14
    assert r.conclusion_holds
    assert r.counterexample is None
    dropped = {e["dropped"]: e for e in r.independence_witnesses}
    assert set(dropped) == {"associative", "reproductive"}
    assert "model" in dropped["associative"]
    assert "model" in dropped["reproductive"]
    # dropping associativity leaves the reproductive table with empty corners
    witness = parse_model(dropped["associative"]["model"])
    assert witness.cells == (0, 0b11, 0b11, 0)
    # dropping reproductivity leaves the degenerate table
    witness = parse_model(dropped["reproductive"]["model"])
    assert witness.cells == (0, 0, 0, 0)


def test_t3_order3_pruned_matches_oracle_count():
    pruned = verify_cached("T3", 3)
    assert pruned.conclusion_holds
    assert pruned.premise_models == 23192
    assert pruned.space_size == 8 ** 9


@pytest.mark.slow
def test_t3_order3_oracle_mode():
    oracle = verify_cached("T3", 3, oracle=True)
    assert oracle.conclusion_holds
    assert oracle.premise_models == 23192


def test_t7_t9_t11_order2():
    r = verify("T7", 2)
    assert r.premise_models == 65 and r.conclusion_holds
    r = verify("T9", 2)
    assert r.premise_models == 16 and r.conclusion_holds
    r = verify("T11", 2)
    assert r.premise_models == r.space_size == 256
    assert r.conclusion_holds


def test_t7_t9_t11_order3():
    r = verify_cached("T7", 3)
    assert r.conclusion_holds
    assert r.premise_models == 15322445
    r = verify_cached("T9", 3)
    assert r.conclusion_holds
    assert r.premise_models == 157510  # tables with repro and either inversion
    r = verify_cached("T11", 3)
    assert r.conclusion_holds


def test_t7_witnesses_on_drop():
    r = verify("T7", 2, drop_premises=True)
    entry = r.independence_witnesses[0]
    table = parse_model(entry["model"])
    assert not axioms.check_law(table, "cellwise-nonempty").holds


def _qmp_pairs(order):
    return theorems._premise_models(theorems.CLAIMS["T13"], order, False)


def test_qmp_pairs_contain_all_group_tables():
    for order in (1, 2, 3):
        pairs = _qmp_pairs(order)
        tables = {t.cells for t, _e in pairs}
        group = cyclic_group_table(order)
        assert group.cells in tables


def test_t13_t24_psuite_order2and3():
    for order in (2, 3):
        r13 = verify_cached("T13", order)
        r24 = verify_cached("T24", order)
        rp = verify_cached("P14-P23", order)
        assert r13.conclusion_holds and r24.conclusion_holds and rp.conclusion_holds
        assert r13.premise_models == r24.premise_models == rp.premise_models
        assert r13.extras["with_commutativity"]["conclusion_holds"]
    assert verify_cached("T13", 3).premise_models == 6


def test_t24_weak_reading_fails_at_order3():
    r = verify_cached("T24", 3)
    weak = r.extras["weak_polysymmetry_reading"]
    assert weak["premise_models"] == 9093
    assert not weak["conclusion_holds"]
    model = parse_model(weak["counterexample"]["model"])
    e = weak["counterexample"]["element"]
    assert axioms.check_polysymmetry(model, e, weak=True).holds
    assert not axioms.check_reversibility_poly(model, e, weak=True).holds


def test_qmp_property_checks_on_group():
    table = cyclic_group_table(3)
    assert all(ok for _cid, ok in qmp_property_checks(table, 0))


def test_qmp_suite_order4():
    r13 = verify_cached("T13", 4)
    r24 = verify_cached("T24", 4)
    rp = verify_cached("P14-P23", 4)
    assert r13.premise_models == r24.premise_models == rp.premise_models == 32
    assert r13.conclusion_holds and r24.conclusion_holds and rp.conclusion_holds
    assert "note" in r24.extras["weak_polysymmetry_reading"]


def test_qmp_spread_matches_direct_per_element_sweep():
    for order in (2, 3):
        direct = []
        for e in range(order):
            cs = (
                ("law", "associative"),
                ("identity-at", e),
                ("polysymmetry-at", e, False),
            )
            direct.extend((t.cells, e) for t in sweep(order, [cs])[0])
        spread = [(t.cells, e) for t, e in _qmp_pairs(order)]
        assert sorted(direct) == sorted(spread)


@pytest.mark.slow
def test_t25_t26_t27_order4():
    r = verify_cached("T25", 4)
    assert r.premise_models == 1560 and r.conclusion_holds
    assert verify_cached("T26", 4).conclusion_holds
    r27 = verify_cached("T27", 4)
    assert r27.conclusion_holds
    bare = r27.extras["premise_sets"]["associative+commutative+unique-opposite"]
    assert bare["premise_models"] == 6000 and bare["biconditional_holds"]


def test_t25_t26_t27_order2and3():
    assert verify_cached("T25", 2).premise_models == 4
    assert verify_cached("T26", 2).conclusion_holds
    r = verify_cached("T27", 2)
    assert r.premise_models == 8 and r.conclusion_holds
    r25 = verify_cached("T25", 3)
    assert r25.premise_models == 45 and r25.conclusion_holds
    assert verify_cached("T26", 3).conclusion_holds
    r27 = verify_cached("T27", 3)
    assert r27.conclusion_holds
    sets = r27.extras["premise_sets"]
    bare = sets["associative+commutative+unique-opposite"]
    scalar = sets["associative+commutative+unique-opposite+scalar-zero"]
    assert bare["premise_models"] == 105 and bare["biconditional_holds"]
    assert scalar["premise_models"] == 57 and scalar["biconditional_holds"]


def test_t28_model_sets_identical():
    for order, count in ((2, 2), (3, 5)):
        r = verify_cached("T28", order)
        assert r.conclusion_holds
        assert r.extras["model_sets_identical"]
        assert r.extras["def15_models"] == r.extras["def14_models"] == count


def test_t28_raises_when_the_def14_models_are_not_the_reversible_def15_models(monkeypatch):
    label_models = theorems._label_models

    def fewer_def14(label, *args):
        models, runs = label_models(label, *args)
        return (models[::2] if label == "hyperfield" else models), runs

    monkeypatch.setattr(theorems, "_label_models", fewer_def14)
    with pytest.raises(RuntimeError, match="Def-14 models are the reversible Def-15 models"):
        theorems.verify("T28", 3)


def test_t28_oracle_report_equals_default():
    # under --oracle each plan run's additions are swept by the vector engine
    # at order 3; above it verify refuses --oracle (test_cli)
    default = verify_cached("T28", 3).to_json(include_wall_time=False)
    assert verify_cached("T28", 3, oracle=True).to_json(include_wall_time=False) == default


# the order-1 drop reports, which the snapshots (orders 2 and 3) do not cover
ORDER1_DROP_REPORTS = {
    "T6": {
        "conclusion_holds": True,
        "counterexample": None,
        "extras": {"additive_groups": 1, "row_emptiness_coherent": True},
        "independence_witnesses": [
            {"dropped": "mul-associative", "none_at_order": 1},
            {"dropped": "distributive-inclusion", "none_at_order": 1},
            {"dropped": "sign-rule", "none_at_order": 1},
            {
                "dropped": "non-degenerate",
                "model": "order 1\nop add composition\n0\nop mul hyper\n{}\nzero 0\n",
            },
            {
                "dropped": "additive-abelian-group",
                "not_searched": "the sign rule presupposes additive inverses",
            },
        ],
        "order": 1,
        "premise_models": 1,
        "space_size": 2,
        "theorem": "T6",
    },
    "T28": {
        "conclusion_holds": True,
        "counterexample": None,
        "extras": {"def14_models": 0, "def15_models": 0, "model_sets_identical": True},
        "independence_witnesses": [
            {"dropped": dropped, "none_at_order": 1}
            for dropped in (
                "additive-associative", "additive-commutative", "unique-opposite",
                "multiplicative-group-on-H*", "absorbing-zero", "distributive-equal",
            )
        ],
        "order": 1,
        "premise_models": 0,
        "space_size": 2,
        "theorem": "T28",
    },
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("theorem", ["T6", "T28"])
def test_two_operation_order1_drop_reports(theorem, workers):
    report = verify(theorem, 1, drop_premises=True, workers=workers)
    assert report.to_json(include_wall_time=False) == ORDER1_DROP_REPORTS[theorem]


def test_t6_order2and3():
    r = verify_cached("T6", 2)
    assert r.premise_models == 14 and r.conclusion_holds
    assert r.extras["row_emptiness_coherent"]
    r = verify_cached("T6", 2, oracle=True)
    assert r.premise_models == 14 and r.conclusion_holds
    r = verify_cached("T6", 3)
    assert r.premise_models == 120 and r.conclusion_holds
    assert r.extras["additive_groups"] == 3


@pytest.mark.slow
def test_t6_order3_oracle_matches_pruned():
    assert verify_cached("T6", 3, oracle=True, workers=8).premise_models == 120


def test_t6_pruned_sweep_matches_pure_sweep():
    # every run of T6's plan (one per additive group), whole and with each
    # descriptor dropped: every backtracker device (sign-rule links,
    # distributivity and emptiness watchers) must keep exactly the tables the
    # authoritative predicates accept, in order
    runs = list(two_op_plan(2, classify.axioms_of("multiplicative-hyperring-def7")))
    assert [(run.zero, run.mul_fixed) for run in runs] == [(0, False), (1, False)]
    for run in runs:
        premises = run.descriptors
        for i in range(len(premises) + 1):
            kept = premises[:i] + premises[i + 1:]
            pruned, _ = sweep(2, [kept], pruned=True)
            pure, _ = sweep(2, [kept], oracle=True)
            assert [t.cells for t in pruned] == [t.cells for t in pure], kept
            assert pure


def test_t6_order4_rejected():
    with pytest.raises(ValueError, match="outside"):
        verify("T6", 4)


def test_t29_bundled_family():
    r = verify_cached("T29", 2)
    assert r.conclusion_holds
    assert r.premise_models == 11
    assert r.extras["noncommutative_premise_models"] == 0
    assert r.extras["opposite_scalar_action_negates"]


def test_t29_order3():
    r = verify_cached("T29", 3)
    assert r.conclusion_holds
    assert r.premise_models == 26
    assert r.extras["opposite_scalar_action_negates"]


def test_t29_revalidates_its_counterexample(monkeypatch):
    # a search that calls every module addition non-canonical emits a
    # counterexample whose addition check_hypermodule finds canonical
    real = classify.holds_at
    monkeypatch.setattr(
        classify,
        "holds_at",
        lambda label, table, cand: label != "canonical-hypergroup" and real(label, table, cand),
    )
    with pytest.raises(RuntimeError, match="revalidation failed"):
        verify("T29", 1, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_t29_module_additions_are_the_normal_hypergroup_pairs(order, workers):
    # the claim's premise pairs are the normal-hypergroup enumeration, each
    # table at every zero where its axioms hold, in the same order
    tables = []
    enumerate_models(EnumerationJob(order, ("normal-hypergroup",), emit=tables.append), workers)
    expected = [
        (t, z) for t in tables for z in range(order) if classify.holds_at("normal-hypergroup", t, z)
    ]
    with parallel.pool(workers):
        assert theorems._premise_models(theorems._NORMAL, order, False) == expected
    assert expected


def test_oracle_equals_default_at_order2():
    for tid in ("T3", "T6", "T7", "T9", "T13", "T24", "P14-P23", "T25", "T26", "T27", "T28"):
        default = verify(tid, 2)
        oracle = verify(tid, 2, oracle=True)
        assert default.premise_models == oracle.premise_models, tid
        assert default.conclusion_holds == oracle.conclusion_holds, tid


# the claims on a label's premises, each with its label
LABEL_CLAIMS = {
    "T6": "multiplicative-hyperring-def7",
    "T13": "qmp-hypergroup",
    "T24": "qmp-hypergroup",
    "P14-P23": "qmp-hypergroup",
    "T25": "canonical-hypergroup",
    "T26": "canonical-hypergroup",
    "T27": "canonical-hypergroup",
    "T28": "hyperfield-def15",
}


@pytest.mark.parametrize("theorem", LABEL_CLAIMS)
def test_a_label_claim_is_capped_where_its_label_is(theorem):
    label = LABEL_CLAIMS[theorem]
    (premises,) = theorems.CLAIMS[theorem].premises
    if label in classify.TWO_OP_LABELS:
        assert premises == (label,)
    else:  # T27 keeps three of the canonical axioms
        assert set(premises) <= set(theorems._ids_of(label))
    cap = classify.max_order(label)
    assert theorems._ORDER_CAPS[theorem] == cap
    with pytest.raises(ValueError, match=f"outside 1..{cap}"):
        verify(theorem, cap + 1)


def test_all_reports_have_invariants():
    for tid in THEOREM_IDS:
        r = verify_cached(tid, 2)
        assert r.premise_models <= r.space_size
        assert r.conclusion_holds == (r.counterexample is None)
        payload = r.to_json()
        json.dumps(payload)  # serializable


def test_independence_witnesses_revalidate():
    r = verify_cached("T3", 2, drop_premises=True)
    for entry in r.independence_witnesses:
        table = parse_model(entry["model"])
        rows = oracles.from_table(table)
        kept = {"associative", "reproductive"} - {entry["dropped"]}
        for law in kept:
            assert oracles.law_holds(rows, law)
        assert not oracles.law_holds(rows, "cellwise-nonempty")


def test_search_independence_examples():
    hit = search_independence(["associative"], "cellwise-nonempty", 1)
    assert parse_model(hit["model"]).cells == (0,)
    none = search_independence(["associative", "reproductive"], "cellwise-nonempty", 2)
    assert none == {"none_at_order": 2}
    hit = search_independence(["reproductive"], "associative", 2)
    table = parse_model(hit["model"])
    rows = oracles.from_table(table)
    assert oracles.law_holds(rows, "reproductive")
    assert not oracles.law_holds(rows, "associative")


def test_search_independence_validation():
    with pytest.raises(ValueError, match="unknown id"):
        search_independence(["nope"], "associative", 2)
    for order in (5, 0, -1):
        with pytest.raises(ValueError, match="cap"):
            search_independence(["associative"], "reproductive", order)
    with pytest.raises(ValueError, match="conclusion"):
        search_independence(["reversibility-poly"], "associative", 2)


def test_verify_deterministic_across_workers():
    for tid, order in (("T3", 2), ("T7", 3), ("T13", 2)):
        a = verify(tid, order, drop_premises=True, workers=1).to_json(
            include_wall_time=False
        )
        b = verify(tid, order, drop_premises=True, workers=8).to_json(
            include_wall_time=False
        )
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


# -- drop searches: bounded, sharded, worker-invariant ---------------------------------


def _recorded_witnesses(theorem, order):
    from make_verify_snapshots import SNAPSHOT_PATH

    with open(SNAPSHOT_PATH, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    (case,) = [
        c for c in cases
        if (c["theorem"], c["order"], c["drop_premises"], c["oracle"]) == (theorem, order, True, False)
    ]
    return case["report"]["independence_witnesses"]


@pytest.mark.parametrize("theorem", ["T25", "T27"])
def test_drop_witnesses_equal_at_one_and_two_workers(theorem):
    claim = theorems.CLAIMS[theorem]
    one = theorems._drop_entries(claim, 3)
    with parallel.pool(2):
        assert one == theorems._drop_entries(claim, 3)
    assert one == _recorded_witnesses(theorem, 3)


@pytest.mark.parametrize("order", [2, pytest.param(3, marks=pytest.mark.slow)])
@pytest.mark.parametrize("theorem", ["T6", "T28"])
def test_two_operation_drop_witnesses_equal_at_one_and_two_workers(theorem, order):
    # both run the shared drop loop over their two-operation plan
    one = verify(theorem, order, drop_premises=True, workers=1).independence_witnesses
    assert one == verify(theorem, order, drop_premises=True, workers=2).independence_witnesses
    assert one == _recorded_witnesses(theorem, order)


# the element claims with drops; each drops single premise ids
ELEMENT_DROP_CLAIMS = [t for t, c in theorems.CLAIMS.items() if c.element and c.drops]


def _reference_drop_entries(claim, order):
    """Every (candidate, run) pair searched on all its shards with
    `engines.first_hit_task`; the witness is the canonical first hit, ties to
    the lower (candidate, run)."""
    entries = []
    for dropped in claim.drops:
        runs = list(dict.fromkeys(tuple(i for i in r if i != dropped) for r in claim.premises))
        hits = []
        for e in range(order):
            fails = partial(
                theorems._conclusion_fails, claim.conclusion, claim.biconditional is not None, e
            )
            for i, run in enumerate(runs):
                constraints = theorems._descriptors_at(run, e)
                kind = engines.table_kind(constraints)
                for task in engines.sweep_tasks(engines.BACKTRACK, order, constraints)[1]:
                    cells = engines.first_hit_task(task, fails)
                    if cells is not None:
                        hits.append((HyperTable(order, cells, kind), e, i))
        if hits:
            table, e, _ = min(hits, key=lambda hit: (table_key(hit[0]), hit[1], hit[2]))
            entries.append({"dropped": dropped, "model": serialize_model(table), "element": e})
        else:
            entries.append({"dropped": dropped, "none_at_order": order})
    return entries


@pytest.mark.parametrize("order", [2, pytest.param(3, marks=pytest.mark.slow)])
@pytest.mark.parametrize("theorem", ELEMENT_DROP_CLAIMS)
def test_element_drop_witnesses_equal_the_exhaustive_search(theorem, order):
    # the drop search skips the other candidates of a run with no hit at 0;
    # searching every candidate and shard must give the same entries
    assert ELEMENT_DROP_CLAIMS == ["T13", "T24", "T25", "T26", "T27"]
    claim = theorems.CLAIMS[theorem]
    assert theorems._drop_entries(claim, order) == _reference_drop_entries(claim, order)


def test_a_drop_run_without_a_witness_at_candidate_0_is_searched_once(monkeypatch):
    searches = []
    real = enumeration.first_hit

    def counting(fn, tasks):
        searches.append(fn)
        return real(fn, tasks)

    monkeypatch.setattr(enumeration, "first_hit", counting)
    claim = theorems.CLAIMS["T26"]
    counts = {}
    for dropped in claim.drops:
        searches.clear()
        (entry,) = theorems._drop_entries(replace(claim, drops=(dropped,)), 3)
        counts[dropped] = ("model" in entry, len(searches))
    # one run per drop: searched at candidate 0 only without a witness there,
    # and at all three candidates with one
    assert counts == {
        "associative": (False, 1),
        "commutative": (True, 3),
        "unique-opposite": (False, 1),
        "reversibility-canonical": (True, 3),
    }


def test_t28_drop_runs_link_the_group_action_exactly_when_its_axioms_are_kept():
    # a link is one left multiplication by a nonzero g that permutes H; without
    # an absorbing zero some multiplications have none
    def15 = classify.axioms_of("hyperfield-def15")
    for dropped in def15:
        kept = dropped not in ("multiplicative-group-on-H*", "distributive-equal")
        runs = list(two_op_plan(3, def15, 0, 1, dropped))
        assert runs and all(run.mul_fixed for run in runs), dropped
        linked = [any(c[0] == "equivariant-under" for c in run.descriptors) for run in runs]
        for run, has_links in zip(runs, linked):
            rows = [sorted(run.fixed.cell(g, x) for x in range(3)) for g in (1, 2)]
            assert has_links == (kept and [1, 2, 4] in rows), (dropped, run)
        assert any(linked) == kept, dropped


def test_order4_drops_are_not_searched():
    for theorem in ("T13", "T24", "T25", "T26", "T27", "T28"):
        claim = theorems.CLAIMS[theorem]
        entries = theorems._drop_entries(claim, 4)
        names = [d[0] if isinstance(d, tuple) else d for d in claim.drops]
        assert [e["dropped"] for e in entries] == names, theorem
        assert all(e["not_searched"] == theorems.NOT_SEARCHED for e in entries), theorem
    with pytest.raises(ValueError, match="cap"):
        search_independence(["associative"], "reproductive", 4)


@pytest.mark.slow
@pytest.mark.parametrize("theorem", ["T25", "T26", "T27"])
def test_order3_oracle_report_equals_default(theorem):
    # the oracle sweeps the raw space on the vector engine (T25 and T26 filter
    # its survivors through canonical reversibility, which does not
    # vectorize); the default runs the backtracker
    engine = theorems.sweep_engine(theorems.CLAIMS[theorem], 3, oracle=True)
    assert engine == engines.VECTOR_COLLECT
    default = verify_cached(theorem, 3).to_json(include_wall_time=False)
    assert verify_cached(theorem, 3, oracle=True).to_json(include_wall_time=False) == default


# Every (id, order <= cap) with --drop-premises, at one worker, finishes within
# this many seconds; the slowest cases (T25/4, T26/4, T27/4, T29/3, all main
# sweeps) took 52-60 s on a 2-vCPU Xeon VM, every other case under 18 s.
DROP_CASE_BOUND_S = 180


@pytest.mark.slow
@pytest.mark.parametrize(
    "theorem, order",
    [(t, o) for t in THEOREM_IDS for o in range(1, theorems._ORDER_CAPS[t] + 1)],
)
def test_every_drop_run_finishes_in_bounded_time(theorem, order):
    start = time.perf_counter()
    report = verify(theorem, order, drop_premises=True, workers=1)
    assert time.perf_counter() - start < DROP_CASE_BOUND_S
    for entry in report.independence_witnesses:
        (outcome,) = set(entry) - {"dropped", "element"}
        assert outcome in ("model", "none_at_order", "not_searched"), entry
        if order > theorems.DROP_CAP:
            assert outcome == "not_searched", entry
