"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Golden counts asserted here were certified by unpruned oracle runs (order 2
pure Python everywhere; order 3 via the vectorized full-space engine, see the
slow-marked certification tests).
"""

import json
from hyperlab.classify import classify_single, classify_two_op
from hyperlab.cli import default_catalog_path
from hyperlab.dorroh import associativity_probe
from hyperlab.enumeration import EnumerationJob, enumerate_models, golden_check
from hyperlab.samples import (
    degenerate_table,
    krasner_hyperfield,
    total_table,
)
from hyperlab.theorems import CLAIMS, _premise_models, verify

from conftest import verify_cached


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_t3_order2_oracle():
    r = verify("T3", 2, oracle=True, drop_premises=True)
    ok = (
        r.space_size == 256
        and r.conclusion_holds
        and r.counterexample is None
        and {e["dropped"] for e in r.independence_witnesses}
        == {"associative", "reproductive"}
        and all("model" in e for e in r.independence_witnesses)
        and r.wall_time < 1.0
    )
    report(1, ok, f"space={r.space_size} wall={r.wall_time:.3f}s")


def test_criterion_2_t3_order3_pruned():
    r = verify("T3", 3, workers=8)
    # 23192 is the premise-model count certified by the unpruned vectorized
    # engine (see the slow T3 oracle test)
    ok = (
        r.conclusion_holds
        and r.counterexample is None
        and r.premise_models == 23192
        and r.space_size == 8 ** 9
        and r.wall_time < 600
    )
    report(2, ok, f"premise_models={r.premise_models} wall={r.wall_time:.1f}s")


def test_criterion_3_t7_t9_t11_orders_2_and_3():
    details = []
    ok = True
    for tid in ("T7", "T9", "T11"):
        for order in (2, 3):
            r = verify_cached(tid, order) if order == 3 else verify(tid, order)
            ok = ok and r.conclusion_holds and r.counterexample is None
            details.append(f"{tid}@{order}")
    report(3, ok, " ".join(details))


def test_criterion_4_t2_order3():
    r = verify("T2", 3)
    ok = (
        r.space_size == 3 ** 9
        and r.conclusion_holds
        and r.premise_models == 113
        and r.wall_time < 5.0
    )
    report(4, ok, f"semigroups={r.premise_models} wall={r.wall_time:.2f}s")


def test_criterion_5_qmp_suite():
    ok = True
    for order in (2, 3, 4):  # order 4 is the optional extension
        t13 = verify_cached("T13", order)
        t24 = verify_cached("T24", order)
        suite = verify_cached("P14-P23", order)
        ok = ok and t13.conclusion_holds and t24.conclusion_holds
        ok = ok and suite.conclusion_holds
        ok = ok and not suite.extras["failures_per_check"]
    # every labeled group table of order <= 3 appears among the premise models
    for order in (1, 2, 3):
        groups = []
        enumerate_models(
            EnumerationJob(order, ("group",), emit=groups.append)
        )
        qmp_tables = {t.cells for t, _e in _premise_models(CLAIMS["T13"], order, False)}
        ok = ok and all(g.cells in qmp_tables for g in groups)
    report(5, ok)


def test_criterion_6_t25_t26_t27():
    ok = True
    for order in (2, 3):
        ok = ok and verify_cached("T25", order).conclusion_holds
        ok = ok and verify_cached("T26", order).conclusion_holds
        t27 = verify_cached("T27", order)
        ok = ok and t27.conclusion_holds
        for premise_set in t27.extras["premise_sets"].values():
            ok = ok and premise_set["biconditional_holds"]
    report(6, ok)


def test_criterion_7_t28_and_golden_counts():
    ok = True
    counts = {}
    for order, expected in ((2, 2), (3, 5)):
        r = verify_cached("T28", order)
        counts[order] = r.extras["def15_models"]
        ok = ok and r.conclusion_holds and r.extras["model_sets_identical"]
        ok = ok and r.extras["def15_models"] == r.extras["def14_models"] == expected
    catalog = golden_check(default_catalog_path(), workers=4)
    hyperfield_entries = [
        e for e in catalog["entries"] if "hyperfield" in e["name"]
    ]
    ok = ok and len(hyperfield_entries) == 6  # orders 2-4, both axiom sets
    ok = ok and all(e["ok"] for e in hyperfield_entries)
    report(7, ok, f"def15 counts={counts}")


def test_criterion_8_bundled_classifications():
    k = krasner_hyperfield()
    two_op_labels = classify_two_op(k).labels
    ok = two_op_labels == {
        "krasner-hyperring",
        "unitary-hyperring",
        "hyperfield",
        "hyperfield-def15",
    }
    ok = ok and "canonical-hypergroup" in classify_single(k.add).labels
    ok = ok and classify_single(degenerate_table(2)).labels == {"partial-hypergroupoid"}
    ok = ok and classify_single(total_table(2)).labels == {
        "hypergroupoid",
        "semihypergroup",
        "quasihypergroup",
        "hypergroup",
        "hv-group",
        "la-hypergroup",
        "ra-hypergroup",
    }
    report(8, ok, " ".join(sorted(two_op_labels)))


def test_criterion_9_dorroh_probe():
    r = associativity_probe(krasner_hyperfield(), 2, workers=4, base_name="krasner")
    ok = (
        r.canonical_window_ok
        and r.inclusion_ok
        and r.triples_checked == 1000
        and r.assoc_equal_count == 1000
        and r.weak_assoc_ok_count == 1000
        and r.wall_time < 10.0
    )
    report(
        9,
        ok,
        f"triples={r.triples_checked} equal={r.assoc_equal_count} "
        f"wall={r.wall_time:.2f}s",
    )


def test_criterion_10_property_suite_configuration():
    import test_properties

    suites = [
        name for name in dir(test_properties) if name.startswith("test_")
    ]
    ok = (
        test_properties.SUITE.max_examples >= 1000
        and test_properties.SUITE.derandomize
        and len(suites) >= 6
    )
    report(10, ok, f"{len(suites)} suites x {test_properties.SUITE.max_examples} cases")


def test_criterion_11_worker_determinism():
    ok = True
    for tid, order in (("T3", 2), ("T3", 3), ("T7", 3), ("T13", 3), ("T27", 2)):
        one = verify(tid, order, drop_premises=(order == 2), workers=1)
        eight = verify(tid, order, drop_premises=(order == 2), workers=8)
        ok = ok and json.dumps(
            one.to_json(include_wall_time=False), sort_keys=True
        ) == json.dumps(eight.to_json(include_wall_time=False), sort_keys=True)

    def run_enum(workers):
        models = []
        summary = enumerate_models(
            EnumerationJob(
                2, ("hypergroup",), up_to_iso=True, emit=models.append
            ),
            workers=workers,
        )
        payload = {
            "summary": summary.to_json(include_wall_time=False),
            "models": [m.cells for m in models],
        }
        return json.dumps(payload, sort_keys=True)

    ok = ok and run_enum(1) == run_enum(8)
    report(11, ok)
