import json
import random
import re
from importlib import resources
from itertools import dropwhile, product, takewhile
from pathlib import Path

import pytest

from hyperlab import enumeration, theorems
from hyperlab.axioms import LAW_IDS, check_law
from hyperlab.classify import (
    SINGLE_LABELS,
    STRUCTURES,
    TWO_OP_LABELS,
    candidate_rule,
    classify_two_op,
    max_order,
    runs_at,
)
from hyperlab.engines import E, Backtracker, SearchSpec, key_sorted_masks
from hyperlab.enumeration import (
    EnumerationJob,
    _check_job,
    enumerate_models,
    golden_check,
    job_is_two_op,
    mul_compositions,
    sweep,
    with_detected_one,
)
from hyperlab.model import (
    HyperTable,
    TwoOpModel,
    apply_permutation,
    canonical_form,
    table_key,
    two_op_key,
)
from hyperlab.modelio import serialize_model
from hyperlab.samples import cyclic_group_table, krasner_hyperfield

CATALOG = resources.files("hyperlab") / "data" / "golden_catalog.json"
# the single-operation labels quantified over an element
QUANTIFIED = [
    "qmp-hypergroup",
    "m-polysymmetrical-hypergroup",
    "canonical-hypergroup",
    "quasicanonical-hypergroup",
    "normal-hypergroup",
]


def run_job(**kw):
    models = []
    summary = enumerate_models(EnumerationJob(emit=models.append, **kw))
    return summary, models


def test_order2_raw_counts():
    summary, _ = run_job(order=2, constraints=["hypergroupoid"], oracle=True)
    assert summary.raw_count == 81
    summary, _ = run_job(order=2, constraints=[], oracle=True)
    assert summary.raw_count == 256


def test_order2_hypergroup_oracle_equals_pruned():
    oracle_summary, oracle_models = run_job(
        order=2, constraints=["hypergroup"], oracle=True
    )
    pruned_summary, pruned_models = run_job(order=2, constraints=["hypergroup"])
    assert oracle_summary.raw_count == pruned_summary.raw_count == 14
    assert oracle_models == pruned_models
    assert oracle_summary.canonical_count == 8


@pytest.mark.parametrize("zero", [0, 1])
@pytest.mark.parametrize("structure", QUANTIFIED)
def test_oracle_honours_pinned_element(structure, zero):
    _, pruned = run_job(order=2, constraints=[structure], zero=zero)
    _, oracle = run_job(order=2, constraints=[structure], zero=zero, oracle=True)
    assert [m.cells for m in oracle] == [m.cells for m in pruned]


def test_oracle_honours_pinned_element_order3():
    # about 3 s: one vector sweep, reversibility in the final check
    summary, pruned = run_job(order=3, constraints=["canonical-hypergroup"], zero=1)
    _, oracle = run_job(order=3, constraints=["canonical-hypergroup"], zero=1, oracle=True)
    assert summary.raw_count == 15
    assert [m.cells for m in oracle] == [m.cells for m in pruned]


def test_relabeled_pin_equals_oracle_order3():
    # the pin away from 0 is the (0 2) image of the element-0 search
    summary, pruned = run_job(order=3, constraints=["qmp-hypergroup"], zero=2)
    _, oracle = run_job(order=3, constraints=["qmp-hypergroup"], zero=2, oracle=True)
    assert summary.raw_count == len(oracle) > 0
    assert [m.cells for m in oracle] == [m.cells for m in pruned]


def _quantified_runs():
    """Every descriptor run that `element_sweep` and `search_first` relabel
    by (0 k), at the placeholder E: the element-quantified labels' runs, and
    the element claims' premise runs, drop runs and conclusion descriptors
    (ids without a descriptor are checked in test_properties)."""
    labels = [lb for lb in SINGLE_LABELS if candidate_rule(lb)]
    claims = (*theorems.CLAIMS.values(), theorems._WEAK_QMP, theorems._NORMAL)
    claims = [c for c in claims if c.element]
    assert len(labels) == 5 and len(claims) == 8
    yield from (run for lb in labels for run in runs_at(lb, E))
    for c in claims:
        yield from (theorems._descriptors_at(run, E) for run in c.premises)
        for drop in c.drops:
            removed = drop[1] if isinstance(drop, tuple) else (drop,)
            for run in c.premises:
                yield theorems._descriptors_at([i for i in run if i not in removed], E)
        described = [i for i in c.conclusion if i in theorems._DESCRIPTOR_IDS]
        yield theorems._descriptors_at(described, E)


def test_quantified_descriptors_name_elements_only_through_e():
    # the image of a model at 0 under (0 k) is a model at k only if no
    # descriptor names an element itself: a `forced` pin or a literal
    # element breaks the transposition; law ids and boolean flags do not
    for run in _quantified_runs():
        for d in run:
            if d[0] == "law":
                assert len(d) == 2 and d[1] in LAW_IDS, d
            else:
                assert all(a is E or type(a) is bool for a in d[1:]), d


def test_emission_is_strictly_increasing():
    _, models = run_job(order=2, constraints=["hypergroup"])
    keys = [table_key(m) for m in models]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    _, models = run_job(order=2, constraints=["hypergroup"], up_to_iso=True)
    keys = [table_key(m) for m in models]
    assert keys == sorted(keys)


def test_up_to_iso_emits_canonical_representatives():
    summary, models = run_job(order=2, constraints=["hypergroup"], up_to_iso=True)
    assert summary.raw_count == 14
    assert summary.canonical_count == len(models) == 8
    for m in models:
        assert canonical_form(m) == m


def test_isomorphism_soundness():
    rng = random.Random(3)
    _, models = run_job(order=3, constraints=["group"])
    emitted = {m.cells for m in models}
    for m in models:
        perm = list(range(3))
        rng.shuffle(perm)
        assert canonical_form(apply_permutation(m, perm)).cells in {
            canonical_form(e).cells for e in models
        }
        assert apply_permutation(m, perm).cells in emitted  # closed under relabeling


def test_group_jobs():
    summary, models = run_job(order=3, constraints=["group"])
    assert summary.raw_count == 3
    assert summary.canonical_count == 1
    assert cyclic_group_table(3).cells in {m.cells for m in models}
    summary, _ = run_job(order=4, constraints=["group"])
    assert summary.raw_count == 16
    assert summary.canonical_count == 2


@pytest.mark.parametrize("oracle", [False, True])
def test_singleton_cells_select_the_composition_space(oracle):
    laws = (("law", "associative"), ("law", "reproductive"))
    groups, _ = sweep(2, [laws + (("singleton-cells",),)], oracle=oracle)
    hypergroups, _ = sweep(2, [laws], oracle=oracle)
    assert [t.kind for t in groups] == ["composition"] * 2
    assert {t.kind for t in hypergroups} == {"hyper"}
    assert {t.cells for t in groups} < {t.cells for t in hypergroups}


def test_backtracker_refuses_asymmetric_link_generators():
    # (0, 0, 1) is no bijection: cell (0, 1) links to (0, 0), not back
    with pytest.raises(ValueError, match="link generators must be symmetric"):
        Backtracker(SearchSpec(3, (("equivariant-under", (0, 0, 1)),)))


def test_hyperfield_def15_equals_def14_order2():
    _, def14 = run_job(order=2, constraints=["hyperfield"], zero=0, one=1)
    _, def15 = run_job(order=2, constraints=["hyperfield-def15"], zero=0, one=1)
    assert [serialize_model(m) for m in def14] == [serialize_model(m) for m in def15]
    assert len(def14) == 2
    assert any(m == krasner_hyperfield() for m in def14)


def test_two_op_job_detection_and_validation():
    assert job_is_two_op(EnumerationJob(2, ("hyperfield",)))
    assert not job_is_two_op(EnumerationJob(2, ("hypergroup",)))
    with pytest.raises(ValueError, match="cap"):
        enumerate_models(EnumerationJob(6, ("hypergroup",)))
    with pytest.raises(ValueError, match="cap"):
        enumerate_models(EnumerationJob(5, ("hyperfield",)))
    with pytest.raises(ValueError, match="unknown constraint"):
        enumerate_models(EnumerationJob(2, ("not-a-thing",)))
    with pytest.raises(ValueError, match="contradictory"):
        enumerate_models(EnumerationJob(2, ("hyperfield",), zero=1, one=1))
    with pytest.raises(ValueError, match="mix"):
        enumerate_models(EnumerationJob(2, ("hyperfield", "hypergroup")))


def test_golden_check_passes_on_shipped_catalog(monkeypatch):
    # every job runs as `enumerate` runs it: the generator, never the oracle
    jobs, run_models = [], enumeration.enumerate_models

    def recording(job, workers):
        jobs.append(job)
        return run_models(job, workers)

    monkeypatch.setattr(enumeration, "enumerate_models", recording)
    report = golden_check(str(CATALOG))
    assert report["pass"], [e for e in report["entries"] if not e["ok"]]
    assert len(jobs) == len(report["entries"])
    assert not any(job.oracle for job in jobs)


def _catalog_jobs(order):
    with CATALOG.open(encoding="utf-8") as fh:
        return [entry for entry in json.load(fh)["jobs"] if entry["order"] == order]


# the pure two-operation oracle classifies every order-2 (addition,
# multiplication) pair: 1.4-1.7 s per ring job; tier-1 certifies their
# zero-pinned model sets through the one classification pass below
_SLOW_ORACLE_JOBS = {
    "order2-krasner-hyperring",
    "order2-unitary-hyperring",
    "order2-multiplicative-hyperring-def6",
    "order2-multiplicative-hyperring-def7",
    "order2-m-polysymmetrical-hyperring",
}


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(
            e, id=e["name"], marks=pytest.mark.slow if e["name"] in _SLOW_ORACLE_JOBS else ()
        )
        for e in _catalog_jobs(2)
    ],
)
def test_order2_oracle_reproduces_the_catalog_counts(entry):
    # golden-check gates the generator; the unpruned oracle's agreement
    # with the shipped counts is certified here
    summary, _ = run_job(
        order=2,
        constraints=entry["constraints"],
        zero=entry.get("zero"),
        one=entry.get("one"),
        oracle=True,
    )
    assert (summary.raw_count, summary.canonical_count) == (
        entry["expect_raw"],
        entry["expect_canonical"],
    )


def test_golden_check_flags_perturbed_count(tmp_path):
    with CATALOG.open(encoding="utf-8") as fh:
        catalog = json.load(fh)
    catalog["jobs"] = [e for e in catalog["jobs"] if e["order"] == 2][:4]
    catalog["jobs"][2]["expect_raw"] += 1
    bad = tmp_path / "catalog.json"
    bad.write_text(json.dumps(catalog))
    report = golden_check(str(bad))
    assert not report["pass"]
    failing = [e for e in report["entries"] if not e["ok"]]
    assert len(failing) == 1
    assert failing[0]["name"] == catalog["jobs"][2]["name"]


def test_golden_check_missing_catalog():
    with pytest.raises(ValueError, match="missing or corrupt"):
        golden_check("/nonexistent/catalog.json")


def test_golden_check_refuses_a_bad_catalog_before_running_any_job(tmp_path, monkeypatch):
    job = {"name": "group/2", "order": 2, "constraints": ["group"],
           "expect_raw": 2, "expect_canonical": 1}
    monkeypatch.setattr(enumeration, "enumerate_models", lambda *a, **k: pytest.fail("a job ran"))
    for jobs in ([], [job, dict(job, name="group/9", order=9)]):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps({"jobs": jobs}))
        with pytest.raises(ValueError, match="missing or corrupt"):
            golden_check(str(path))


def _readme_caps():
    """(cap, jobs cell) per row of the README's "Order caps" table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text[text.index("Order caps:"):].splitlines()
    from_table = dropwhile(lambda line: not line.startswith("|"), lines)
    table = list(takewhile(lambda line: line.startswith("|"), from_table))
    rows = []
    for line in table[2:]:  # past the header and its rule
        cap, jobs, _reason = (cell.strip() for cell in line.strip("|").split("|", 2))
        rows.append((int(cap), jobs))
    return rows


def _accepts(order, constraints):
    try:
        _check_job(EnumerationJob(order, constraints))
    except ValueError as exc:
        assert "above the cap" in str(exc)
        return False
    return True


def test_readme_caps_table_matches_the_code():
    other_laws = [law for law in LAW_IDS if law != "associative"]
    law_jobs = {
        "no constraint at all": [()],
        "laws only, without `associative`": [(law,) for law in other_laws],
        "laws only, with `associative`": [("associative",)]
        + [("associative", law) for law in other_laws],
    }
    named = []
    for cap, jobs in _readme_caps():
        if jobs in law_jobs:
            for constraints in law_jobs.pop(jobs):
                assert _accepts(cap, constraints) and not _accepts(cap + 1, constraints), jobs
        else:
            labels = re.findall(r"`([^`]+)`", jobs)
            assert labels and all(max_order(label) == cap for label in labels), jobs
            named += labels
    # every label states its own cap, so the table names each one once
    assert not law_jobs and sorted(named) == sorted(STRUCTURES)


def test_order2_two_op_generator_equals_one_classification_pass():
    # one classify_two_op pass over every order-2 (zero, commutative
    # associative addition, multiplication) certifies the pruned generator,
    # its forced cells and equivariance links included, for every label
    tables = [HyperTable(2, cells) for cells in product(key_sorted_masks(2), repeat=4)]
    laws = ("associative", "commutative")
    adds = [t for t in tables if all(check_law(t, law).holds for law in laws)]
    classified = [
        (two_op_key(model), zero, classify_two_op(model).labels)
        for zero in range(2)
        for add in adds
        for mul in tables
        for model in [with_detected_one(2, add, mul, zero)]
    ]
    for label in TWO_OP_LABELS:
        for pin in (0, None):
            expected = sorted(
                key for key, zero, labels in classified if label in labels and pin in (None, zero)
            )
            _, models = run_job(order=2, constraints=[label], zero=pin)
            assert [two_op_key(m) for m in models] == expected, (label, pin)


def test_two_op_models_carry_detected_identity():
    _, models = run_job(order=2, constraints=["krasner-hyperring"], zero=0)
    for m in models:
        assert isinstance(m, TwoOpModel)
        if m.one is not None:
            assert m.mul.cell(m.one, 0) == 1 and m.mul.cell(m.one, 1) == 2


def test_order4_hyperfield_stretch():
    summary, models = run_job(order=4, constraints=["hyperfield"], zero=0, one=1)
    assert summary.raw_count == 9
    assert summary.canonical_count == 7
    summary15, _ = run_job(order=4, constraints=["hyperfield-def15"], zero=0, one=1)
    assert summary15.raw_count == 9
    for m in models:  # nonzero part is the 3-cycle group, where 2*2 = 3 forced
        assert m.mul.cell(2, 2) == 0b1000


@pytest.mark.slow
def test_order4_hyperfield_matches_linkless_search():
    # the group-action orbit forcing first bites at order 4 (a three-cycle);
    # re-derive the model set through the shared sweep without the
    # equivariance descriptors
    additive = (("law", "associative"), ("law", "commutative"), ("unique-opposite-at", 0))
    adds, _ = sweep(4, [additive], pruned=True)
    found = set()
    for mul in mul_compositions(4, 0, 1, ("multiplicative-group-on-H*", "absorbing-zero")):
        for add in adds:
            model = TwoOpModel(4, add, mul, 0, 1)
            if "hyperfield" in classify_two_op(model).labels:
                found.add(two_op_key(model))
    _, linked = run_job(order=4, constraints=["hyperfield"], zero=0, one=1)
    assert found == {two_op_key(m) for m in linked}


@pytest.mark.slow
@pytest.mark.parametrize("zero", [None, 0, 1, 2])
@pytest.mark.parametrize("structure", QUANTIFIED)
def test_order3_qmp_pruned_equals_vector_oracle(structure, zero):
    # the generator relabels its element-0 models by (0 k); the oracle
    # searches every candidate on its own
    pruned, pruned_models = run_job(order=3, constraints=[structure], zero=zero)
    oracle, oracle_models = run_job(order=3, constraints=[structure], zero=zero, oracle=True)
    assert pruned.raw_count == oracle.raw_count
    assert [m.cells for m in pruned_models] == [m.cells for m in oracle_models]


@pytest.mark.slow
def test_order3_hypergroup_pruned_equals_vector_oracle():
    pruned, pruned_models = run_job(order=3, constraints=["hypergroup"])
    oracle, oracle_models = run_job(order=3, constraints=["hypergroup"], oracle=True)
    assert pruned.raw_count == oracle.raw_count == 23192
    assert [m.cells for m in pruned_models] == [m.cells for m in oracle_models]
