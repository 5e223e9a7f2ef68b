import io
import json
import time

import pytest

from hyperlab import enumeration, theorems
from hyperlab.axioms import check_law
from hyperlab.classify import candidate_rule, holds_at
from hyperlab.cli import _component, default_catalog_path, main
from hyperlab.model import canonical_form_two_op
from hyperlab.modelio import parse_model
from make_verify_snapshots import SNAPSHOT_PATH

MODELS = default_catalog_path().rsplit("/", 1)[0] + "/models"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_krasner_laws():
    code, out, _ = run(
        ["check", f"{MODELS}/krasner.model", "--laws", "associative,reproductive"]
    )
    assert code == 0
    assert "associative: holds" in out
    assert "reproductive: holds" in out


def test_check_failure_exit_code_and_witness():
    code, out, _ = run(
        ["check", f"{MODELS}/degenerate2.model", "--laws", "weakly-associative"]
    )
    assert code == 2
    assert "fails at (0, 0, 0)" in out


def test_check_ring_axioms():
    code, out, _ = run(
        [
            "check",
            f"{MODELS}/krasner.model",
            "--ring-axioms",
            "distributive-equal,absorbing-zero,multiplicative-group-on-H*",
        ]
    )
    assert code == 0
    assert out.count("holds") == 3


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_reports_a_failed_precondition(fmt):
    # the Krasner addition is a hyperoperation, so the sign rule has no negation
    code, out, _ = run(
        ["check", f"{MODELS}/krasner.model", "--ring-axioms", "sign-rule", "--format", fmt]
    )
    assert code == 2
    reason = "the additive structure is not an abelian group"
    if fmt == "text":
        assert out == f"sign-rule: precondition failed ({reason})\n"
    else:
        assert json.loads(out)["results"] == {
            "sign-rule": {"holds": False, "precondition": reason}
        }


@pytest.mark.parametrize("ident", ["multiplicative-identity", "mul-cellwise-nonempty", "nope"])
def test_check_refuses_ids_outside_the_ring_axioms(ident):
    # classification knows the first two, but they are not ring axiom variants
    code, out, err = run(["check", f"{MODELS}/krasner.model", "--ring-axioms", ident])
    assert code == 1 and out == ""
    assert f"error: unknown ring axiom variant: {ident!r}" in err


def test_check_usage_error():
    code, _, err = run(["check", f"{MODELS}/krasner.model"])
    assert code == 1
    assert "error:" in err
    code, _, err = run(["check", "/nonexistent.model", "--laws", "associative"])
    assert code == 1


def test_classify_degenerate():
    code, out, _ = run(["classify", f"{MODELS}/degenerate2.model"])
    assert code == 0
    assert out.splitlines()[0] == "labels: partial-hypergroupoid"


def test_classify_two_op_and_component():
    code, out, _ = run(["classify", f"{MODELS}/krasner.model", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == [
        "hyperfield",
        "hyperfield-def15",
        "krasner-hyperring",
        "unitary-hyperring",
    ]
    code, out, _ = run(["classify", f"{MODELS}/krasner.model", "--op", "add"])
    assert code == 0
    assert "canonical-hypergroup" in out


ONE_IS_NOT_THE_IDENTITY = """\
order 3
op add hyper
{0} {1} {2}
{1} {0,1,2} {1,2}
{2} {1,2} {0,1,2}
op mul composition
0 0 0
0 1 2
0 2 1
zero 0
one 2
"""


def test_classify_refuses_a_declared_one_that_is_not_the_identity(tmp_path):
    # element 1 is the identity; the model was classified without
    # unitary-hyperring and without its `one` before the parser checked it
    path = tmp_path / "one2.model"
    path.write_text(ONE_IS_NOT_THE_IDENTITY)
    code, out, err = run(["classify", str(path)])
    assert (code, out) == (1, "")
    assert "line 11, column 1: `one 2` is not the multiplicative identity" in err
    path.write_text(ONE_IS_NOT_THE_IDENTITY.replace("one 2", "one 1"))
    code, out, _ = run(["classify", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert "unitary-hyperring" in payload["labels"] and payload["constants"]["one"] == 1


def test_classify_hypermodule():
    code, out, _ = run(["classify", f"{MODELS}/krasner_module.model"])
    assert code == 0
    assert "hypermodule" in out
    assert "madd-canonical-hypergroup" in out
    code, out, _ = run(["classify", f"{MODELS}/krasner_module.model", "--weak"])
    assert code == 0 and "weak-hypermodule" in out


def test_verify_t3_oracle():
    code, out, _ = run(
        ["verify", "--theorem", "T3", "--order", "2", "--oracle", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["space_size"] == 256
    assert payload["conclusion_holds"]


# the single-operation claims whose cap is 4
SINGLE_OPERATION_CAP4 = ["T13", "T24", "P14-P23", "T25", "T26", "T27"]


@pytest.mark.parametrize("theorem", SINGLE_OPERATION_CAP4 + ["T28"])
def test_verify_refuses_oracles_above_order3(theorem):
    # above order 3 no engine independent of the backtracker exists, so the
    # oracle would certify nothing, and some of these ran for minutes; T28,
    # the one two-operation claim with cap 4, ran the default backtracker
    start = time.perf_counter()
    code, out, err = run(
        ["verify", "--theorem", theorem, "--order", "4", "--oracle", "--workers", "1"]
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert "--oracle runs up to order 3" in err


@pytest.mark.parametrize("order", [1, 2, 3])
def test_verify_refuses_t29_oracle(order):
    # T29's action search over its bundled scalar family has no engine
    # independent of the backtracker, so the oracle would certify nothing
    code, out, err = run(
        ["verify", "--theorem", "T29", "--order", str(order), "--oracle", "--workers", "1"]
    )
    assert code == 1 and out == ""
    assert "T29 has no --oracle" in err


@pytest.mark.parametrize("theorem", SINGLE_OPERATION_CAP4)
def test_verify_order3_oracle_reports_equal_the_default_snapshots(theorem):
    with open(SNAPSHOT_PATH, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    key = (theorem, 3, False, False)
    (snapshot,) = [
        c["report"] for c in cases
        if (c["theorem"], c["order"], c["drop_premises"], c["oracle"]) == key
    ]
    argv = ["verify", "--theorem", theorem, "--order", "3", "--oracle", "--json"]
    code, out, _ = run([*argv, "--workers", "1"])
    report = json.loads(out)
    del report["wall_time"]
    assert code == 0 and report == snapshot


def test_verify_unknown_theorem_is_usage_error():
    code, _, err = run(["verify", "--theorem", "T99", "--order", "2"])
    assert code == 1
    assert "unknown theorem" in err


def test_json_stdout_is_pure(tmp_path):
    for argv in (
        ["verify", "--theorem", "T3", "--order", "2", "--format", "json"],
        ["classify", f"{MODELS}/total2.model", "--format", "json"],
        ["check", f"{MODELS}/z2.model", "--laws", "associative", "--format", "json"],
        ["dorroh", "--base", f"{MODELS}/krasner.model", "--range", "1", "--json"],
    ):
        code, out, _ = run(argv)
        json.loads(out)  # the whole stream must be one JSON document


def test_enumerate_text_stream_and_summary():
    code, out, err = run(
        ["enumerate", "--order", "2", "--structure", "hypergroup", "--workers", "1"]
    )
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 14
    for block in blocks:
        parse_model(block + "\n")
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["raw_count"] == 14
    assert summary["canonical_count"] == 8


def test_enumerate_json_format():
    code, out, err = run(
        [
            "enumerate", "--order", "2", "--structure", "hypergroup",
            "--up-to-iso", "--format", "json", "--workers", "1",
        ]
    )
    assert code == 0
    models = json.loads(out)
    assert len(models) == 8
    assert all("ops" in m for m in models)


@pytest.mark.parametrize(
    "argv, pruned, raw",
    [
        (["--structure", "hv-group", "--order", "2"], 50, 35),
        (["--structure", "la-hypergroup", "--order", "2"], 81, 13),
        (["--structure", "ra-hypergroup", "--order", "2"], 78, 13),
        (["--structure", "semihypergroup", "--order", "2"], 35, 30),
        (["--structure", "qmp-hypergroup", "--order", "4", "--zero", "0"], 165651, 8),
        # element-quantified jobs search element 0 and relabel: the same tree
        (["--structure", "qmp-hypergroup", "--order", "4"], 165651, 32),
        (["--structure", "qmp-hypergroup", "--order", "4", "--zero", "3"], 165651, 8),
        (["--structure", "m-polysymmetrical-hypergroup", "--order", "4"], 142911, 32),
    ],
    ids=[
        "hv-group/2", "la-hypergroup/2", "ra-hypergroup/2", "semihypergroup/2",
        "qmp-hypergroup/4", "qmp-hypergroup/4-unpinned", "qmp-hypergroup/4-zero-3",
        "m-polysymmetrical-hypergroup/4-unpinned",
    ],
)
def test_enumerate_pins_pruned_node_counts(argv, pruned, raw):
    # the watchers may get faster, never weaker or stronger
    code, _, err = run(["enumerate", *argv, "--format", "json", "--workers", "1"])
    assert code == 0, err
    summary = json.loads(err.strip().splitlines()[-1])
    assert (summary["pruned_nodes"], summary["raw_count"]) == (pruned, raw)


def test_enumerate_pinned_away_from_zero_emits_models_at_the_pin():
    # the models are the (0 3) images of the element-0 search
    code, out, err = run(
        ["enumerate", "--order", "4", "--structure", "qmp-hypergroup", "--zero", "3",
         "--format", "json", "--workers", "1"]
    )
    assert code == 0, err
    tables = [parse_model(json.dumps(m), "json") for m in json.loads(out)]
    assert len(tables) == 8
    assert all(holds_at("qmp-hypergroup", t, 3) for t in tables)


@pytest.mark.slow
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "structure, raw, classes, pruned",
    [("canonical-hypergroup", 390, 97, 4095451), ("normal-hypergroup", 968, 196, 541508)],
)
def test_order4_enumerate_pins_the_search_tree(structure, raw, classes, pruned, workers):
    # the largest searches that the triple-law watchers prune, at one and
    # two workers: the node count guards the whole search tree
    code, _, err = run(
        ["enumerate", "--order", "4", "--structure", structure, "--zero", "0",
         "--format", "json", "--workers", workers]
    )
    assert code == 0, err
    summary = json.loads(err.strip().splitlines()[-1])
    assert (summary["raw_count"], summary["canonical_count"], summary["pruned_nodes"]) == (
        raw, classes, pruned
    )


def test_enumerate_out_file(tmp_path):
    target = tmp_path / "models.txt"
    code, out, _ = run(
        [
            "enumerate", "--order", "2", "--structure", "group",
            "--out", str(target), "--workers", "1",
        ]
    )
    assert code == 0
    assert out == ""
    assert target.read_text().count("order 2") == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_refused_enumerate_leaves_an_existing_out_file_unchanged(tmp_path, fmt):
    target = tmp_path / "keep.txt"
    target.write_bytes(b"kept data\n")
    for argv in (
        ["--order", "9", "--structure", "group"],
        ["--order", "2", "--structure", "no-such-structure"],
    ):
        code, out, err = run(["enumerate", *argv, "--format", fmt, "--out", str(target)])
        assert code == 1 and out == "" and "error:" in err
        assert target.read_bytes() == b"kept data\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "T3", "--order", "2"],
        ["enumerate", "--order", "2", "--structure", "group"],
        ["golden-check"],
    ],
)
def test_non_positive_worker_counts_are_refused(argv, workers):
    code, out, err = run([*argv, "--workers", workers])
    assert code == 1 and out == ""
    assert f"error: --workers must be at least 1, got {workers}" in err


def test_enumerate_prints_groups_as_compositions():
    code, out, _ = run(["enumerate", "--order", "3", "--structure", "group", "--workers", "1"])
    assert code == 0
    assert out.count("op law composition") == 3
    assert "order 3\nop law composition\n0 1 2\n1 2 0\n2 0 1\n" in out


def test_enumerate_by_laws_matches_structure():
    _, _, err_a = run(
        ["enumerate", "--order", "2", "--laws", "associative,reproductive",
         "--workers", "1"]
    )
    _, _, err_b = run(
        ["enumerate", "--order", "2", "--structure", "hypergroup", "--workers", "1"]
    )
    a = json.loads(err_a.strip().splitlines()[-1])
    b = json.loads(err_b.strip().splitlines()[-1])
    assert a["raw_count"] == b["raw_count"] == 14


def test_check_mul_component():
    code, out, _ = run(
        ["check", f"{MODELS}/krasner.model", "--laws", "associative", "--op", "mul"]
    )
    assert code == 0 and "holds" in out


@pytest.mark.parametrize("op", [None, "add", "mul", "madd"])
def test_op_names_a_hypermodule_table(op):
    # module addition by default; add and madd are equal tables in the
    # Krasner self-module, so the identity check tells them apart
    path = f"{MODELS}/krasner_module.model"
    with open(path, encoding="utf-8") as fh:
        module = parse_model(fh.read())
    table = _component(module, op)
    assert table is {"add": module.scalars.add, "mul": module.scalars.mul}.get(op, module.madd)
    laws = ("associative", "commutative", "reproductive")
    flag = [] if op is None else ["--op", op]
    code, out, _ = run(["check", path, "--laws", ",".join(laws), "--format", "json", *flag])
    assert code == (0 if op != "mul" else 2)
    assert json.loads(out)["results"] == {law: check_law(table, law).to_json() for law in laws}


@pytest.mark.parametrize(
    "model, op", [("krasner.model", "madd"), ("krasner.model", "law"), ("z3.model", "add")]
)
def test_op_refuses_a_table_the_model_lacks(model, op):
    # check refuses it too when only ring axioms are asked for
    for command, *flags in (["classify"], ["check", "--ring-axioms", "sign-rule"]):
        code, out, err = run([command, f"{MODELS}/{model}", *flags, "--op", op])
        assert code == 1 and out == ""
        assert f"error: model has no operation '{op}'" in err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["classify", "z2.model", "--weak"], "--weak applies only to a hypermodule"),
        (["classify", "krasner.model", "--weak"], "--weak applies only to a hypermodule"),
        (
            ["classify", "krasner_module.model", "--weak", "--op", "madd"],
            "--weak applies only to a hypermodule",
        ),
        (
            ["check", "krasner.model", "--ring-axioms", "sign-rule", "--op", "add"],
            "--op names the table --laws are checked on",
        ),
    ],
    ids=["classify-table", "classify-two-op", "classify-module-op", "check-op-without-laws"],
)
def test_flags_a_command_cannot_apply_are_refused(argv, reason):
    command, model, *flags = argv
    code, out, err = run([command, f"{MODELS}/{model}", *flags])
    assert code == 1 and out == ""
    assert f"error: {reason}" in err


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--structure", "hypergroup", "--up-to-iso", "--one", "2"], "`one` pin needs"),
        (["--structure", "qmp-hypergroup", "--one", "0"], "`one` pin needs"),
        (["--structure", "group", "--zero", "0"], "`zero` pin needs"),
        (["--laws", "associative,reproductive", "--zero", "1"], "`zero` pin needs"),
    ],
    ids=["one-hypergroup", "one-qmp", "zero-group", "zero-laws"],
)
def test_enumerate_refuses_pins_the_job_cannot_apply(flags, reason):
    # canonical forms fix a pinned element, so a pin the search ignores splits
    # the classes (hypergroup/3 with `--one 2` would give 11721, not 3999)
    code, out, err = run(["enumerate", "--order", "3", *flags, "--workers", "1"])
    assert code == 1 and out == ""
    assert reason in err


def test_classify_refuses_json_booleans_for_integers(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(
        '{"order": 1, "ops": {"law": {"kind": "hyper", "table": [[[false]]]}}}'
    )
    code, out, err = run(["classify", str(path), "--format", "json"])
    assert code == 1 and out == ""
    assert "in-range indices" in err


def test_enumerate_validation_error():
    code, _, err = run(["enumerate", "--order", "9", "--structure", "hypergroup"])
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("order", [0, -2])
def test_enumerate_refuses_orders_below_1(order):
    code, out, err = run(["enumerate", "--order", str(order), "--structure", "group"])
    assert code == 1 and out == ""
    assert f"order must be at least 1, got {order}" in err
    assert "cap" not in err


@pytest.mark.parametrize(
    "structure",
    [
        "multiplicative-hyperring-def6",
        "multiplicative-hyperring-def7",
        "krasner-hyperring",
        "unitary-hyperring",
        "m-polysymmetrical-hyperring",
    ],
)
def test_enumerate_refuses_order4_multiplicative_hyperrings(structure):
    # a two-operation label without a multiplicative group on H* caps at
    # order 3, the cap T6 uses: the def6/def7 order-4 premise space holds
    # about a billion models, and the Krasner family's searches ran open-ended
    code, out, err = run(["enumerate", "--order", "4", "--structure", structure,
                          "--zero", "0", "--workers", "1"])
    assert code == 1 and out == ""
    assert f"above the cap 3 for {structure}" in err


@pytest.mark.parametrize(
    "structure, order, cap",
    [
        ("hypergroup", 4, 3),
        ("semihypergroup", 4, 3),
        ("la-hypergroup", 4, 3),
        ("ra-hypergroup", 4, 3),
        ("quasicanonical-hypergroup", 4, 3),
        ("qmp-hypergroup", 5, 4),
        ("m-polysymmetrical-hypergroup", 5, 4),
        ("normal-hypergroup", 5, 4),
        ("canonical-hypergroup", 5, 4),
    ],
)
def test_enumerate_refuses_jobs_past_the_label_cap(structure, order, cap):
    # each of these ran past 30 s before its label stated its own cap
    pin = ["--zero", "0"] if candidate_rule(structure) else []
    start = time.perf_counter()
    code, out, err = run(["enumerate", "--order", str(order), "--structure", structure, *pin,
                          "--workers", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert f"above the cap {cap} for {structure}" in err


@pytest.mark.parametrize(
    "structure, oracle",
    [
        pytest.param("partial-hypergroupoid", [], id="oracle0"),
        pytest.param("partial-hypergroupoid", ["--oracle"], id="oracle1"),
        *(
            pytest.param(structure, oracle, id=f"{structure}-oracle{len(oracle)}")
            for structure in ("hypergroupoid", "quasihypergroup", "hv-group", None)
            for oracle in ([], ["--oracle"])
        ),
    ],
)
def test_enumerate_refuses_order3_partial_hypergroupoid(structure, oracle):
    # order-3 model sets (counted with the vector kernel): 94,805,465 partial
    # hypergroupoids, 40,353,607 hypergroupoids, 10,323,979 quasihypergroups,
    # 6,151,108 Hv-groups, and 8^9 = 134,217,728 tables without a constraint
    label = ["--structure", structure] if structure else []
    code, out, err = run(["enumerate", "--order", "3", *label, "--workers", "1", *oracle])
    assert code == 1 and out == ""
    assert f"above the cap 2 for {structure or 'an unconstrained job'}" in err


@pytest.mark.parametrize(
    "order, laws, cap",
    [
        (3, "reproductive", 2),
        (3, "weakly-associative", 2),
        (3, "commutative", 2),
        (3, "reproductive,commutative", 2),
        (4, "associative", 3),
        (4, "associative,reproductive", 3),
    ],
)
@pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["oracle0", "oracle1"])
def test_enumerate_refuses_law_only_jobs_above_their_cap(order, laws, cap, oracle):
    # order 3 is accepted only when associativity prunes the search
    argv = ["enumerate", "--order", str(order), "--laws", laws, "--workers", "1", *oracle]
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert f"above the cap {cap} for a law-only job" in err


def test_dorroh_refuses_ranges_outside_the_cap():
    from hyperlab.dorroh import RANGE_CAP

    for radius in (RANGE_CAP + 1, 0):
        start = time.perf_counter()
        code, out, err = run(["dorroh", "--base", f"{MODELS}/sign.model", "--range", str(radius)])
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert f"radius must be in 1..{RANGE_CAP}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--structure", "hyperfield", "--order", "4", "--zero", "0", "--one", "1"],
        ["enumerate", "--structure", "krasner-hyperring", "--order", "3", "--zero", "0"],
        ["verify", "--theorem", "T28", "--order", "3", "--drop-premises"],
    ],
)
def test_two_operation_searches_are_worker_invariant(argv):
    outputs = []
    for workers in ("1", "2"):
        code, out, err = run(argv + ["--format", "json", "--workers", workers])
        assert code == 0, err
        report = json.loads(err.strip().splitlines()[-1] if argv[0] == "enumerate" else out)
        report.pop("wall_time")
        outputs.append((out if argv[0] == "enumerate" else None, report))
    assert outputs[0] == outputs[1]


def test_dorroh_text_and_exit():
    code, out, _ = run(
        ["dorroh", "--base", f"{MODELS}/krasner.model", "--range", "1"]
    )
    assert code == 0
    assert "216 triples" in out
    code, _, err = run(["dorroh", "--base", f"{MODELS}/z2.model", "--range", "1"])
    assert code == 1  # single-table model is not a probe base


def test_golden_check_cli():
    code, out, _ = run(["golden-check", "--format", "json", "--workers", "4"])
    assert code == 0
    assert json.loads(out)["pass"]


def test_golden_check_missing_catalog(tmp_path):
    job = {"name": "group/2", "order": 2, "constraints": ["group"],
           "expect_raw": 2, "expect_canonical": 1}
    no_order = tmp_path / "no_order.json"
    no_order.write_text(json.dumps({"jobs": [job, {k: v for k, v in job.items() if k != "order"}]}))
    jobs_object = tmp_path / "jobs_object.json"
    jobs_object.write_text(json.dumps({"jobs": job}))
    no_jobs = tmp_path / "no_jobs.json"
    no_jobs.write_text(json.dumps({"jobs": []}))
    over_cap = tmp_path / "over_cap.json"
    over_cap.write_text(json.dumps({"jobs": [job, dict(job, name="group/9", order=9)]}))
    for path in ("/nope.json", no_order, jobs_object, no_jobs, over_cap):
        code, out, err = run(["golden-check", "--catalog", str(path)])
        assert code == 1 and out == ""
        assert "missing or corrupt" in err


def test_usage_error_unknown_flag():
    code, _, _ = run(["verify", "--not-a-flag"])
    assert code == 1


def test_seed_accepted_and_ignored():
    a = run(["verify", "--theorem", "T3", "--order", "2", "--json", "--seed", "7"])
    b = run(["verify", "--theorem", "T3", "--order", "2", "--json", "--seed", "8"])
    pa = json.loads(a[1])
    pb = json.loads(b[1])
    pa.pop("wall_time")
    pb.pop("wall_time")
    assert pa == pb


# -- internal errors -------------------------------------------------------------


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.usefixtures("drop_one_model")
def test_enumerate_internal_error_exits_1_and_writes_nothing(tmp_path, fmt):
    argv = ["enumerate", "--order", "3", "--structure", "canonical-hypergroup",
            "--format", fmt, "--workers", "1"]
    target = tmp_path / "models.out"
    for extra in ([], ["--out", str(target)]):
        code, out, err = run([*argv, *extra])
        assert code == 1 and out == ""
        assert err.startswith("error: internal: orbit not closed") and "Traceback" not in err
    assert not target.exists()


@pytest.mark.usefixtures("drop_one_model")
def test_golden_check_internal_error_exits_1():
    for fmt in ("text", "json"):
        code, out, err = run(["golden-check", "--format", fmt, "--workers", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error: internal: orbit not closed")


def test_verify_internal_error_exits_1(monkeypatch):
    # a drop witness that the authoritative predicates reject
    real = theorems._id_holds
    monkeypatch.setattr(theorems, "_id_holds", lambda t, i, e: i != "associative" and real(t, i, e))
    for fmt in ("text", "json"):
        argv = ["verify", "--theorem", "T3", "--order", "2", "--drop-premises", "--format", fmt]
        code, out, err = run([*argv, "--workers", "1"])
        assert code == 1 and out == ""
        assert err.startswith("error: internal: revalidation failed")


def test_enumerate_internal_error_on_a_two_operation_set_missing_a_model(monkeypatch):
    # the two-operation search loses one model that is not its own canonical form
    real = enumeration._enumerate_two_op

    def lossy(job):
        models, pruned = real(job)
        i = next(i for i, m in enumerate(models) if canonical_form_two_op(m) is not m)
        return models[:i] + models[i + 1:], pruned

    monkeypatch.setattr(enumeration, "_enumerate_two_op", lossy)
    argv = ["enumerate", "--order", "3", "--structure", "multiplicative-hyperring-def7"]
    code, out, err = run([*argv, "--zero", "0", "--workers", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: internal: orbit not closed")


@pytest.mark.parametrize("theorem", ["T13", "T25", "T27"])
@pytest.mark.usefixtures("wrong_transposition")
def test_verify_internal_error_on_a_wrong_transposition(theorem):
    code, out, err = run(["verify", "--theorem", theorem, "--order", "3", "--workers", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: internal: orbit not closed")


def test_verify_internal_error_on_an_element0_run_that_names_a_fixed_element(monkeypatch):
    # each element-0 premise run also asks for a unique opposite at element 1,
    # which the permutations fixing 0 move
    real = theorems._descriptors_at

    def at_one_too(ids, cand):
        return real(ids, cand) + ((("unique-opposite-at", 1),) if cand == 0 else ())

    monkeypatch.setattr(theorems, "_descriptors_at", at_one_too)
    code, out, err = run(["verify", "--theorem", "T24", "--order", "3", "--workers", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: internal: orbit not closed")
