"""Tests of the benchmark itself, in a quick mode that runs the cheapest
command of each workload.

    python3 -m pytest perfbench/test_perfbench.py           # about a minute
    python3 -m pytest perfbench/test_perfbench.py -m slow   # larger cross-checks
"""

import fnmatch
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layertrace import EXACT_COUNTERS, Tracer  # noqa: E402
from run import command_failures, spawn_pass, write_golden_subset  # noqa: E402
from workloads import GOLDEN_SUBSET_PATH, LAYER_MAP, WORKLOADS, with_workers  # noqa: E402

QUICK = [
    ["verify", "--theorem", "T24", "--order", "3", "--json"],
    ["enumerate", "--order", "4", "--structure", "qmp-hypergroup", "--zero", "0",
     "--format", "json"],
    ["golden-check", "--catalog", GOLDEN_SUBSET_PATH, "--format", "json"],
    ["verify", "--theorem", "T29", "--order", "2", "--json"],
]


def _expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_quick_commands_come_from_every_workload():
    for name, spec in WORKLOADS.items():
        assert any(argv in spec["commands"] for argv in QUICK), name


def test_exact_counters_repeat_across_traced_runs():
    write_golden_subset()
    commands = [with_workers(argv, 1) for argv in QUICK]
    first, second = (spawn_pass(commands, trace=True) for _ in range(2))
    for result in (first, second):
        assert command_failures(result, _expected()) == []
    for counter in EXACT_COUNTERS:
        assert first["layers"][counter] == second["layers"][counter], counter
    # every quick command drives at least one of these layers
    assert first["layers"]["engines.v3_eval.calls"] > 0
    assert first["layers"]["engines.bt.nodes"] > 0
    assert first["layers"]["classify.two_op.calls"] > 0
    assert first["layers"]["model.hypermodule_builds"] > 0


def test_untraced_pass_samples_the_host_during_a_long_command():
    argv = with_workers(QUICK[1], 1)  # the 2-4 s qmp-hypergroup enumeration
    result = spawn_pass([argv], cpu=min(os.sched_getaffinity(0)))
    assert command_failures(result, _expected()) == []
    # one sample before, one after, and periodic ones while it runs
    assert len(result["calib_s"]) >= 4
    assert all(t > 0 for t in result["calib_s"])
    assert result["wall_s"] == result["commands"][0]["wall_s"] > 0


@pytest.mark.parametrize(
    "structure, order, pruned",
    [
        pytest.param("qmp-hypergroup", 4, 165651),
        pytest.param("normal-hypergroup", 4, 541508, marks=pytest.mark.slow),
        pytest.param("hypergroup", 3, 200445, marks=pytest.mark.slow),
    ],
)
def test_traced_prune_count_equals_reported(structure, order, pruned):
    argv = ["enumerate", "--order", str(order), "--structure", structure,
            "--format", "json", "--workers", "1"]
    if structure != "hypergroup":
        argv[5:5] = ["--zero", "0"]
    result = spawn_pass([argv], trace=True)
    (entry,) = result["commands"]
    assert entry["error"] is None and entry["exit"] == 0
    assert entry["report"]["pruned_nodes"] == pruned
    assert result["layers"]["engines.bt.pruned"] == pruned


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    from hyperlab import axioms, classify, cli, dorroh, enumeration, model, theorems

    originals = {
        (classify, "check_law"): axioms.check_law,
        (enumeration, "canonical_form"): model.canonical_form,
        (cli, "serialize_model"): theorems.serialize_model,
        (dorroh, "classify_two_op"): classify.classify_two_op,
        (theorems, "parallel_map"): enumeration.parallel_map,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), original in originals.items():
            assert getattr(mod, attr) is not original, (mod.__name__, attr)
            assert getattr(mod, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (mod, attr), original in originals.items():
        assert getattr(mod, attr) is original


def test_benchmark_json_lists_every_layer_metric_and_its_prediction():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"] for m in bench["per_layer"]}
    measured = set(Tracer().metrics()) | {"trace.overhead_ratio"}
    assert listed == measured
    for name in listed:
        assert any(fnmatch.fnmatchcase(name, pattern) for pattern in LAYER_MAP), name


def test_refuses_a_checkout_without_sources(tmp_path):
    for rel in ("BENCHMARK.json", *(f"perfbench/{f}" for f in os.listdir(HERE))):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(tmp_path / os.path.dirname(rel), exist_ok=True)
            with open(src, "rb") as fh:
                (tmp_path / rel).write_bytes(fh.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rings-and-modules",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
