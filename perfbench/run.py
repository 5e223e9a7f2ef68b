"""hyperlab benchmark: time to verdict for fixed CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from
its `src/` directory.  Each pass of a workload runs in a fresh interpreter
(`pass_worker.py`) that drives `hyperlab.cli.main` in-process.  Passes
repeat while the next one is predicted to end within `--seconds`; at least
one always runs.  The seed only shuffles the command order.

Every command's exit code and report (wall_time removed) must equal the one
recorded at `--workers 1` in `expected.json`, so runs at two workers also
check worker invariance.  Some reports must also meet independent
references (`workloads.REFERENCE_SUMMARIES`).

--trace 0: end-to-end metrics.  Times are scaled to a reference host: an
    untraced pass times a fixed kernel (`hostspeed.py`) every half second,
    and the run's times are divided by host_slowdown, its mean sample over
    the kernel's time on the reference host, so that a slow spell of a
    shared host cancels out.  A serial pass runs pinned to one CPU.
    wall_ref_s, cpu_ref_s: per-pass wall and CPU seconds (self + reaped
        children; the kernel's own time left out), mean over the passes of
        the run, scaled;
    peak_rss_mb: median over the passes (larger of self and children);
    setup_s: spawn to `hyperlab.cli` imported, median of at least
        SETUP_SAMPLES fresh interpreters, scaled.
    The unscaled wall_s, cpu_s and setup_raw_s, host_slowdown and
    failed_ratio are printed by name too, but are not in the result line.
--trace 1: per-layer metrics.  Untraced and traced passes alternate, both at
    `--workers 1`; trace.overhead_ratio compares their median wall times.
    Traced passes take no host samples.  The aggregated spans are written
    to perfbench/out/.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
A broken checkout (no sources, no recorded outputs) exits 1 without it.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostspeed import slowdown  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN_SUBSET,
    GOLDEN_SUBSET_PATH,
    REFERENCE_SUMMARIES,
    WORKLOADS,
    command_key,
    with_workers,
)

SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CATALOG_PATH = os.path.join(ROOT, "src", "hyperlab", "data", "golden_catalog.json")


class BenchError(Exception):
    """The checkout cannot run the benchmark at all."""


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def write_golden_subset():
    """Select the committed catalog's jobs that the workload re-runs."""
    try:
        with open(CATALOG_PATH, encoding="utf-8") as fh:
            catalog = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read the golden catalog: {exc}") from exc
    by_name = {job["name"]: job for job in catalog["jobs"]}
    missing = [name for name in GOLDEN_SUBSET if name not in by_name]
    if missing:
        raise BenchError(f"golden catalog lacks jobs {missing}")
    subset = {
        "comment": "generated from golden_catalog.json by perfbench/run.py",
        "jobs": [by_name[name] for name in GOLDEN_SUBSET],
    }
    path = os.path.join(ROOT, GOLDEN_SUBSET_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(subset, fh, indent=1, sort_keys=True)


def spawn_pass(commands, trace=False, cpu=None) -> dict:
    """Run one pass in a fresh interpreter and return its parsed result."""
    request = {"commands": commands, "trace": trace, "cpu": cpu, "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "pass_worker.py")],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"pass worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def command_failures(result: dict, expected: dict) -> list:
    """(argv, reason) for each command whose output is not the recorded one."""
    failures = []
    for entry in result["commands"]:
        argv = entry["argv"][:-2]  # drop the explicit --workers N
        key = command_key(argv)
        want = expected.get(key)
        if entry["error"] is not None:
            failures.append((key, entry["error"].strip().splitlines()[-1]))
        elif want is None:
            failures.append((key, "no recorded output"))
        elif entry["exit"] != want["exit"]:
            failures.append((key, f"exit {entry['exit']}, expected {want['exit']}"))
        elif any(entry.get(f) != want.get(f) for f in ("report", "models", "stdout_sha256")):
            failures.append((key, "report differs from the recorded one"))
        else:
            ref = REFERENCE_SUMMARIES.get(tuple(argv))
            if ref and any(entry["report"].get(k) != v for k, v in ref.items()):
                failures.append((key, f"report misses the reference {ref}"))
            elif argv[0] == "golden-check" and entry["report"].get("pass") is not True:
                failures.append((key, "golden-check did not pass"))
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    commands = list(spec["commands"])
    random.Random(seed).shuffle(commands)
    workers = 1 if trace else spec["workers"]
    commands = [with_workers(argv, workers) for argv in commands]
    # A serial pass runs pinned to one CPU, so that its calibration samples
    # measure the CPU its commands ran on.
    pin = min(os.sched_getaffinity(0)) if workers == 1 else None
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    write_golden_subset()

    # A trace run alternates an untraced and a traced pass as one step.
    step = [False, True] if trace else [False]
    passes = {False: [], True: []}
    failures = []  # (command, reason), one per failed command run
    problems = []  # run-level checks that failed
    attempted = 0
    setup = []
    begin = time.monotonic()
    while True:
        step_start = time.monotonic()
        for traced in step:
            result = spawn_pass(commands, traced, pin)
            passes[traced].append(result)
            setup.append(result["setup_s"])
            attempted += len(result["commands"])
            failures.extend(command_failures(result, expected))
        now = time.monotonic()
        if now - begin + (now - step_start) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(spawn_pass([], cpu=pin)["setup_s"])

    out = {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "passes": len(passes[False]),
        "pass_walls": [r["wall_s"] for r in passes[False]],
        "pass_slowdowns": [slowdown(r["calib_s"]) for r in passes[False]],
    }
    if not trace:
        runs = passes[False]
        host = slowdown([t for r in runs for t in r["calib_s"]])
        wall = statistics.mean(r["wall_s"] for r in runs)
        cpu = statistics.mean(r["cpu_s"] for r in runs)
        out["metrics"] = {
            "wall_ref_s": wall / host,
            "cpu_ref_s": cpu / host,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "setup_s": statistics.median(setup) / host,
        }
        out["raw"] = {
            "wall_s": wall,
            "cpu_s": cpu,
            "setup_raw_s": statistics.median(setup),
            "host_slowdown": host,
        }
        return out

    traced = passes[True]
    layers = {}
    for metric in traced[0]["layers"]:
        values = [r["layers"][metric] for r in traced]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"{metric} differs between traced passes: {values}")
            layers[metric] = values[0]
        else:
            layers[metric] = statistics.median(values)
    untraced_wall = statistics.median(r["wall_s"] for r in passes[False])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    layers["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    out["metrics"] = layers
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"spans-{name}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "passes": [r["spans"] for r in traced]},
                  fh, indent=1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = load_benchmark_spec()
        if not os.path.isfile(os.path.join(ROOT, "src", "hyperlab", "cli.py")):
            raise BenchError(f"no hyperlab sources under {ROOT}/src")
        if not os.path.isfile(EXPECTED_PATH):
            raise BenchError(f"missing {EXPECTED_PATH}")
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    missing = sorted(set(units) - set(res["metrics"]))
    if missing:
        print(f"benchmark error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    failed = len(res["failures"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']}  untraced pass wall_s "
          + " ".join(f"{w:.3f}" for w in res["pass_walls"])
          + "  host slowdown "
          + " ".join(f"{k:.3f}" for k in res["pass_slowdowns"]))
    for key, reason in res["failures"]:
        print(f"  FAILED {key}: {reason}")
    for problem in res["problems"]:
        print(f"  FAILED check: {problem}")
    for name in units:
        value = res["metrics"][name]
        note = "  (layer not run)" if args.trace and value == 0 else ""
        print(f"  {name:36s} {value:>16.6g} {units[name]}{note}")
    for name, value in res.get("raw", {}).items():
        unit = "ratio" if name == "host_slowdown" else "s"
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':36s} {failed / res['attempted']:>16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: {"value": res["metrics"][n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
