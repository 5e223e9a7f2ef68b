"""One measured pass of benchmark commands, in a fresh interpreter.

Reads a JSON request on stdin:
    {"spawned": <time.monotonic() just before this process was started>,
     "commands": [[argv...], ...], "trace": bool, "cpu": int or null}
and writes one JSON result line on stdout.  Every command goes through the
public entry point `hyperlab.cli.main(argv, out, err)` in this process.  With
"cpu" set, the pass runs pinned to that CPU, so the host-speed samples measure
the CPU the commands run on: on a shared host each vCPU slows down on its own.

`setup_s` runs from the spawn to `hyperlab.cli` imported, so nothing but the
standard library may be imported before it.  `wall_s` and `cpu_s` are summed
over the commands; `cpu_s` adds the worker children that `parallel_map` forks
and reaps.  An untraced pass also returns `calib_s`, the host-speed samples
of `HostSampler`, whose own time is taken out of the command times.  With
"commands" empty the pass only measures set-up.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hyperlab.cli  # noqa: E402

READY = time.monotonic()

import hashlib  # noqa: E402
import hostspeed  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

SAMPLE_PERIOD_S = 0.5


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def strip_wall_time(value):
    if isinstance(value, dict):
        return {k: strip_wall_time(v) for k, v in value.items() if k != "wall_time"}
    if isinstance(value, list):
        return [strip_wall_time(v) for v in value]
    return value


def parse_outputs(argv, out: str, err: str) -> dict:
    """The command's report without wall_time.  `enumerate` prints its
    models on stdout (kept as a digest) and its summary on stderr."""
    if argv[0] == "enumerate":
        summary = json.loads(err.strip().splitlines()[-1])
        return {
            "report": strip_wall_time(summary),
            "models": len(json.loads(out)),
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        }
    return {"report": strip_wall_time(json.loads(out))}


class HostSampler:
    """Times `hostspeed.calibrate()` when the pass starts, every
    SAMPLE_PERIOD_S of wall time while it runs, and when it ends.  The
    periodic samples run in a SIGALRM handler, so a long command is sampled
    while it runs, not only next to it.  `wall_s` and `cpu_s` total the time
    the samples took.  Forked workers inherit no interval timer, so they
    never sample."""

    def __init__(self):
        self.samples = []
        self.wall_s = self.cpu_s = 0.0
        self.active = False

    def sample(self):
        wall0, cpu0 = time.monotonic(), time.process_time()
        self.samples.append(hostspeed.calibrate())
        self.wall_s += time.monotonic() - wall0
        self.cpu_s += time.process_time() - cpu0

    def _tick(self, signum, frame):
        self.sample()
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)

    def __enter__(self):
        self.sample()
        self.active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        self.active = False  # a tick already pending samples but does not re-arm
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()


def run_pass(commands, sampler=None, serial=True) -> dict:
    """Run the commands; their times leave out what `sampler` spent.  In a
    parallel pass the samples run beside the workers, so only their CPU time
    is taken out."""
    raw = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        error = None
        spent = (sampler.wall_s, sampler.cpu_s) if sampler else (0.0, 0.0)
        cpu0 = _cpu_seconds()
        start = time.monotonic()
        try:
            code = hyperlab.cli.main(list(argv), out, err)
        except Exception:  # recorded as a failed command, the pass goes on
            code, error = None, traceback.format_exc()
        wall = time.monotonic() - start
        cpu = _cpu_seconds() - cpu0
        if sampler:
            cpu -= sampler.cpu_s - spent[1]
            if serial:
                wall -= sampler.wall_s - spent[0]
        raw.append((argv, code, error, out.getvalue(), err.getvalue(), wall, cpu))

    results = []
    for argv, code, error, out, err, wall, cpu in raw:
        entry = {"argv": argv, "exit": code, "error": error, "wall_s": wall, "cpu_s": cpu}
        if error is None:
            try:
                entry.update(parse_outputs(argv, out, err))
            except (ValueError, IndexError) as exc:
                entry["error"] = f"unparseable output: {exc}; stderr: {err[-500:]}"
        results.append(entry)
    return {
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mb": _peak_rss_mb(),
        "commands": results,
    }


def main() -> int:
    if os.path.commonpath([os.path.abspath(hyperlab.cli.__file__), SRC]) != SRC:
        print(f"hyperlab imported from outside {SRC}", file=sys.stderr)
        return 1
    request = json.load(sys.stdin)
    result = {"setup_s": READY - request["spawned"]}
    if request.get("cpu") is not None:
        os.sched_setaffinity(0, {request["cpu"]})
    if request["commands"] and request["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result.update(run_pass(request["commands"]))
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.span_table()
    elif request["commands"]:
        with HostSampler() as sampler:
            result.update(run_pass(request["commands"], sampler, request["cpu"] is not None))
        result["calib_s"] = sampler.samples
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
