"""Record the verifier reports that tests/test_snapshots.py compares against.

    PYTHONPATH=src python3 tests/make_verify_snapshots.py [--workers N] [--timeout S]

Every theorem id runs at orders 2 and 3, with and without --drop-premises,
and at order 2 also in oracle mode, except T29, which refuses --oracle.
Every id whose order cap is 4 also runs at order 4, without --drop-premises
(order-4 drops are not searched).  Each case runs in its own process under
a time limit; its `to_json(include_wall_time=False)` is written to
tests/data/verify_snapshots.json, and a case that does not finish in time is
listed there as skipped, which tests/test_snapshots.py rejects.  Reports do
not depend on the worker count, so --workers only changes how long
recording takes.

Re-record only when a change is meant to alter a report, and review the diff.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT_PATH = os.path.join(HERE, "data", "verify_snapshots.json")

_CASE = """
import json, sys
from hyperlab.theorems import verify
r = verify(sys.argv[1], int(sys.argv[2]), drop_premises=sys.argv[3] == "1",
           oracle=sys.argv[4] == "1", workers=int(sys.argv[5]))
print(json.dumps(r.to_json(include_wall_time=False), sort_keys=True))
"""


def snapshot_cases(theorem_ids):
    """(theorem, order, drop_premises, oracle) in recording order."""
    from hyperlab import theorems

    out = []
    for tid in theorem_ids:
        oracle2 = (False, True) if tid in theorems.CLAIMS else (False,)
        for order, oracles in ((2, oracle2), (3, (False,))):
            for oracle in oracles:
                for drop in (False, True):
                    out.append((tid, order, drop, oracle))
        if theorems._ORDER_CAPS[tid] >= 4:
            out.append((tid, 4, False, False))
    return out


def run_case(case, workers, timeout):
    tid, order, drop, oracle = case
    argv = [sys.executable, "-c", _CASE, tid, str(order), str(int(drop)),
            str(int(oracle)), str(workers)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{case} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args(argv)

    from hyperlab.theorems import THEOREM_IDS

    cases = []
    for case in snapshot_cases(THEOREM_IDS):
        start = time.perf_counter()
        report = run_case(case, args.workers, args.timeout)
        tid, order, drop, oracle = case
        entry = {"theorem": tid, "order": order, "drop_premises": drop, "oracle": oracle}
        if report is None:
            entry["skipped"] = f"did not finish within {args.timeout:g} s"
        else:
            entry["report"] = report
        cases.append(entry)
        print(f"{case}: {time.perf_counter() - start:.1f}s"
              f"{' skipped' if report is None else ''}", file=sys.stderr)
    os.makedirs(os.path.dirname(SNAPSHOT_PATH), exist_ok=True)
    with open(SNAPSHOT_PATH, "w", encoding="utf-8") as fh:
        json.dump({"timeout_s": args.timeout, "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
