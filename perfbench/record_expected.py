"""Record every workload command's exit code and report at `--workers 1`.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json, which `run.py` compares each run against.
Re-record only when a change is meant to alter a report, and review the diff.
"""

import json
import sys

from run import EXPECTED_PATH, spawn_pass, write_golden_subset
from workloads import WORKLOADS, command_key, with_workers


def main() -> int:
    write_golden_subset()
    expected = {}
    for spec in WORKLOADS.values():
        result = spawn_pass([with_workers(argv, 1) for argv in spec["commands"]])
        for entry in result["commands"]:
            if entry["error"] is not None:
                print(entry["error"], file=sys.stderr)
                return 1
            record = {k: v for k, v in entry.items()
                      if k not in ("argv", "error", "wall_s", "cpu_s")}
            expected[command_key(entry["argv"][:-2])] = record
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
