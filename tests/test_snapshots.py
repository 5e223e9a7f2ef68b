"""Verifier reports reproduce the recorded snapshots byte for byte.

tests/data/verify_snapshots.json holds `to_json(include_wall_time=False)` for
every theorem id at orders 2 and 3, with and without --drop-premises, at
order 2 with and without --oracle (but T29, which refuses --oracle), and at
order 4 for every id whose cap is 4 (tests/make_verify_snapshots.py records
it).  T25, T26 and T27 at order 4
(several seconds each) and the order-3 drop cases run under `-m slow`, but
the order-3 drop cases of FAST_ORDER3_DROPS (0.4 s or less each) run in
tier-1.  Cases go through
`verify_cached` with the argument spelling the other tests use, so no sweep
runs twice in one session.
"""

import json

import pytest

from hyperlab.theorems import THEOREM_IDS
from make_verify_snapshots import SNAPSHOT_PATH, snapshot_cases

from conftest import verify_cached

with open(SNAPSHOT_PATH, encoding="utf-8") as fh:
    CASES = json.load(fh)["cases"]


def _case_id(case):
    flags = [f for f in ("drop_premises", "oracle") if case[f]]
    return "-".join([case["theorem"], str(case["order"])] + flags)


SLOW_ORDER4 = {"T25", "T26", "T27"}
FAST_ORDER3_DROPS = {"T13", "T24", "T25", "T26", "T27"}


def _params():
    for case in CASES:
        slow_drop = case["drop_premises"] and case["theorem"] not in FAST_ORDER3_DROPS
        slow = case["order"] == 3 and slow_drop or (
            case["order"] == 4 and case["theorem"] in SLOW_ORDER4
        )
        marks = [pytest.mark.slow] if slow else []
        yield pytest.param(case, marks=marks, id=_case_id(case))


def test_snapshot_covers_every_case():
    recorded = [(c["theorem"], c["order"], c["drop_premises"], c["oracle"]) for c in CASES]
    assert recorded == snapshot_cases(THEOREM_IDS)
    # a case that did not finish while recording is a hang, not a snapshot
    assert [_case_id(c) for c in CASES if "skipped" in c] == []


@pytest.mark.parametrize("case", list(_params()))
def test_report_matches_snapshot(case):
    flags = {f: True for f in ("drop_premises", "oracle") if case[f]}
    report = verify_cached(case["theorem"], case["order"], **flags)
    got = json.dumps(report.to_json(include_wall_time=False), sort_keys=True)
    assert got == json.dumps(case["report"], sort_keys=True)
