"""Classification reports reproduce the recorded snapshots.

tests/data/classify_snapshots.json holds, per input, the sha256 of the
serialized model and of its report (tests/make_classify_snapshots.py records
it; the module docstring there lists the inputs).  Labels, constants and
evidence must match; the only change allowed is an evidence trail for a
label that had none when the snapshot was recorded.
"""

import json

import pytest

from make_classify_snapshots import (
    SNAPSHOT_PATH,
    bundled_inputs,
    entries,
    report_json,
    single_inputs,
    two_op_inputs,
)

# labels that carried no evidence when the snapshot was recorded
GAINED_EVIDENCE = {"group", "la-hypergroup", "ra-hypergroup"}

with open(SNAPSHOT_PATH, encoding="utf-8") as fh:
    SNAPSHOT = json.load(fh)


@pytest.mark.parametrize("kind, inputs", [("single", single_inputs), ("two_op", two_op_inputs)])
def test_reports_match_snapshot(kind, inputs):
    keys = SNAPSHOT["evidence_keys"][kind]
    models = inputs()
    got = entries(models, keys)
    assert [g[0] for g in got] == [r[0] for r in SNAPSHOT[kind]], "inputs changed"
    bad = [i for i, (g, r) in enumerate(zip(got, SNAPSHOT[kind])) if g[1] != r[1]]
    assert bad == [], f"{len(bad)} reports differ, first input #{bad[0] if bad else None}"
    # every report of a kind has the same evidence keys
    assert set(report_json(models[0])["evidence"]) - set(keys) <= GAINED_EVIDENCE


BUNDLED = bundled_inputs()


@pytest.mark.parametrize("name, model", BUNDLED, ids=[name for name, _ in BUNDLED])
def test_bundled_reports_match_snapshot(name, model):
    want = SNAPSHOT["bundled"][name]
    got = report_json(model)
    gained = set(got["evidence"]) - set(want["evidence"])
    assert gained <= GAINED_EVIDENCE
    got["evidence"] = {k: v for k, v in got["evidence"].items() if k not in gained}
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
