"""Record the classification reports that tests/test_classify_snapshots.py
compares against.

    PYTHONPATH=src python3 tests/make_classify_snapshots.py

Inputs, in recording order:

* single: every order-2 table, then every model of the catalog's order-3
  qmp, canonical, normal and quasicanonical jobs, through `classify_single`;
* two_op: every model of the catalog's two-operation jobs at orders 2 and 3
  (run on the pruned generator), through `classify_two_op`;
* bundled: every model under src/hyperlab/data/models, through the report
  `hyperlab classify` prints for it.

Each input is stored as the sha256 of its serialized model and the sha256 of
its report JSON (sort_keys).  The report hash covers only the evidence keys
listed under "evidence_keys", so a label without evidence may gain a trail
without moving a hash; the test checks any new key against an allow-list.
Bundled models also keep their full report.

Re-record only when a change is meant to alter a classification, and review
the diff.
"""

import hashlib
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SNAPSHOT_PATH = os.path.join(HERE, "data", "classify_snapshots.json")

ORDER3_SINGLE_JOBS = (
    "order3-qmp-hypergroup",
    "order3-canonical-hypergroup",
    "order3-normal-hypergroup",
    "order3-quasicanonical-hypergroup",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _catalog_models(names=None, two_op=None):
    """Models of the named catalog jobs (or of every job at order <= 3 with
    the given operation count), pruned generator, catalog order."""
    from hyperlab.cli import default_catalog_path
    from hyperlab.enumeration import EnumerationJob, enumerate_models, job_is_two_op

    with open(default_catalog_path(), encoding="utf-8") as fh:
        entries = json.load(fh)["jobs"]
    out = []
    for entry in entries:
        job = EnumerationJob(
            order=entry["order"],
            constraints=tuple(entry["constraints"]),
            zero=entry.get("zero"),
            one=entry.get("one"),
        )
        if names is not None and entry["name"] not in names:
            continue
        if two_op is not None and (job_is_two_op(job) != two_op or job.order > 3):
            continue
        job.emit = out.append
        enumerate_models(job)
    return out


def single_inputs():
    from hyperlab.model import HyperTable

    tables = [HyperTable(2, cells) for cells in itertools.product(range(4), repeat=4)]
    return tables + _catalog_models(names=ORDER3_SINGLE_JOBS)


def two_op_inputs():
    return _catalog_models(two_op=True)


def bundled_inputs():
    from hyperlab.modelio import parse_model

    models_dir = os.path.join(HERE, os.pardir, "src", "hyperlab", "data", "models")
    out = []
    for name in sorted(os.listdir(models_dir)):
        with open(os.path.join(models_dir, name), encoding="utf-8") as fh:
            out.append((name, parse_model(fh.read())))
    return out


def report_json(model) -> dict:
    from hyperlab.classify import check_hypermodule, classify_single, classify_two_op
    from hyperlab.model import HyperTable, TwoOpModel

    if isinstance(model, HyperTable):
        return classify_single(model).to_json()
    if isinstance(model, TwoOpModel):
        return classify_two_op(model).to_json()
    return check_hypermodule(model).to_json()


def report_sha(report: dict, evidence_keys) -> str:
    kept = dict(report, evidence={k: v for k, v in report["evidence"].items() if k in evidence_keys})
    return _sha(json.dumps(kept, sort_keys=True))


def entries(models, evidence_keys):
    from hyperlab.modelio import serialize_model

    return [
        [_sha(serialize_model(m)), report_sha(report_json(m), evidence_keys)] for m in models
    ]


def main() -> int:
    singles = single_inputs()
    two_ops = two_op_inputs()
    keys = {
        "single": sorted(report_json(singles[0])["evidence"]),
        "two_op": sorted(report_json(two_ops[0])["evidence"]),
    }
    bundled = {name: report_json(m) for name, m in bundled_inputs()}
    out = {
        "evidence_keys": keys,
        "single": entries(singles, keys["single"]),
        "two_op": entries(two_ops, keys["two_op"]),
        "bundled": bundled,
    }
    os.makedirs(os.path.dirname(SNAPSHOT_PATH), exist_ok=True)
    with open(SNAPSHOT_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(singles)} single, {len(two_ops)} two-op, {len(bundled)} bundled", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
