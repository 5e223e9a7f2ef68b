"""Workload definitions for the hyperlab benchmark.

Every workload is a fixed list of CLI commands with JSON output.  The sweeps
are exhaustive and deterministic, so the seed only shuffles the order of the
commands inside a run.  `--workers` is always explicit: the CLI default is
`os.cpu_count()`, which would make results depend on the machine.

The command lists are cut down from the full sweeps so that one pass fits a
25-second run on a 2-vCPU machine.  Left out, with the reason:

* T9/3 and T7/3 (14 s and 10 s at two workers): the same count-mode vector
  kernel that T11/3 already drives.
* T29/3 (45 s serially): it alone is longer than a run; T29/2 keeps the
  action search and the `HypermoduleModel` builds on the path.
* `enumerate --order 4 --structure normal-hypergroup --zero 0` (10 s): the same
  quantified backtracker path as the qmp-hypergroup job; it stays in the
  pruned-node cross-check of `test_perfbench.py`.
* Four of the five order-2 two-operation catalog jobs (2.2 s each): they repeat
  the `classify_two_op`/`check_ring_axioms` path of the one that is kept.
* T25/4, T26/4, order-4 canonical-hypergroup enumeration, oracle modes and
  the `--drop-premises` runs that do not finish.
"""

GOLDEN_SUBSET_PATH = "perfbench/out/golden_subset.json"

# Committed catalog jobs that `golden-check` re-runs in the classify-enumerate
# workload; selected by name so later catalog additions do not change it.
GOLDEN_SUBSET = (
    "order2-unconstrained",
    "order2-hypergroupoid",
    "order2-hypergroup",
    "order2-group",
    "order3-group",
    "order4-group",
    "order2-hv-group",
    "order2-la-hypergroup",
    "order2-qmp-hypergroup",
    "order3-qmp-hypergroup",
    "order3-m-polysymmetrical",
    "order2-canonical-hypergroup",
    "order3-canonical-hypergroup",
    "order3-normal-hypergroup",
    "order3-quasicanonical-hypergroup",
    "order2-hyperfield",
    "order2-hyperfield-def15",
    "order3-hyperfield",
    "order3-hyperfield-def15",
    "order4-hyperfield",
    "order4-hyperfield-def15",
    "order3-krasner-hyperring",
    "order2-multiplicative-hyperring-def7",
    "order3-multiplicative-hyperring-def7",
    "order3-m-polysymmetrical-hyperring",
)

WORKLOADS = {
    "vector-sweep": {
        "workers": 2,
        "why": "order-3 numpy engine in count and collect+decode mode, fanned "
        "out over 512 chunks at two workers; no backtracker or classifier work",
        "commands": [
            ["verify", "--theorem", "T11", "--order", "3", "--json"],
            ["verify", "--theorem", "T24", "--order", "3", "--json"],
            ["verify", "--theorem", "T27", "--order", "3", "--json"],
        ],
    },
    "pruned-search": {
        "workers": 1,
        "why": "prune-heavy backtracker: many nodes, few solutions, witness-map "
        "sub-searches and a first-hit independence search; no vector work",
        "commands": [
            ["enumerate", "--order", "4", "--structure", "qmp-hypergroup",
             "--zero", "0", "--format", "json"],
            ["verify", "--theorem", "T13", "--order", "4", "--json"],
            ["verify", "--theorem", "T24", "--order", "4", "--json"],
            ["verify", "--theorem", "P14-P23", "--order", "4", "--json"],
            ["verify", "--theorem", "T25", "--order", "3", "--drop-premises",
             "--json"],
        ],
    },
    "classify-enumerate": {
        "workers": 1,
        "why": "emission-heavy backtracker with classify_single, canonical_form "
        "and JSON output on every order-3 hypergroup, plus two-op catalog jobs",
        "commands": [
            ["enumerate", "--order", "3", "--structure", "hypergroup",
             "--up-to-iso", "--format", "json"],
            ["golden-check", "--catalog", GOLDEN_SUBSET_PATH, "--format", "json"],
        ],
    },
    "rings-and-modules": {
        "workers": 1,
        "why": "the Dorroh probe, which runs nowhere else, plus verifier-owned "
        "code: the T29/2 hypermodule action search and the T6/T28/T2 ring sweeps",
        "commands": [
            ["verify", "--theorem", "T29", "--order", "2", "--json"],
            ["verify", "--theorem", "T6", "--order", "3", "--json"],
            ["verify", "--theorem", "T28", "--order", "4", "--json"],
            ["verify", "--theorem", "T2", "--order", "3", "--json"],
            ["dorroh", "--base", "src/hyperlab/data/models/sign.model",
             "--range", "2", "--json"],
        ],
    },
}

# Independent references the recorded outputs must also meet.  Tsitouras &
# Massouros, "On enumeration of hypergroups of order 3" (Comput. Math. Appl.
# 2010): 23192 labelled order-3 hypergroups, 3999 up to isomorphism.
REFERENCE_SUMMARIES = {
    ("enumerate", "--order", "3", "--structure", "hypergroup", "--up-to-iso",
     "--format", "json"): {"raw_count": 23192, "canonical_count": 3999},
}

# Per-layer metric pattern -> (end-to-end metrics it should move, workloads
# where it should move them).  On every other workload the prediction is no
# change.
LAYER_MAP = {
    "engines.v3_eval.*": ("wall_ref_s, cpu_ref_s", ["vector-sweep"]),
    "engines.bt.*": ("wall_ref_s", ["pruned-search", "classify-enumerate"]),
    "axioms.*": ("wall_ref_s", ["classify-enumerate", "pruned-search"]),
    "classify.*": ("wall_ref_s", ["classify-enumerate"]),
    "model.canonical_form.*": ("wall_ref_s", ["classify-enumerate"]),
    "model.hypermodule_builds": ("wall_ref_s", ["rings-and-modules"]),
    "enumeration.*": ("wall_ref_s", ["classify-enumerate", "pruned-search"]),
    "theorems.self_s": ("wall_ref_s", ["rings-and-modules"]),
    "modelio.*": ("wall_ref_s, peak_rss_mb", ["classify-enumerate"]),
    "cli.self_s": ("wall_ref_s, peak_rss_mb", ["classify-enumerate"]),
    "parallel.*": ("wall_ref_s, cpu_ref_s", ["vector-sweep"]),
    "dorroh.*": ("wall_ref_s", ["rings-and-modules"]),
    "trace.overhead_ratio": ("none: traced runs only", []),
}


def command_key(argv) -> str:
    """The expected-output key of a command: its argv without `--workers`."""
    return " ".join(argv)


def with_workers(argv, workers: int) -> list:
    return list(argv) + ["--workers", str(workers)]
