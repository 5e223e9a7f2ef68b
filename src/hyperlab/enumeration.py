"""Exhaustive enumeration of models satisfying a constraint set.

A job names its constraints with public ids: any law id from
axioms.LAW_IDS, or a structure id from the classify module.  Structures
quantified over a candidate element (canonical-hypergroup and friends) sweep
every candidate unless the job pins one.  Models are emitted exactly once, in
canonical table order; with up_to_iso each isomorphism class is emitted once,
represented by its canonical form.

Single-operation sweeps take their engine from `engines.plan_sweep`.  By
default that is the sharded backtracker, whose pruned-node count the summary
reports.  Oracle mode ignores every pruning device and filters the raw space
(pure Python at order <= 2 and for compositions, the vectorized full-space
engine at order 3); it is the certification path for the backtracking
generator.
"""

import json
import time
from dataclasses import dataclass

from . import axioms, classify, engines
from .model import (
    HyperTable,
    TwoOpModel,
    canonical_form,
    canonical_form_two_op,
    singleton_value,
    table_key,
    two_op_key,
)
from .parallel import parallel_map

SINGLE_OP_CAP = 5
TWO_OP_CAP = 4

SINGLE_STRUCTURES = {
    "partial-hypergroupoid": (),  # final label check only
    "hypergroupoid": (("law", "cellwise-nonempty"),),
    "semihypergroup": (("law", "cellwise-nonempty"), ("law", "associative")),
    "quasihypergroup": (("law", "cellwise-nonempty"), ("law", "reproductive")),
    "hypergroup": (("law", "associative"), ("law", "reproductive")),
    "group": (("law", "associative"), ("law", "reproductive")),
    "hv-group": (("law", "reproductive"), ("law", "weakly-associative")),
    "la-hypergroup": (("law", "reproductive"), ("law", "left-inverted-associative")),
    "ra-hypergroup": (("law", "reproductive"), ("law", "right-inverted-associative")),
}

# structures quantified over a candidate element: id -> constraints(candidate)
SINGLE_QUANTIFIED = {
    "qmp-hypergroup": lambda e: (
        ("law", "associative"),
        ("identity-at", e),
        ("polysymmetry-at", e, False),
    ),
    "m-polysymmetrical-hypergroup": lambda e: (
        ("law", "associative"),
        ("law", "commutative"),
        ("identity-at", e),
        ("polysymmetry-at", e, False),
    ),
    "canonical-hypergroup": lambda z: (
        ("law", "associative"),
        ("law", "commutative"),
        ("unique-opposite-at", z),
        ("reversibility-at", z),
    ),
    "quasicanonical-hypergroup": lambda z: (
        ("law", "associative"),
        ("unique-opposite-at", z),
        ("reversibility-at", z),
    ),
    "normal-hypergroup": lambda z: (
        ("law", "associative"),
        ("law", "reproductive"),
        ("scalar-zero-at", z),
        ("unique-opposite-at", z),
    ),
}

TWO_OP_STRUCTURES = frozenset(classify.TWO_OP_LABELS)


@dataclass
class EnumerationJob:
    order: int
    constraints: tuple
    up_to_iso: bool = False
    zero: int | None = None
    one: int | None = None
    oracle: bool = False
    emit: object = None  # optional callable(model)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)


@dataclass
class EnumerationSummary:
    raw_count: int
    canonical_count: int
    pruned_nodes: int
    wall_time: float

    def to_json(self, include_wall_time=True) -> dict:
        out = {
            "raw_count": self.raw_count,
            "canonical_count": self.canonical_count,
            "pruned_nodes": self.pruned_nodes,
        }
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return out


def job_is_two_op(job: EnumerationJob) -> bool:
    return any(c in TWO_OP_STRUCTURES for c in job.constraints)


def _check_job(job: EnumerationJob):
    two_op = job_is_two_op(job)
    cap = TWO_OP_CAP if two_op else SINGLE_OP_CAP
    if not 1 <= job.order <= cap:
        raise ValueError(f"order {job.order} above the cap {cap} for this job")
    for c in job.constraints:
        known = (
            c in axioms.LAW_IDS
            or c in SINGLE_STRUCTURES
            or c in SINGLE_QUANTIFIED
            or c in TWO_OP_STRUCTURES
        )
        if not known:
            raise ValueError(f"unknown constraint id: {c!r}")
    if two_op and any(
        c in SINGLE_STRUCTURES or c in SINGLE_QUANTIFIED for c in job.constraints
    ):
        raise ValueError("cannot mix single-operation and two-operation structures")
    for pin in (job.zero, job.one):
        if pin is not None and not 0 <= pin < job.order:
            raise ValueError("pinned constant out of range")
    if job.zero is not None and job.zero == job.one and job.order > 1:
        raise ValueError("contradictory constant pins: zero = one")


# -- single-operation jobs -------------------------------------------------------


def _single_final_predicate(job: EnumerationJob):
    struct_ids = [
        c for c in job.constraints if c in SINGLE_STRUCTURES or c in SINGLE_QUANTIFIED
    ]
    law_ids = [c for c in job.constraints if c in axioms.LAW_IDS]

    def ok(table: HyperTable) -> bool:
        for law in law_ids:
            if not axioms.check_law(table, law).holds:
                return False
        if struct_ids:
            labels = classify.classify_single(table).labels
            if any(s not in labels for s in struct_ids):
                return False
        return True

    return ok


def _candidates(job: EnumerationJob):
    return range(job.order) if job.zero is None else (job.zero,)


def _single_runs(job: EnumerationJob):
    """(constraint-descriptor sets, singleton_only): the union of the runs'
    model sets covers the job's model set."""
    base = [("law", c) for c in job.constraints if c in axioms.LAW_IDS]
    singleton_only = "group" in job.constraints
    for c in job.constraints:
        if c in SINGLE_STRUCTURES:
            base.extend(SINGLE_STRUCTURES[c])
    quantified = [c for c in job.constraints if c in SINGLE_QUANTIFIED]
    if not quantified:
        return [tuple(base)], singleton_only
    return [
        tuple(base) + SINGLE_QUANTIFIED[quantified[0]](cand) for cand in _candidates(job)
    ], singleton_only


def _cells_key(cells):
    return tuple(engines.cell_key(m) for m in cells)


def _single_sweeps(job: EnumerationJob):
    """(kind, [(engine, run), ...]): each run with the planner's engine."""
    runs, singleton_only = _single_runs(job)
    kind = "composition" if singleton_only else "hyper"
    if job.oracle:
        if kind == "composition" and job.order > 3:
            raise ValueError("oracle mode caps composition jobs at order 3")
        if kind == "hyper" and job.order > 3:
            raise ValueError("oracle mode caps single-operation jobs at order 3")
        # the oracle leans on no pruning device: the raw space where the pure
        # engine reaches, else each run's vectorizable part; final_ok decides
        if engines.plan_sweep(job.order, (), kind, oracle=True) == engines.PURE:
            runs = [()]
        else:
            runs = [tuple(c for c in run if engines.vectorizable(c)) for run in runs]
    plans = [engines.plan_sweep(job.order, run, kind, job.oracle, pruned=True) for run in runs]
    return kind, list(zip(plans, runs))


def _enumerate_single(job: EnumerationJob, workers: int):
    final_ok = _single_final_predicate(job)
    kind, sweeps = _single_sweeps(job)
    pruned_total = 0
    seen = set()
    for engine, run in sweeps:
        fn, tasks = engines.sweep_tasks(engine, job.order, run, kind)
        cells, pruned = engines.merge_sweep(
            engine, job.order, run, parallel_map(fn, tasks, workers)
        )
        pruned_total += pruned
        for cc in cells:
            if cc not in seen and final_ok(HyperTable(job.order, cc, kind)):
                seen.add(cc)

    tables = [HyperTable(job.order, cc, kind) for cc in sorted(seen, key=_cells_key)]
    return tables, pruned_total


# -- two-operation jobs -----------------------------------------------------------


def _mul_candidates(job: EnumerationJob, want_group: bool):
    """(zero, mul) pairs: composition tables with absorbing zero and a
    semigroup (or group) on the nonzero elements."""
    n = job.order
    out = []
    for zero in _candidates(job):
        forced = {}
        for x in range(n):
            forced[x * n + zero] = 1 << zero
            forced[zero * n + x] = 1 << zero
        if job.one is not None and n > 1:
            for x in range(n):
                if x != zero:
                    forced[job.one * n + x] = 1 << x
                    forced[x * n + job.one] = 1 << x
        spec = engines.SearchSpec(
            n,
            kind="composition",
            constraints=(("law", "associative"),),
            forced=tuple(forced.items()),
        )
        variant = (
            "multiplicative-group-on-H*" if want_group
            else "multiplicative-semigroup-on-H*"
        )
        for cells in engines.Backtracker(spec).search():
            mul = HyperTable(n, cells, "composition")
            probe = TwoOpModel(n, mul, mul, zero)  # star checks read only mul
            if axioms.check_ring_axioms(probe, variant).holds:
                out.append((zero, mul))
    return out


def _group_action_links(mul: HyperTable, zero: int, n: int):
    """Left-multiplication relabelings: distributive equality forces the
    additive table to be equivariant under every invertible g."""
    links = []
    for g in range(n):
        if g == zero:
            continue
        perm = tuple(singleton_value(mul.cell(g, x)) for x in range(n))
        if sorted(perm) != list(range(n)):
            continue
        for x in range(n):
            for y in range(n):
                links.append((x * n + y, perm[x] * n + perm[y], perm))
    return links


def hyperring_mul_premises(add: HyperTable, zero: int) -> tuple:
    """Engine descriptors of the multiplicative-hyperring axioms on a
    multiplication over the additive group (add, zero), one per axis:
    associativity, inclusion distributivity, the sign rule, non-degeneracy."""
    return (
        ("law", "associative"),
        ("distributive-inclusion-over", add),
        ("sign-rule-over", add, zero),
        ("non-degenerate",),
    )


def _abelian_group_tables(job: EnumerationJob):
    """(zero, add) for every labeled abelian group table of the job's order."""
    n = job.order
    out = []
    spec = engines.SearchSpec(
        n,
        kind="composition",
        constraints=(
            ("law", "associative"),
            ("law", "reproductive"),
            ("law", "commutative"),
        ),
    )
    for cells in engines.Backtracker(spec).search():
        add = HyperTable(n, cells, "composition")
        scalars = axioms.find_identities(add).scalar
        if not scalars:
            continue
        zero = scalars.bit_length() - 1
        if job.zero is not None and zero != job.zero:
            continue
        out.append((zero, add))
    return out


_GROUP_FAMILY = {"hyperfield", "hyperfield-def15"}
_SEMIGROUP_FAMILY = {
    "krasner-hyperring",
    "unitary-hyperring",
    "m-polysymmetrical-hyperring",
}
_ADDGROUP_FAMILY = {"multiplicative-hyperring-def6", "multiplicative-hyperring-def7"}


def _enumerate_two_op(job: EnumerationJob, workers: int):
    structures = [c for c in job.constraints if c in TWO_OP_STRUCTURES]
    extra_laws = [c for c in job.constraints if c in axioms.LAW_IDS]
    n = job.order

    def final_ok(model: TwoOpModel) -> bool:
        for law in extra_laws:
            if not axioms.check_law(model.add, law).holds:
                return False
        labels = classify.classify_two_op(model).labels
        return all(s in labels for s in structures)

    seen = {}
    pruned_total = 0

    if job.oracle:
        if n > 2:
            raise ValueError("two-operation oracle mode is limited to order 2")
        tables = list(engines.pure_sweep(n, "hyper", ()))
        for zero in _candidates(job):
            for add in tables:
                # every two-operation structure requires a commutative
                # associative addition; screening here keeps the inner loop
                # honest (same predicates) but 20x cheaper
                if structures and not (
                    axioms.check_law(add, "associative").holds
                    and axioms.check_law(add, "commutative").holds
                ):
                    continue
                for mul in tables:
                    model = _with_detected_one(n, add, mul, zero, job)
                    if model is not None and final_ok(model):
                        seen[two_op_key(model)] = model
        return [seen[k] for k in sorted(seen)], 0

    want_group = any(s in _GROUP_FAMILY for s in structures)
    if want_group or any(s in _SEMIGROUP_FAMILY for s in structures):
        for zero, mul in _mul_candidates(job, want_group):
            links = _group_action_links(mul, zero, n) if want_group else ()
            if "m-polysymmetrical-hyperring" in structures:
                add_constraints = (
                    ("law", "associative"),
                    ("law", "commutative"),
                    ("identity-at", zero),
                    ("polysymmetry-at", zero, False),
                )
            else:
                add_constraints = (
                    ("law", "associative"),
                    ("law", "commutative"),
                    ("unique-opposite-at", zero),
                )
            spec = engines.SearchSpec(
                n,
                constraints=add_constraints,
                link_generators=tuple(links),
            )
            bt = engines.Backtracker(spec)
            for add_cells in bt.search():
                model = _with_detected_one(n, HyperTable(n, add_cells), mul, zero, job)
                if model is not None and final_ok(model):
                    seen[two_op_key(model)] = model
            pruned_total += bt.pruned
    elif any(s in _ADDGROUP_FAMILY for s in structures):
        allow_empty = "multiplicative-hyperring-def6" not in structures
        for zero, add in _abelian_group_tables(job):
            spec = engines.SearchSpec(
                n, allow_empty=allow_empty, constraints=hyperring_mul_premises(add, zero)
            )
            bt = engines.Backtracker(spec)
            for mul_cells in bt.search():
                model = _with_detected_one(n, add, HyperTable(n, mul_cells), zero, job)
                if model is not None and final_ok(model):
                    seen[two_op_key(model)] = model
            pruned_total += bt.pruned
    else:
        raise ValueError("two-operation jobs need at least one structure id")

    return [seen[k] for k in sorted(seen)], pruned_total


def _with_detected_one(n, add, mul, zero, job):
    """Assemble the model with `one` = the detected multiplicative identity.

    The identity is derived data, so two-operation models are counted by
    (add, mul, zero) alone; a pinned `one` filters to models whose detected
    identity matches it.
    """
    one = axioms.multiplicative_identity(TwoOpModel(n, add, mul, zero))
    if job.one is not None and one != job.one:
        return None
    if one is not None and one == zero and n > 1:
        one = None
    return TwoOpModel(n, add, mul, zero, one)


# -- public API -------------------------------------------------------------------


def enumerate_models(job: EnumerationJob, workers: int = 1) -> EnumerationSummary:
    """Run the job and return exact counts.  Every model is collected and
    sorted first; only then is each one passed to job.emit."""
    _check_job(job)
    start = time.perf_counter()
    if job_is_two_op(job):
        models, pruned = _enumerate_two_op(job, workers)
        canonical = {}
        for m in models:
            cm = canonical_form_two_op(m)
            canonical.setdefault(two_op_key(cm), cm)
        reps = [canonical[k] for k in sorted(canonical)]
    else:
        models, pruned = _enumerate_single(job, workers)
        fixed = [p for p in (job.zero, job.one) if p is not None]
        canonical = {}
        for m in models:
            cm = canonical_form(m, fixed)
            canonical.setdefault(table_key(cm), cm)
        reps = [canonical[k] for k in sorted(canonical)]

    emitted = reps if job.up_to_iso else models
    if job.emit is not None:
        for m in emitted:
            job.emit(m)
    return EnumerationSummary(
        raw_count=len(models),
        canonical_count=len(canonical),
        pruned_nodes=pruned,
        wall_time=time.perf_counter() - start,
    )


# -- golden catalog ----------------------------------------------------------------


def run_catalog_job(entry: dict, workers: int = 1):
    collected = []
    job = EnumerationJob(
        order=entry["order"],
        constraints=tuple(entry["constraints"]),
        up_to_iso=False,
        zero=entry.get("zero"),
        one=entry.get("one"),
        oracle=entry["order"] <= 2,
        emit=collected.append,
    )
    summary = enumerate_models(job, workers)
    return summary, collected


def golden_check(catalog_path, workers: int = 1) -> dict:
    """Re-run every catalog job (oracle mode at order <= 2, pruned above) and
    compare both counts bit-exactly."""
    try:
        with open(catalog_path, encoding="utf-8") as fh:
            catalog = json.load(fh)
        entries = catalog["jobs"]
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"catalog missing or corrupt: {exc}") from exc

    results = []
    for entry in entries:
        summary, _models = run_catalog_job(entry, workers)
        entry_result = {
            "name": entry["name"],
            "expected_raw": entry["expect_raw"],
            "actual_raw": summary.raw_count,
            "expected_canonical": entry["expect_canonical"],
            "actual_canonical": summary.canonical_count,
        }
        entry_result["ok"] = (
            entry_result["actual_raw"] == entry_result["expected_raw"]
            and entry_result["actual_canonical"] == entry_result["expected_canonical"]
        )
        results.append(entry_result)
    return {"pass": all(r["ok"] for r in results), "entries": results}
