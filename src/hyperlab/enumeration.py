"""Exhaustive enumeration of models satisfying a constraint set.

A job names its constraints with public ids: any law id from
axioms.LAW_IDS, or a structure label of `classify.STRUCTURES`.  The search
comes from that axiom table: a single-operation job sweeps the conjunction of
its laws and its structures' descriptors, at every candidate element or the
pinned zero when a structure is quantified over one: `element_sweep`, shared
with the verifier, searches element 0 and relabels by (0 k) for the others.
A two-operation job sweeps the runs of `two_op_plan`: each fixes one
operation and the zero and searches the other, the addition at the zero
under each multiplication composition when the axioms make the
multiplication a semigroup or group on H*, otherwise the multiplication over
each abelian additive group.  One model sweep of a plan, `two_op_sweep`,
keeps the models on which the axioms a run's descriptors leave open hold;
two-operation jobs, the premise sweeps of T6 and T28, T28's Def-14 set and
T29's scalar family take their models from it, and T6's and T28's drop
searches walk the same plan's runs.  Models are emitted exactly once, in
canonical table order; with up_to_iso each isomorphism class is emitted
once, represented by its canonical form.  Every job finds its classes in one
walk over its models in key order (`model.orbit_representatives`; a
two-operation job walks the models of each (zero, one) on their own), which
certifies that the models are closed under the relabelings fixing the pins,
and each class it keeps is revalidated as its own canonical form
(`canonical_form` or `canonical_form_two_op`, once per class).  The same walk
certifies `element_sweep`'s relabeling.  A failed certificate raises
RuntimeError, which the CLI reports as an internal error.

Every enumeration job and every verifier premise sweep share one sweep,
`sweep`, which plans each descriptor run with `engines.plan_sweep`
and fans its tasks out over the command's one worker pool
(`parallel.pool`, opened by `enumerate_models` and `golden_check`; a golden
check's jobs share it).  By default the planned engine is the sharded
backtracker, whose pruned-node count the summary reports (for a
two-operation job, that of its plan runs' sweeps).  A
two-operation search states its pins and links as descriptors too: the
multiplication's pinned rows and columns as `forced` cells, the group
action on the addition as `equivariant-under` relabelings.  Oracle mode
ignores every pruning device and filters the raw space (pure Python at
order <= 2 and for compositions, the vectorized full-space engine at order
3, capped there; a two-operation job pairs every commutative associative
addition with every multiplication, at order 2 only).  The oracles run
only under `--oracle` and in the tests that certify the generator; every
other caller, golden-check included, runs the generator.  A two-operation
job keeps a model only once `classify.classify_two_op` gives it the job's
labels.  `search_first`
is the one first-hit search behind every drop and independence search; it
relabels as `element_sweep` does, searching every run at the first
candidate and, at the others, only the runs with a hit there.

Every label caps the order of its jobs (`classify.max_order`); a job with
laws only stops at order 3 if associativity prunes it and at order 2
otherwise, and one with no constraint stops at order 2.
"""

import json
import time
from dataclasses import asdict, dataclass
from functools import partial
from itertools import chain, product
from operator import is_not

from . import axioms, classify, engines
from .model import (
    HyperTable,
    TwoOpModel,
    apply_permutation,
    canonical_form,
    canonical_form_two_op,
    orbit_representatives,
    singleton_value,
    table_key,
    two_op_key,
)
from .parallel import first_hit, parallel_map, pool


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
        out = asdict(self)
        if not include_wall_time:
            del out["wall_time"]
        return out


def job_is_two_op(job: EnumerationJob) -> bool:
    return any(c in classify.TWO_OP_LABELS for c in job.constraints)


def _check_job(job: EnumerationJob):
    two_op = job_is_two_op(job)
    for c in job.constraints:
        if c not in axioms.LAW_IDS and c not in classify.STRUCTURES:
            raise ValueError(f"unknown constraint id: {c!r}")
        if two_op and c in classify.SINGLE_LABELS:
            raise ValueError("cannot mix single-operation and two-operation structures")
    labels = [c for c in job.constraints if c in classify.STRUCTURES]
    if labels:
        cap, owner = min((classify.max_order(c), c) for c in labels)
    elif job.constraints:
        # at order 3, associative took 11.6 s and associative,reproductive 8.6 s
        # on one CPU; reproductive, weakly-associative or commutative alone ran
        # past 20 s, and so did associative at order 4
        cap, owner = 3 if "associative" in job.constraints else 2, "a law-only job"
    else:  # order 3 alone has 8^9 = 134,217,728 tables
        cap, owner = 2, "an unconstrained job"
    if job.order < 1:
        raise ValueError(f"order must be at least 1, got {job.order}")
    if job.order > cap:
        raise ValueError(f"order {job.order} above the cap {cap} for {owner}")
    if job.oracle and job.order > (2 if two_op else engines.ORACLE_CAP):
        raise ValueError(
            f"oracle mode caps two-operation jobs at order 2, the others at {engines.ORACLE_CAP}"
        )
    # canonical forms fix a pinned element, so a pin the search ignores would
    # only split the job's isomorphism classes
    if job.one is not None and not two_op:
        raise ValueError("a `one` pin needs a two-operation structure")
    if job.zero is not None and _candidates(job) == (None,):
        raise ValueError(
            "a `zero` pin needs a two-operation structure or one quantified over an element"
        )
    for pin in (job.zero, job.one):
        if pin is not None and not 0 <= pin < job.order:
            raise ValueError("pinned constant out of range")
    if job.zero is not None and job.zero == job.one and job.order > 1:
        raise ValueError("contradictory constant pins: zero = one")


def _candidates(job: EnumerationJob):
    """The candidate elements of the job's quantified structures, or (None,)."""
    if not any(c in classify.STRUCTURES and classify.candidate_rule(c) for c in job.constraints):
        return (None,)
    return range(job.order) if job.zero is None else (job.zero,)


# -- single-operation jobs -------------------------------------------------------

def _single_runs(job: EnumerationJob, cand):
    """Descriptor conjunctions from the axiom table whose model sets
    together make up the job's at the candidate element, which every
    quantified structure shares (None when none is quantified)."""
    laws = tuple(("law", c) for c in job.constraints if c in axioms.LAW_IDS)
    structures = [c for c in job.constraints if c in classify.STRUCTURES]
    return [
        laws + sum(parts, ())
        for parts in product(*(classify.runs_at(s, cand) for s in structures))
    ]


# -- shared sweeps ------------------------------------------------------------------


def sweep(order, runs, oracle=False, pruned=False):
    """(tables satisfying some descriptor run, in canonical order; pruned
    nodes).  Each run goes to its `engines.plan_sweep` engine, whose tasks
    fan out over the command's worker pool; a run's tables are of its
    `engines.table_kind`."""
    found, pruned_nodes = [], 0
    for run in runs:
        engine = engines.plan_sweep(order, run, oracle, pruned=pruned)
        fn, tasks = engines.sweep_tasks(engine, order, run)
        cells, nodes = engines.merge_sweep(engine, order, run, parallel_map(fn, tasks))
        found.append((cells, engines.table_kind(run)))
        pruned_nodes += nodes
    if len(found) == 1:  # every engine emits in canonical order
        cells, kind = found[0]
        return [HyperTable(order, cc, kind) for cc in cells], pruned_nodes
    union = {cc: kind for cells, kind in found for cc in cells}
    tables = (HyperTable(order, cc, kind) for cc, kind in union.items())
    return sorted(tables, key=table_key), pruned_nodes


def element_sweep(order, runs_at, candidates, oracle=False, pruned=False, walks=None):
    """((table, e) pairs in (table_key, e) order, pruned nodes) for the
    descriptor runs `runs_at(e)` at each candidate element e (None: no
    element).  The descriptors name an element only through E, so the
    generator searches element 0 and maps its set to each candidate k by the
    transposition (0 k), and certifies each candidate's set, searched or
    mapped, with the orbit walk under the permutations fixing that candidate
    (`model.orbit_representatives`): a run at 0 that names another element,
    or a wrong map, leaves a set that is not closed and raises RuntimeError.
    Every witness-map result (`engines.merge_sweep`) comes through here.  The
    oracle searches every candidate on its own, with no relabeling to
    certify.

    With one candidate k, its set is walked in key order, so the walk keeps
    the least table of each orbit under the permutations fixing k; a dict
    passed as `walks` receives walks[(k,)] = (tables, kept tables)."""
    relabels = not oracle and None not in candidates
    searched = (0,) if relabels else candidates
    swept = {e: sweep(order, runs_at(e), oracle, pruned) for e in searched}
    pairs = []
    for k in candidates:
        if k in swept:
            tables = swept[k][0]
        else:
            tau = [k if x == 0 else 0 if x == k else x for x in range(order)]
            tables = [apply_permutation(t, tau) for t in swept[0][0]]
            if len(candidates) == 1:
                tables.sort(key=table_key)
        if relabels:  # the orbit certificate of the relabeling
            kept = orbit_representatives(tables, (k,))
            if walks is not None and len(candidates) == 1:
                walks[(k,)] = tables, kept
        pairs += [(t, k) for t in tables]
    if len(candidates) > 1:  # one sweep is sorted already
        pairs.sort(key=lambda pe: (table_key(pe[0]), pe[1]))
    return pairs, sum(nodes for _, nodes in swept.values())


def count_sweep(runs, conclusion, biconditional):
    """Order-3 count mode: (tables satisfying some run, the first of them
    where the conclusion fails, or None); see `engines.v3_count_chunk`."""
    fn = partial(
        engines.v3_count_chunk, runs=runs, conclusion=conclusion, biconditional=biconditional
    )
    results = parallel_map(fn, engines.vector_sweep3_tasks())
    first = next((cells for _, cells in results if cells is not None), None)
    return sum(count for count, _ in results), None if first is None else HyperTable(3, first)


def search_first(order, searches_at, candidates):
    """The canonical first (table, e, i) where the table satisfies the
    descriptors of searches_at(e)[i] = (constraints, accept) at a candidate
    element e (None: no element) and `accept(table)` holds (None accepts
    every table), ties to the earlier candidate, then the lower i; None if
    no search has a hit.  Each search runs on the backtracker's shards in
    canonical order and stops at its first shard with a hit.  The searches
    name an element only through E, so those at a candidate k are the images
    under the transposition (c k) of those at the first candidate c: every
    search runs at c, and at the other candidates only those with a hit at c
    run, as a search with none there has none at k either."""
    hits, live = [], None
    for pos, e in enumerate(candidates):
        for i, (constraints, accept) in enumerate(searches_at(e)):
            if live is None or i in live:
                _, tasks = engines.sweep_tasks(engines.BACKTRACK, order, constraints)
                cells = first_hit(partial(engines.first_hit_task, accept=accept), tasks)
                if cells is not None:
                    kind = engines.table_kind(constraints)
                    hits.append((HyperTable(order, cells, kind), pos, i))
        live = {i for _, _, i in hits}
        if not live:
            return None
    table, pos, i = min(hits, key=lambda hit: (table_key(hit[0]), hit[1], hit[2]))
    return table, candidates[pos], i


# -- two-operation jobs -----------------------------------------------------------

# two-operation axiom ids that read only the multiplication
_MUL_ONLY = {"multiplicative-group-on-H*", "multiplicative-semigroup-on-H*", "absorbing-zero"}
_ON_H_STAR = {"multiplicative-group-on-H*", "multiplicative-semigroup-on-H*"}

# two-operation axiom ids as engine descriptors on the multiplication over
# an additive group (add, zero)
_MUL_DESCRIPTORS = {
    "mul-nondegenerate-associative": lambda add, zero: (
        ("law", "associative"),
        ("not", ("law", "degenerate")),
    ),
    "distributive-inclusion": lambda add, zero: (("distributive-inclusion-over", add),),
    "sign-rule": lambda add, zero: (("sign-rule-over", add, zero),),
    "mul-cellwise-nonempty": lambda add, zero: (("law", "cellwise-nonempty"),),
}


def mul_compositions(n: int, zero: int, one, ring_ids):
    """Associative composition tables for the multiplication that pass the
    ids in `ring_ids` that read only it.  An absorbing zero pins its row and
    column, and so does a pinned `one` when a semigroup or group on H* is
    asked for."""
    forced = {}
    if "absorbing-zero" in ring_ids:
        for x in range(n):
            forced[x * n + zero] = forced[zero * n + x] = 1 << zero
    if one is not None and n > 1 and _ON_H_STAR.intersection(ring_ids):
        for x in range(n):
            if x != zero:
                forced[one * n + x] = forced[x * n + one] = 1 << x
    run = (("law", "associative"), ("singleton-cells",))
    run += tuple(("forced", *pin) for pin in forced.items())
    for mul in sweep(n, [run])[0]:
        probe = TwoOpModel(n, mul, mul, zero)  # these checks read only mul
        if all(axioms.check_ring_axioms(probe, r).holds for r in ring_ids if r in _MUL_ONLY):
            yield mul


def _group_action_links(mul: HyperTable, zero: int, n: int) -> tuple:
    """Left-multiplication relabelings: distributive equality makes the
    additive table equivariant under every invertible g."""
    perms = [tuple(singleton_value(mul.cell(g, x)) for x in range(n)) for g in range(n)]
    invertible = [p for g, p in enumerate(perms) if g != zero and sorted(p) == list(range(n))]
    return tuple(("equivariant-under", p) for p in invertible)


@dataclass(frozen=True)
class TwoOpRun:
    """One run of a two-operation search plan: the descriptors of the
    searched operation, with the other one (`fixed`) and the zero fixed, and
    the axioms the descriptors leave `open` to a check on each model."""

    descriptors: tuple
    fixed: HyperTable
    zero: int
    mul_fixed: bool
    open: tuple = ()

    def model(self, table: HyperTable, one=None):
        """The model with `table` as the searched operation; see `with_detected_one`."""
        add, mul = (table, self.fixed) if self.mul_fixed else (self.fixed, table)
        return with_detected_one(table.order, add, mul, self.zero, one)

    def admits(self, model: TwoOpModel) -> bool:
        return all(classify.axiom_holds(model, a, self.zero) for a in self.open)

    def descriptors_of(self, axiom):
        """The axiom as descriptors of the searched operation, or None when
        it reads the fixed one."""
        if self.mul_fixed:
            return None if isinstance(axiom, str) else (engines.at(axiom, self.zero),)
        return _MUL_DESCRIPTORS[axiom](self.fixed, self.zero) if axiom in _MUL_DESCRIPTORS else None


def two_op_plan(n, label_axioms, zero=None, one=None, dropped=None):
    """The runs of a two-operation search in plan order, at the pinned zero
    or every one.  The full axiom list picks the strategy: when it makes the
    multiplication a semigroup or group on H*, each run fixes a
    `mul_compositions` table and searches the addition at the zero (linked by
    the group action under the group and distributive equality), leaving the
    axioms that read both operations open; otherwise each run fixes an
    abelian additive group (zero = its identity) and searches the
    multiplication.  `dropped`, an axiom or a descriptor, is left out of the
    runs."""
    kept = [a for a in label_axioms if a != dropped]
    ring = [a for a in kept if isinstance(a, str)]

    def run(fixed, z, mul_fixed, links=()):
        searched = TwoOpRun((), fixed, z, mul_fixed).descriptors_of
        descriptors = tuple(d for a in kept for d in searched(a) or () if d != dropped)
        open_axioms = tuple(a for a in ring if a not in _MUL_ONLY) if mul_fixed else ()
        return TwoOpRun(descriptors + links, fixed, z, mul_fixed, open_axioms)

    if not _ON_H_STAR.intersection(label_axioms):
        laws = (("law", "associative"), ("law", "reproductive"), ("law", "commutative"))
        for add in sweep(n, [laws + (("singleton-cells",),)])[0]:
            z = axioms.find_identities(add).scalar.bit_length() - 1
            if z >= 0 and zero in (None, z):
                yield run(add, z, False)
        return
    group = "multiplicative-group-on-H*" in ring and "distributive-equal" in ring
    for z in range(n) if zero is None else (zero,):
        for mul in mul_compositions(n, z, one, ring):
            yield run(mul, z, True, _group_action_links(mul, z, n) if group else ())


def two_op_sweep(n, runs, one=None, oracle=False):
    """(models of the plan runs in `two_op_key` order, pruned nodes): each
    run's tables from `sweep` on the pruned generator, or its oracle, as
    models with the detected identity (the pinned `one`, if given) on which
    the run's open axioms hold."""
    seen, pruned_total = {}, 0
    for run in runs:
        tables, pruned = sweep(n, [run.descriptors], oracle, pruned=True)
        pruned_total += pruned
        for table in tables:
            model = run.model(table, one)
            if model is not None and run.admits(model):
                seen[two_op_key(model)] = model
    return [seen[k] for k in sorted(seen)], pruned_total


def _enumerate_two_op(job: EnumerationJob):
    structures = [c for c in job.constraints if c in classify.TWO_OP_LABELS]
    extra_laws = [c for c in job.constraints if c in axioms.LAW_IDS]
    # the search comes from the structures' axioms in the table
    table_axioms = list(dict.fromkeys(a for s in structures for a in classify.axioms_of(s)))
    n = job.order
    if job.oracle:
        # every multiplication over every commutative associative addition
        # (which every two-operation structure requires; screening for it
        # leaves 20x fewer pairs to classify) at each candidate zero
        adds = sweep(n, [(("law", "associative"), ("law", "commutative"))], oracle=True)[0]
        runs = [TwoOpRun((), add, zero, False) for zero in _candidates(job) for add in adds]
    else:
        runs = two_op_plan(n, table_axioms, job.zero, job.one)
    models, pruned = two_op_sweep(n, runs, job.one, job.oracle)
    kept = [
        m for m in models
        if all(axioms.check_law(m.add, law).holds for law in extra_laws)
        and set(structures) <= classify.classify_two_op(m).labels
    ]
    return kept, pruned


def with_detected_one(n, add, mul, zero, pinned_one=None):
    """Assemble the model with `one` = the detected multiplicative identity.

    The identity is derived data, so two-operation models are counted by
    (add, mul, zero) alone; a pinned `one` filters to models whose detected
    identity matches it (None is returned for the others).
    """
    one = axioms.multiplicative_identity(TwoOpModel(n, add, mul, zero))
    if pinned_one is not None and one != pinned_one:
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
    with pool(workers):
        if job_is_two_op(job):
            models, pruned = _enumerate_two_op(job)
            groups = {}  # a relabeling fixing a model's zero and one keeps them
            for m in models:
                groups.setdefault((m.zero, m.one), []).append(m)
            reps = sorted(chain(*map(orbit_representatives, groups.values())), key=two_op_key)
            canon = canonical_form_two_op
        else:
            runs_at, cands, walks = partial(_single_runs, job), _candidates(job), {}
            pairs, pruned = element_sweep(job.order, runs_at, cands, job.oracle, True, walks)
            models = list({t.cells: t for t, _ in pairs}.values())  # each table once
            fixed = [p for p in (job.zero, job.one) if p is not None]
            walked, reps = walks.get(tuple(fixed), ((), None))
            # the sweep's walk holds for exactly the models it walked
            if reps is None or len(walked) != len(models) or any(map(is_not, walked, models)):
                reps = orbit_representatives(models, fixed)
            canon = partial(canonical_form, fixed=fixed)
        for r in reps:
            if canon(r) is not r:
                raise RuntimeError(f"orbit walk kept {r}, which is not its canonical form")

    emitted = reps if job.up_to_iso else models
    if job.emit is not None:
        for m in emitted:
            job.emit(m)
    return EnumerationSummary(
        raw_count=len(models),
        canonical_count=len(reps),
        pruned_nodes=pruned,
        wall_time=time.perf_counter() - start,
    )


# -- golden catalog ----------------------------------------------------------------


def golden_check(catalog_path, workers: int = 1) -> dict:
    """Re-run every catalog job exactly as `enumerate` runs it, on the
    generator at every order, and compare both counts bit-exactly.  The
    oracles certify that generator in tests, not here."""
    try:
        with open(catalog_path, encoding="utf-8") as fh:
            entries = json.load(fh)["jobs"]
        jobs = [
            (
                entry["name"],
                EnumerationJob(
                    order=entry["order"],
                    constraints=tuple(entry["constraints"]),
                    zero=entry.get("zero"),
                    one=entry.get("one"),
                ),
                entry["expect_raw"],
                entry["expect_canonical"],
            )
            for entry in entries
        ]
        if not jobs:
            raise ValueError("no jobs")
        for _, job, _, _ in jobs:
            _check_job(job)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"catalog missing or corrupt: {exc}") from exc

    results = []
    with pool(workers):  # one pool for every job
        for name, job, expected_raw, expected_canonical in jobs:
            summary = enumerate_models(job, workers)
            results.append({
                "name": name,
                "expected_raw": expected_raw,
                "actual_raw": summary.raw_count,
                "expected_canonical": expected_canonical,
                "actual_canonical": summary.canonical_count,
                "ok": (summary.raw_count, summary.canonical_count)
                == (expected_raw, expected_canonical),
            })
    return {"pass": all(r["ok"] for r in results), "entries": results}
