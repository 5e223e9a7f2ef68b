"""Verifiers for the catalogued claims: sweep the finite model space at a
given order, confirm the conclusion on every model satisfying the premises,
and search for independence witnesses when premises are dropped.

Verifier ids:

    T2   over compositions: associative => (reproductive <=> identity+inverses)
    T3   associative + reproductive => no empty cell
    T6   multiplicative-hyperring premises => no empty product
    T7   weakly associative => no empty cell
    T9   (left- or right-inverted associative) + reproductive => no empty cell
    T11  reproductive <=> every induced division is non-empty
    T13  qMp premises => reproductive
    T24  qMp premises => reversibility
    P14-P23  property suite over every qMp model
    T25  canonical additive axioms => hypergroup
    T26  canonical additive axioms => x + 0 = {x}
    T27  under associativity+commutativity+unique opposites:
         reversibility <=> elementwise opposite additivity
    T28  reversibility-free hyperfield axioms => reversibility, so they give
         exactly the classical hyperfield models
    T29  hypermodule premises over the bundled scalar family => the module
         addition is canonical

Every id but T29 is a declarative `Claim` run by `_run_claim`.  The premise
of T6 and T28 is a two-operation label: its models come from one sweep of the
label's search plan (`enumeration.two_op_sweep` over `two_op_plan`), which
two-operation enumeration, T28's Def-14 set and T29's scalar family share,
and its drop searches walk the plan's runs with one axiom or descriptor left
out.  T29's module additions are the premise models of the claim `_NORMAL`;
only its action search over a bundled scalar family is bespoke.  No verifier
runs an engine itself: premise sweeps go through `enumeration.element_sweep`
or `count_sweep` (each engine from `engines.plan_sweep`), and every drop and
independence search is one first-hit search, `enumeration.search_first`, at
orders <= DROP_CAP (above it each drop is reported as `not_searched`).  Like
`element_sweep`, it searches an element-quantified run at element 0 first,
and at the other elements only if it has a hit there.

Sweeps quantified over a distinguished element (identity or zero) count
(table, element) pairs as premise models, all from enumeration's one
element-quantified sweep, `element_sweep`.  Every counterexample and independence witness is
revalidated through the axiom predicates before a report is emitted (a
disagreement raises RuntimeError), and reports are identical for any worker
count.  `verify` and `search_independence` open the command's worker pool
(`parallel.pool`) once, and every sweep and search of the claim shares it.
"""

import time
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import product


from . import axioms, classify, engines
from .engines import E, at
from .enumeration import count_sweep, element_sweep, search_first, two_op_plan, two_op_sweep
from .model import HyperTable, HypermoduleModel, members_of
from .modelio import serialize_model
from .parallel import parallel_map, pool
from .samples import krasner_hyperfield, sign_hyperfield

DROP_CAP = 3
_DEF7 = "multiplicative-hyperring-def7"
_DEF15 = "hyperfield-def15"
NOT_SEARCHED = f"drop searches run at orders <= {DROP_CAP}"

# a claim on a label's premises is capped where the label is
_ORDER_CAPS = {
    "T2": 3,
    "T3": 3,
    "T6": classify.max_order(_DEF7),
    "T7": 3,
    "T9": 3,
    "T11": 3,
    **dict.fromkeys(("T13", "T24", "P14-P23"), classify.max_order("qmp-hypergroup")),
    **dict.fromkeys(("T25", "T26", "T27"), classify.max_order("canonical-hypergroup")),
    "T28": classify.max_order(_DEF15),
    "T29": 3,
}
THEOREM_IDS = tuple(_ORDER_CAPS)


@dataclass
class VerificationReport:
    theorem: str
    order: int
    space_size: int
    premise_models: int
    conclusion_holds: bool
    counterexample: dict | None = None
    independence_witnesses: list = field(default_factory=list)
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.conclusion_holds == (self.counterexample is not None):
            raise ValueError("counterexample must be present exactly on failure")
        if self.premise_models > self.space_size:
            raise ValueError("premise models cannot exceed the space size")

    def to_json(self, include_wall_time=True) -> dict:
        out = asdict(self)
        if not include_wall_time:
            del out["wall_time"]
        return out


# -- premise and conclusion vocabulary -------------------------------------------

# ids with an engine descriptor; E stands for the quantified element
_DESCRIPTOR_IDS = {law: ("law", law) for law in axioms.LAW_IDS} | {
    "identity": ("identity-at", E),
    "polysymmetry": ("polysymmetry-at", E, False),
    "polysymmetry-weak": ("polysymmetry-at", E, True),
    "unique-opposite": ("unique-opposite-at", E),
    "reversibility-canonical": ("reversibility-at", E),
    "opposite-additivity": ("opposite-additivity-at", E),
    "scalar-zero": ("scalar-zero-at", E),
    "divisions-nonempty": ("divisions-nonempty",),
    "reversibility-poly": ("reversibility-poly-at", E, False),
    "reversibility-poly-weak": ("reversibility-poly-at", E, True),
    "singleton-cells": ("singleton-cells",),
}
_ID_OF = {c: ident for ident, c in _DESCRIPTOR_IDS.items()}

# ids without a descriptor: id -> predicate(table, element)
_PREDICATE_IDS = {
    "qmp-properties": lambda t, e: all(ok for _, ok in qmp_property_checks(t, e)),
    "identity-and-inverses": lambda t, e: _identity_and_inverses(t),
}
_CONCLUSION_ONLY_IDS = {"reversibility-poly", "reversibility-poly-weak", *_PREDICATE_IDS}

_ELEMENT_FREE_IDS = {"divisions-nonempty", "identity-and-inverses", "singleton-cells"}


def _id_known(ident: str) -> bool:
    return ident in _DESCRIPTOR_IDS or ident in _PREDICATE_IDS


def _element_dependent(ident) -> bool:
    return ident not in axioms.LAW_IDS and ident not in _ELEMENT_FREE_IDS


def _descriptors_at(ids, cand):
    for ident in ids:
        if ident not in _DESCRIPTOR_IDS:
            raise ValueError(f"unknown premise id: {ident!r}")
    return tuple(at(_DESCRIPTOR_IDS[ident], cand) for ident in ids)


def _ids_of(label):
    """The premise ids of a single-operation label of the axiom table."""
    return tuple(_ID_OF[c] for c in classify.axioms_of(label))


def _id_holds(model, ident, cand) -> bool:
    """Whether an id holds on a table or two-operation model at the
    candidate; an id without a predicate is an axiom of the table
    (`classify.axiom_holds`), and a two-operation label all of its axioms."""
    if ident in _PREDICATE_IDS:
        return _PREDICATE_IDS[ident](model, cand)
    ids = classify.axioms_of(ident) if ident in classify.TWO_OP_LABELS else (ident,)
    return all(classify.axiom_holds(model, _DESCRIPTOR_IDS.get(i, i), cand) for i in ids)


def _witness(model, ident, cand):
    """JSON witness of a conclusion id that fails on (model, cand)."""
    if ident == "qmp-properties":
        _revalidate(not _id_holds(model, ident, cand), "a qMp property fails")
        return {"check": next(cid for cid, ok in qmp_property_checks(model, cand) if not ok)}
    res = classify.axiom_result(model, _DESCRIPTOR_IDS.get(ident, ident), cand)
    _revalidate(not res.holds, f"{ident} fails")
    return res.witness.to_json()


def _revalidate(ok, what):
    """Every emitted counterexample and witness is checked here: the axiom
    predicates must confirm what the engine reported."""
    if not ok:
        raise RuntimeError(f"revalidation failed: {what}")


# -- declarative claims and their runner ---------------------------------------------


@dataclass(frozen=True)
class Claim:
    """Premises imply a conclusion; the declarative input of `_run_claim`.

    premises       premise runs: a disjunction of conjunctions of ids; a run
                   with "singleton-cells" sweeps compositions; or one run of
                   a two-operation label, whose premise models are the
                   label's models on its plan (`enumeration.two_op_plan`),
                   at zero 0 and one 1 when it has a multiplicative group on H*
    conclusion     ids that must all hold, or the two sides of a biconditional;
                   after a two-operation premise, one axiom of the table
    biconditional  for a biconditional, (side_a, side_b) -> witness JSON
    element        None, or the report key ("element", "zero") of the
                   quantified element; premise models are then (table, e)
                   pairs for every candidate e
    drops          droppable premises: ids, or (name, ids) for a group; a
                   drop witness is the canonical first (model, element) pair;
                   a two-operation premise drops one axiom or descriptor of
                   its plan runs, and the first run with a hit wins
    pruned         sweep on the backtracker even where vector count fits;
                   T3 sets it so that criterion 2 certifies its order-3
                   backtracker sweep against the vector count (engines for
                   speed are the planner's choice alone)
    extras         hook(Swept) -> the report's extras

    Count mode is derived in `sweep_engine`: without a quantified element
    and with a descriptor for every conclusion id, a claim's sweep needs
    only the premise count and the first failure.
    """

    premises: tuple
    conclusion: tuple
    biconditional: object = None
    element: str | None = None
    drops: tuple = ()
    pruned: bool = False
    extras: object = None


@dataclass
class Swept:
    """An extras hook's input; `models` is None after a count-mode sweep, and
    `runs` holds the plan runs of a two-operation premise."""

    claim: Claim
    order: int
    oracle: bool
    models: list | None
    first: tuple | None
    runs: list | None = None


def sweep_engine(claim: Claim, order: int, oracle: bool = False) -> str:
    """The engine `engines.plan_sweep` picks for a single-operation claim's
    premise sweep."""
    ids = [i for run in claim.premises for i in run]
    counts = claim.element is None and all(i in _DESCRIPTOR_IDS for i in claim.conclusion)
    if counts:  # the count kernel evaluates the conclusion too
        ids += claim.conclusion
    descriptors = _descriptors_at(ids, 0)
    return engines.plan_sweep(order, descriptors, oracle, counts=counts, pruned=claim.pruned)


def _run_claim(theorem, order, drop_premises, oracle):
    claim = CLAIMS[theorem]
    label, runs = _two_op_label(claim), None
    if label is not None:
        found, runs = _label_models(label, order, oracle)
        models = [(m, m.zero) for m in found]
        # the searched hyperoperations times the fixed operations: every
        # multiplication composition (also for an empty plan), or the fixed
        # additive groups
        fixed = order ** (order * order) if all(r.mul_fixed for r in runs) else len(runs)
        space = engines.space_size(order, "hyper") * fixed
    else:
        premises = _descriptors_at([i for run in claim.premises for i in run], 0)
        space = engines.space_size(order, engines.table_kind(premises))
        space *= order if claim.element else 1
        counts = sweep_engine(claim, order, oracle) == engines.VECTOR_COUNT
        models = None if counts else _premise_models(claim, order, oracle)
    if models is None:
        premise_models, first = _count_premises(claim)
    else:
        premise_models, first = len(models), _first_failure(claim, models)
    report = VerificationReport(
        theorem=theorem,
        order=order,
        space_size=space,
        premise_models=premise_models,
        conclusion_holds=first is None,
        counterexample=None if first is None else _counterexample(claim, *first),
    )
    if claim.extras is not None:
        report.extras = claim.extras(Swept(claim, order, oracle, models, first, runs))
    if drop_premises and claim.drops:
        report.independence_witnesses = _drop_entries(claim, order)
    return report


def _conclusion_fails(conclusion, biconditional, cand, table) -> bool:
    holds = [_id_holds(table, i, cand) for i in conclusion]
    return holds[0] != holds[1] if biconditional else not all(holds)


def _fails(claim, table, cand) -> bool:
    return _conclusion_fails(claim.conclusion, claim.biconditional is not None, cand, table)


def _confirm(claim, runs, table, cand):
    """Revalidate a failure: some premise run holds and the conclusion fails."""
    _revalidate(
        any(all(_id_holds(table, i, cand) for i in run) for run in runs)
        and _fails(claim, table, cand),
        f"the premises hold and the conclusion {claim.conclusion} fails",
    )


def _first_failure(claim, models):
    for table, cand in models:
        if _fails(claim, table, cand):
            _confirm(claim, claim.premises, table, cand)
            return table, cand
    return None


def _counterexample(claim, table, cand):
    out = {"model": serialize_model(table)}
    if claim.element:
        out[claim.element] = cand
    if claim.biconditional is not None:
        out["witness"] = claim.biconditional(*(_id_holds(table, i, cand) for i in claim.conclusion))
    else:
        failed = next(i for i in claim.conclusion if not _id_holds(table, i, cand))
        out["witness"] = _witness(table, failed, cand)
    return out


def _count_premises(claim):
    """Order-3 count mode: (premise models, first failure or None)."""
    premise_models, table = count_sweep(
        tuple(_descriptors_at(run, None) for run in claim.premises),
        _descriptors_at(claim.conclusion, None),
        claim.biconditional is not None,
    )
    if table is None:
        return premise_models, None
    _confirm(claim, claim.premises, table, None)
    return premise_models, (table, None)


def _premise_models(claim, order, oracle):
    """(table, element) premise models in canonical order; the element is
    None when the claim quantifies none."""
    return element_sweep(
        order, lambda e: [_descriptors_at(run, e) for run in claim.premises],
        range(order) if claim.element else (None,), oracle, claim.pruned,
    )[0]


def _two_op_label(claim):
    """The two-operation label a claim's premise names, or None."""
    ids = claim.premises[0]
    return ids[0] if ids and ids[0] in classify.TWO_OP_LABELS else None


def _plan(label, order, dropped=None):
    """(the plan runs of a two-operation label, the pinned one): a
    multiplicative group on H* pins zero 0 and one 1, else nothing is pinned."""
    label_axioms = classify.axioms_of(label)
    zero = one = None
    if "multiplicative-group-on-H*" in label_axioms:
        zero, one = 0, 1 if order > 1 else None
    return two_op_plan(order, label_axioms, zero, one, dropped), one


def _label_models(label, order, oracle):
    """(the label's models at its pins, in `two_op_key` order; its plan runs)."""
    runs, one = _plan(label, order)
    runs = list(runs)
    return two_op_sweep(order, runs, one, oracle)[0], runs


# -- independence witnesses ------------------------------------------------------


def _independence(claim, runs, order):
    """The canonical first (table, element) where some premise run holds and
    the claim's conclusion fails, as a witness entry, or none_at_order.
    Element-dependent ids share the element, tried at every candidate."""
    quantified = any(_element_dependent(i) for run in runs for i in run + claim.conclusion)
    biconditional = claim.biconditional is not None

    def searches_at(e):
        fails = partial(_conclusion_fails, claim.conclusion, biconditional, e)
        return [(_descriptors_at(run, e), fails) for run in runs]

    hit = search_first(order, searches_at, range(order) if quantified else (None,))
    if hit is None:
        return {"none_at_order": order}
    table, cand, i = hit
    _confirm(claim, (runs[i],), table, cand)
    out = {"model": serialize_model(table)}
    if quantified:
        out["element"] = cand
    return out


def search_independence(premises, conclusion, order: int, workers: int = 1):
    """First model (canonical table order) satisfying the premises and
    violating the conclusion, or {"none_at_order": order}.

    Element-dependent ids share one existential candidate: a model qualifies
    when some element satisfies every element-dependent premise while the
    conclusion fails at that same element.
    """
    if not 1 <= order <= DROP_CAP:
        raise ValueError(f"independence searches run at orders 1 to the cap {DROP_CAP}")
    for ident in list(premises) + [conclusion]:
        if not _id_known(ident):
            raise ValueError(f"unknown id: {ident!r}")
        if ident in _CONCLUSION_ONLY_IDS and ident != conclusion:
            raise ValueError(f"{ident!r} can only be used as a conclusion")
    claim = Claim(premises=(tuple(premises),), conclusion=(conclusion,))
    with pool(workers):
        return _independence(claim, claim.premises, order)


def _plan_independence(claim, label, removed, order):
    """Over the label's plan runs without the one removed axiom or
    descriptor, in plan order, the first run's canonical first model on which
    the run's open axioms hold and the one-axiom conclusion fails, as a
    witness entry, or none_at_order."""
    (dropped,), (conclusion,) = removed, claim.conclusion
    for run in _plan(label, order, dropped)[0]:
        # a conclusion that is one descriptor of the searched operation is
        # searched negated, and checked first on every table the search emits
        negated = run.descriptors_of(conclusion) or ()
        constraints = ((("not", *negated),) if len(negated) == 1 else ()) + run.descriptors
        accept = partial(_admitted_failure, claim.conclusion, run)
        hit = search_first(order, lambda _: [(constraints, accept)], (None,))
        if hit is not None:
            table = hit[0]
            what = f"the premises but {dropped} hold and {conclusion} fails"
            _revalidate(engines.satisfies_all(table, constraints) and accept(table), what)
            return {"model": serialize_model(run.model(table))}
    return {"none_at_order": order}


def _admitted_failure(conclusion, run, table) -> bool:
    """The run's open axioms hold on its model with `table`, and the
    conclusion fails there."""
    model = run.model(table)
    return run.admits(model) and _conclusion_fails(conclusion, False, run.zero, model)


# drops no plan can search, with the reason reported
_UNSEARCHED = {"additive-abelian-group": "the sign rule presupposes additive inverses"}


def _drop_entries(claim, order):
    """One independence entry per droppable premise (or premise group)."""
    entries, label = [], _two_op_label(claim)
    for drop in claim.drops:
        name, removed = drop if isinstance(drop, tuple) else (drop, (drop,))
        reason = NOT_SEARCHED if order > DROP_CAP else _UNSEARCHED.get(name)
        if reason is not None:
            outcome = {"not_searched": reason}
        elif label is not None:
            outcome = _plan_independence(claim, label, removed, order)
        else:
            kept_runs = dict.fromkeys(
                tuple(i for i in run if i not in removed) for run in claim.premises
            )
            outcome = _independence(claim, list(kept_runs), order)
        entries.append({"dropped": name, **outcome})
    return entries


def verify(
    theorem: str,
    order: int,
    drop_premises: bool = False,
    oracle: bool = False,
    workers: int = 1,
) -> VerificationReport:
    """Run one verifier and assemble its report."""
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id: {theorem!r}")
    cap = _ORDER_CAPS[theorem]
    if not 1 <= order <= cap:
        raise ValueError(f"order {order} outside 1..{cap} for {theorem}")
    if oracle and order > engines.ORACLE_CAP:
        raise ValueError(f"--oracle runs up to order {engines.ORACLE_CAP}")
    if oracle and theorem not in CLAIMS:
        raise ValueError(f"{theorem} has no --oracle: its action search has no oracle engine")
    start = time.perf_counter()
    fn = _VERIFIERS.get(theorem, partial(_run_claim, theorem))
    with pool(workers):
        report = fn(order, drop_premises=drop_premises, oracle=oracle)
    report.wall_time = time.perf_counter() - start
    return report


# -- claim-specific predicates and extras hooks -------------------------------------


def _identity_and_inverses(table: HyperTable) -> bool:
    scalars = axioms.find_identities(table).scalar
    if not scalars:
        return False
    return axioms.group_inverse_map(table, (scalars & -scalars).bit_length() - 1) is not None


def qmp_property_checks(table: HyperTable, e: int):
    """The property suite over one qMp model; ids carry the catalog names."""
    n = table.order
    bit_e = 1 << e
    sym = [axioms.symmetric_set(table, e, x) for x in range(n)]
    classes = [table.cell(x, e) for x in range(n)]
    pairs = [(x, y) for x in range(n) for y in range(n)]
    overlapping = [(x, y) for x, y in pairs if classes[x] & classes[y]]
    return [
        ("P14-symmetric-set-of-identity", sym[e] == bit_e),
        ("C15-identity-squared", table.cell(e, e) == bit_e),
        ("P16-no-attractive-elements", axioms.attractive_elements(table, e) == 0),
        (
            "P17-membership-forces-identity",
            all(x == e or not table.cell(x, y) >> y & 1 for x, y in pairs),
        ),
        (
            "P18-symmetric-images-agree",
            all(len({table.cell(e, xp) for xp in members_of(sym[x])}) <= 1 for x in range(n)),
        ),
        (
            "P19-symmetric-set-is-class",
            all(table.cell(xp, e) == sym[x] for x in range(n) for xp in members_of(sym[x])),
        ),
        (
            "P20-overlapping-classes-coincide",
            all(
                classes[x] == classes[y]
                and all(sym[xp] >> x & 1 and sym[xp] >> y & 1 for xp in members_of(sym[x]))
                for x, y in overlapping
            ),
        ),
        (
            "T21-classes-partition",  # x in its own class also makes the union full
            all(classes[x] >> x & 1 for x in range(n))
            and all(classes[x] == classes[y] for x, y in overlapping),
        ),
        (
            "P22-product-in-one-class",
            all(len({classes[z] for z in members_of(table.cell(x, y))}) <= 1 for x, y in pairs),
        ),
        (
            "C23-products-equal-or-disjoint",
            all(a == b for a in set(table.cells) for b in set(table.cells) if a & b),
        ),
    ]


def _t13_extras(s: Swept):
    comm = [(t, e) for t, e in s.models if axioms.check_law(t, "commutative").holds]
    return {
        "with_commutativity": {
            "premise_models": len(comm),
            "conclusion_holds": _first_failure(s.claim, comm) is None,
        }
    }


def _t24_extras(s: Swept):
    if s.order > 3:
        weak = {"note": "the weak reading is swept at orders <= 3 only"}
    else:
        models = _premise_models(_WEAK_QMP, s.order, s.oracle)
        first = _first_failure(_WEAK_QMP, models)
        weak = {"premise_models": len(models), "conclusion_holds": first is None}
        if first is not None:
            weak["counterexample"] = {"model": serialize_model(first[0]), "element": first[1]}
    return {"weak_polysymmetry_reading": weak}


def _psuite_extras(s: Swept):
    failures = {}
    for t, e in s.models:
        for check_id, ok in qmp_property_checks(t, e):
            if not ok:
                failures[check_id] = failures.get(check_id, 0) + 1
    checks = [cid for cid, _ in qmp_property_checks(HyperTable(1, (1,)), 0)]
    return {"checks": checks, "failures_per_check": failures}


def _t27_extras(s: Swept):
    scalar = [(t, z) for t, z in s.models if axioms.check_scalar_zero(t, z).holds]
    sets = {
        "associative+commutative+unique-opposite": (s.models, s.first),
        "associative+commutative+unique-opposite+scalar-zero": (
            scalar,
            _first_failure(s.claim, scalar),
        ),
    }
    return {
        "premise_sets": {
            name: {"premise_models": len(models), "biconditional_holds": first is None}
            for name, (models, first) in sets.items()
        }
    }


def _t6_extras(s: Swept):
    # row-emptiness coherence: one empty product empties its row
    rows = [[m.mul.cell(w, z) for z in range(s.order)] for m, _ in s.models for w in range(s.order)]
    coherent = not any(0 in row and any(row) for row in rows)
    return {"additive_groups": len(s.runs), "row_emptiness_coherent": coherent}


def _t28_extras(s: Swept):
    def15 = [m for m, _ in s.models]
    def14 = _label_models("hyperfield", s.order, s.oracle)[0]
    reversible = [m for m, zero in s.models if not _fails(s.claim, m, zero)]
    _revalidate(def14 == reversible, "the Def-14 models are the reversible Def-15 models")
    return {
        "def15_models": len(def15),
        "def14_models": len(def14),
        "model_sets_identical": def14 == def15,
    }


_QMP = _ids_of("qmp-hypergroup")
_CANONICAL = _ids_of("canonical-hypergroup")

CLAIMS = {
    "T2": Claim(
        (("associative", "singleton-cells"),), ("reproductive", "identity-and-inverses"),
        biconditional=lambda a, b: {"note": "reproductivity and identity+inverses disagree"},
        drops=("associative",), extras=lambda _s: {"biconditional": True},
    ),
    # pruned: criterion 2 certifies the backtracker's order-3 sweep
    "T3": Claim(
        (("associative", "reproductive"),), ("cellwise-nonempty",),
        drops=("associative", "reproductive"), pruned=True,
    ),
    # Def-7 names multiplicative associativity and non-degeneracy as one
    # axiom; T6 drops its two descriptors one at a time
    "T6": Claim(
        ((_DEF7,),), ("mul-cellwise-nonempty",),
        drops=(
            ("mul-associative", (classify.ASSOC,)), "distributive-inclusion", "sign-rule",
            ("non-degenerate", (("not", ("law", "degenerate")),)), "additive-abelian-group",
        ),
        extras=_t6_extras,
    ),
    "T7": Claim(
        (("weakly-associative",),), ("cellwise-nonempty",),
        drops=("weakly-associative",),
    ),
    "T9": Claim(
        (("left-inverted-associative", "reproductive"),
         ("right-inverted-associative", "reproductive")),
        ("cellwise-nonempty",),
        drops=(
            ("inverted-associative",
             ("left-inverted-associative", "right-inverted-associative")),
            "reproductive",
        ),
    ),
    "T11": Claim(
        ((),), ("reproductive", "divisions-nonempty"),
        biconditional=lambda a, b: {"note": "reproductive and division-nonemptiness disagree"},
        extras=lambda _s: {"biconditional": True},
    ),
    "T13": Claim(
        (_QMP,), ("reproductive",), element="element", drops=_QMP, extras=_t13_extras
    ),
    "T24": Claim(
        (_QMP,), ("reversibility-poly",), element="element", drops=_QMP, extras=_t24_extras
    ),
    "P14-P23": Claim((_QMP,), ("qmp-properties",), element="element", extras=_psuite_extras),
    "T25": Claim(
        (_CANONICAL,), ("reproductive", "cellwise-nonempty"), element="zero", drops=_CANONICAL
    ),
    "T26": Claim((_CANONICAL,), ("scalar-zero",), element="zero", drops=_CANONICAL),
    "T27": Claim(
        (_CANONICAL[:3],), ("reversibility-canonical", "opposite-additivity"),
        biconditional=lambda rev, opp: {"reversibility": rev, "opposite_additivity": opp},
        element="zero", drops=_CANONICAL[:3], extras=_t27_extras,
    ),
    "T28": Claim(
        ((_DEF15,),), (classify.REVERSIBILITY,),
        drops=(
            ("additive-associative", (classify.ASSOC,)),
            ("additive-commutative", (classify.COMM,)),
            ("unique-opposite", (classify.UNIQUE_OPPOSITE,)),
            "multiplicative-group-on-H*", "absorbing-zero", "distributive-equal",
        ),
        extras=_t28_extras,
    ),
}

# T24's weak reading, swept by its extras hook
_WEAK_QMP = Claim(
    premises=(("associative", "identity", "polysymmetry-weak"),),
    conclusion=("reversibility-poly-weak",),
    element="element",
)

# T29's module additions: (table, zero) pairs of the normal-hypergroup axioms
_NORMAL = Claim((_ids_of("normal-hypergroup"),), (), element="zero")


# -- T29: hypermodules ---------------------------------------------------------


def _t29_scalar_family():
    family = [("krasner", krasner_hyperfield()), ("sign", sign_hyperfield())]
    for order in (2, 3):
        for i, m in enumerate(_label_models("hyperfield", order, False)[0]):
            family.append((f"hyperfield-{order}-{i}", m))
    unique = {}
    for name, m in family:
        unique.setdefault(m, (name, m))
    return list(unique.values())


def _actions_satisfying(p_model, madd, zero_m):
    """Yield single-valued actions passing axioms i-iv (ii as equality) in
    row-major order: the product of each scalar's rows that pass i and iv,
    each action then checked against ii and iii."""
    _, ii, iii, _ = classify.action_axioms().values()
    for action in product(*classify.action_rows(p_model, madd, zero_m)):
        hm = HypermoduleModel(p_model, madd, zero_m, action)
        if ii(hm) is None and iii(hm) is None:
            yield hm


def _t29_pair(task):
    """(actions passing axioms i-iv, the first if the module addition is not
    canonical, whether the opposite scalar unit negates in each one)."""
    p_model, madd, zero_m = task
    p_opp = axioms.opposite_map(p_model.add, p_model.zero)
    m_opp = axioms.opposite_map(madd, zero_m)
    canonical = classify.holds_at("canonical-hypergroup", madd, zero_m)
    count, first, negates = 0, None, True
    for hm in _actions_satisfying(p_model, madd, zero_m):
        count += 1
        if not canonical and first is None:
            first = hm
        if p_opp is not None and m_opp is not None:
            minus_one = p_opp[p_model.one]
            negates &= all(hm.act(minus_one, m) == m_opp[m] for m in range(madd.order))
    return count, first, negates


def _verify_t29(order, drop_premises, oracle):
    scalars = _t29_scalar_family()
    # the module additions of orders 1 to `order` (`verify` refuses --oracle)
    modules = sum((_premise_models(_NORMAL, n, False) for n in range(1, order + 1)), [])
    triples = [(p, madd, z) for _, p in scalars for madd, z in modules]
    space = sum(madd.order ** (p.order * madd.order) for p, madd, _ in triples)
    results = parallel_map(_t29_pair, triples)
    commutative = [axioms.check_law(t, "commutative").holds for t, _ in modules] * len(scalars)
    premise = [r for r, comm in zip(results, commutative) if comm]
    premise_models = sum(count for count, _, _ in premise)
    noncomm_premise_models = sum(r[0] for r in results) - premise_models
    first = next((hm for _, hm, _ in premise if hm is not None), None)
    opp_scalar_action_ok = all(negates for _, _, negates in premise)
    counterexample = None
    if first is not None:
        labels = classify.check_hypermodule(first).labels
        _revalidate(
            "hypermodule" in labels and "madd-canonical-hypergroup" not in labels,
            "T29's counterexample is a hypermodule whose module addition is not canonical",
        )
        counterexample = {
            "model": serialize_model(first),
            "witness": {"note": "module addition is not canonical"},
        }
    report = VerificationReport(
        theorem="T29",
        order=order,
        space_size=space,
        premise_models=premise_models,
        conclusion_holds=first is None,
        counterexample=counterexample,
        extras={
            "scalar_family": [name for name, _ in scalars],
            "module_tables": len(modules),
            "noncommutative_premise_models": noncomm_premise_models,
            "noncommutative_modules_admit_actions": noncomm_premise_models > 0,
            "opposite_scalar_action_negates": opp_scalar_action_ok,
        },
    )
    if drop_premises:
        report.independence_witnesses = [
            {"dropped": "any", "not_searched": "the sweep runs over a bundled scalar family"}
        ]
    return report


_VERIFIERS = {"T29": _verify_t29}
