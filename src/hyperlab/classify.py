"""Structure labels from one axiom table.

`STRUCTURES` defines every label once, as a list of axioms:

* a single-operation label lists engine descriptors (see `engines`), where
  the placeholder E stands for a candidate element; its candidate rule says
  which elements are tried (every element, or the two-sided identities) and
  its constants key reports the first one that works;
* a two-operation label lists descriptors of the addition at the model's
  zero, then two-operation axiom ids (`axioms.RING_AXIOM_IDS`,
  `mul-cellwise-nonempty` and `multiplicative-identity`);
* a refinement is its base plus extra axioms that read no candidate;
* partial-hypergroupoid is the complement of hypergroupoid.

Every label also states the largest order an enumeration job with it runs
at (`max_order`), a refinement as well as a base.

`classify_single` and `classify_two_op` take labels, constants and evidence
from one trail builder, which reads `engines.constraint_result` for every
descriptor.  Every evidence entry is `evaluate`'s, and the CLI's `check`
prints the same entries.  Enumeration builds its search runs and final
checks from the table (`runs_at`, `axioms_of`), and T29 picks module zeros
with `holds_at`.

A classification never raises on a negative verdict: every tested structure
gets an evidence trail of axiom results (descriptor entries carry the
candidate they were tried at), and since the definitions nest, the label
set is closed under the implication lattice (a hypergroup is also a
quasihypergroup, a semihypergroup and a hypergroupoid, and so on).
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import product

from . import axioms
from .axioms import PreconditionError, Witness, check_law, check_ring_axioms
from .engines import E, at, constraint_result, satisfies_all
from .model import HyperTable, HypermoduleModel, TwoOpModel, mask_image, members_of

# candidate rules: the elements a structure is tried at, and the tag key
ELEMENTS = "elements"  # every element, ascending
IDENTITIES = "identities"  # the two-sided identities, ascending
ZERO = "zero"  # the two-operation model's zero
_TAG = {ELEMENTS: "zero", IDENTITIES: "identity", ZERO: "zero"}


@dataclass(frozen=True)
class ClassificationReport:
    labels: frozenset
    evidence: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "labels": sorted(self.labels),
            "evidence": self.evidence,
            "constants": self.constants,
        }


@dataclass(frozen=True)
class Structure:
    axioms: tuple = ()
    candidates: str | None = None
    constant: str | None = None  # constants key of the first working candidate
    base: str | None = None  # a refinement: the base's axioms, then these
    complement_of: str | None = None
    max_order: int = field(kw_only=True)  # the largest order an enumeration job runs at


ASSOC = ("law", "associative")
COMM = ("law", "commutative")
REPRO = ("law", "reproductive")
NONEMPTY = ("law", "cellwise-nonempty")
IDENTITY = ("identity-at", E)
POLYSYMMETRY = ("polysymmetry-at", E, False)
UNIQUE_OPPOSITE = ("unique-opposite-at", E)
REVERSIBILITY = ("reversibility-at", E)
_RING_TAIL = ("absorbing-zero", "distributive-equal")

STRUCTURES = {
    # the caps of 2 refuse order-3 model sets of 6 to 95 million tables, and
    # the caps of 3 and 4 the searches one order up that did not finish in 30 s
    "partial-hypergroupoid": Structure(complement_of="hypergroupoid", max_order=2),
    "hypergroupoid": Structure((NONEMPTY,), max_order=2),
    "semihypergroup": Structure((NONEMPTY, ASSOC), max_order=3),
    "quasihypergroup": Structure((NONEMPTY, REPRO), max_order=2),
    "hypergroup": Structure((ASSOC, REPRO), max_order=3),
    "group": Structure((("singleton-cells",),), base="hypergroup", max_order=5),
    "hv-group": Structure((REPRO, ("law", "weakly-associative")), max_order=2),
    "la-hypergroup": Structure((REPRO, ("law", "left-inverted-associative")), max_order=3),
    "ra-hypergroup": Structure((REPRO, ("law", "right-inverted-associative")), max_order=3),
    "qmp-hypergroup": Structure(
        (ASSOC, IDENTITY, POLYSYMMETRY), IDENTITIES, "qmp-identity", max_order=4
    ),
    "m-polysymmetrical-hypergroup": Structure((COMM,), base="qmp-hypergroup", max_order=4),
    "normal-hypergroup": Structure(
        (ASSOC, REPRO, ("scalar-zero-at", E), UNIQUE_OPPOSITE), ELEMENTS, "normal-zero",
        max_order=4,
    ),
    "canonical-hypergroup": Structure(
        (ASSOC, COMM, UNIQUE_OPPOSITE, REVERSIBILITY), ELEMENTS, "canonical-zero", max_order=4
    ),
    "quasicanonical-hypergroup": Structure(
        (ASSOC, UNIQUE_OPPOSITE, REVERSIBILITY), ELEMENTS, "quasicanonical-zero", max_order=3
    ),
    # two operations: the descriptors read the addition at the zero; without a
    # multiplicative group on H* the order-4 searches do not finish in bounded time
    "krasner-hyperring": Structure(
        (ASSOC, COMM, UNIQUE_OPPOSITE, REVERSIBILITY, "multiplicative-semigroup-on-H*")
        + _RING_TAIL,
        ZERO,
        max_order=3,
    ),
    "unitary-hyperring": Structure(
        ("multiplicative-identity",), base="krasner-hyperring", max_order=3
    ),
    "hyperfield": Structure(
        (ASSOC, COMM, UNIQUE_OPPOSITE, REVERSIBILITY, "multiplicative-group-on-H*") + _RING_TAIL,
        ZERO,
        max_order=4,
    ),
    "hyperfield-def15": Structure(
        (ASSOC, COMM, UNIQUE_OPPOSITE, "multiplicative-group-on-H*") + _RING_TAIL, ZERO, max_order=4
    ),
    "multiplicative-hyperring-def7": Structure(
        (
            "additive-abelian-group",
            "mul-nondegenerate-associative",
            "distributive-inclusion",
            "sign-rule",
        ),
        ZERO,
        max_order=3,
    ),
    "multiplicative-hyperring-def6": Structure(
        ("mul-cellwise-nonempty",), base="multiplicative-hyperring-def7", max_order=3
    ),
    "m-polysymmetrical-hyperring": Structure(
        (ASSOC, COMM, IDENTITY, POLYSYMMETRY, "multiplicative-semigroup-on-H*") + _RING_TAIL,
        ZERO,
        max_order=3,
    ),
}


def candidate_rule(label: str):
    s = STRUCTURES[label]
    return candidate_rule(s.base) if s.base else s.candidates


SINGLE_LABELS = tuple(lb for lb in STRUCTURES if candidate_rule(lb) != ZERO)
TWO_OP_LABELS = tuple(lb for lb in STRUCTURES if candidate_rule(lb) == ZERO)


def max_order(label: str) -> int:
    """The largest order an enumeration job with the label runs at."""
    return STRUCTURES[label].max_order


def axioms_of(label: str) -> tuple:
    """The label's axioms: its base's, then its own."""
    s = STRUCTURES[label]
    return (axioms_of(s.base) if s.base else ()) + s.axioms


def element_free_first(descriptors) -> tuple:
    return tuple(sorted(descriptors, key=lambda c: E in c))


def runs_at(label: str, cand) -> tuple:
    """Descriptor conjunctions whose models together make up the label's
    models at the candidate: one conjunction (element-free descriptors
    first), or for a complement one negated axiom each."""
    s = STRUCTURES[label]
    if s.complement_of:
        return tuple((("not", at(c, cand)),) for c in axioms_of(s.complement_of))
    return (tuple(at(c, cand) for c in element_free_first(axioms_of(label))),)


def holds_at(label: str, table: HyperTable, cand) -> bool:
    """Some descriptor run of a single-operation label holds at the candidate."""
    return any(satisfies_all(table, run) for run in runs_at(label, cand))


# -- evidence trails --------------------------------------------------------------

_NAMES = {
    "identity-at": "identity-element",
    "unique-opposite-at": "unique-opposite",
    "reversibility-at": "reversibility-canonical",
    "scalar-zero-at": "scalar-zero",
    "singleton-cells": "singleton-cells",
}


def axiom_name(axiom) -> str:
    """The evidence name of an axiom of the table."""
    if isinstance(axiom, str):
        return axiom
    if axiom[0] == "law":
        return axiom[1]
    if axiom[0] == "polysymmetry-at":
        return "polysymmetry-weak" if axiom[2] else "polysymmetry"
    return _NAMES[axiom[0]]


def axiom_result(model, axiom, cand):
    """AxiomResult of one axiom (a bool for the detected identity, which has
    no witness); descriptors read the table, or the model's addition."""
    if axiom == "multiplicative-identity":
        return axioms.multiplicative_identity(model) is not None
    if axiom == "mul-cellwise-nonempty":
        return check_law(model.mul, "cellwise-nonempty")
    if isinstance(axiom, str):
        return check_ring_axioms(model, axiom)
    table = model.add if isinstance(model, TwoOpModel) else model
    return constraint_result(table, at(axiom, cand))


def axiom_holds(model, axiom, cand=None) -> bool:
    """One axiom of the table on a table or model; a failed precondition
    counts as a failure."""
    try:
        res = axiom_result(model, axiom, cand)
    except PreconditionError:
        return False
    return res if isinstance(res, bool) else res.holds


def evaluate(model, axiom, cand=None) -> dict:
    """The untagged evidence entry of one axiom at the candidate: its name,
    its verdict, and the witness of a failure or the reason a precondition
    failed."""
    out = {"axiom": axiom_name(axiom)}
    try:
        res = axiom_result(model, axiom, cand)
    except PreconditionError as exc:
        return out | {"holds": False, "precondition": str(exc)}
    if isinstance(res, bool):
        return out | {"holds": res}
    out["holds"] = res.holds
    if res.witness is not None:
        out["witness"] = res.witness.to_json()
    return out


def _all_hold(trail) -> bool:
    return all(e["holds"] for e in trail)


def _trail_builder(model):
    """entry(axiom, cand, tag): each axiom is evaluated once per model and
    candidate; descriptor entries carry the tag, axiom ids never do."""
    cache = {}

    def entry(axiom, cand, tag):
        key = axiom if isinstance(axiom, str) else at(axiom, cand)
        if key not in cache:
            cache[key] = evaluate(model, axiom, cand)
        return cache[key] if isinstance(axiom, str) else cache[key] | tag

    return entry


def _candidates(rule, model):
    if rule is None:
        return (None,)
    if rule == ZERO:
        return (model.zero,)
    if rule == IDENTITIES:
        return members_of(axioms.find_identities(model).two_sided)
    return range(model.order)


def _classify(model, labels) -> ClassificationReport:
    entry = _trail_builder(model)
    evidence, constants, verdicts = {}, {}, {}

    def verdict(label):
        """(holds, candidate) of one label; fills in its evidence."""
        if label in verdicts:
            return verdicts[label]
        s = STRUCTURES[label]
        if s.complement_of:
            out = (not verdict(s.complement_of)[0], None)
        elif s.base:
            base_holds, cand = verdict(s.base)
            extra = [entry(a, None, {}) for a in s.axioms]
            quantified = candidate_rule(s.base) in (ELEMENTS, IDENTITIES)
            evidence[label] = ([] if quantified else evidence[s.base]) + extra
            out = (base_holds and _all_hold(extra), cand)
        else:
            evidence[label] = []
            out = (False, None)
            for cand in _candidates(s.candidates, model):
                tag = {_TAG[s.candidates]: cand} if s.candidates else {}
                trail = [entry(a, cand, tag) for a in s.axioms]
                evidence[label].extend(trail)
                if not out[0] and _all_hold(trail):
                    out = (True, cand)
        if out[0] and s.constant:
            constants[s.constant] = out[1]
        verdicts[label] = out
        return out

    held = frozenset(lb for lb in labels if verdict(lb)[0])
    return ClassificationReport(held, evidence, constants)


def classify_single(table: HyperTable) -> ClassificationReport:
    """Full label set for one hyperoperation table."""
    report = _classify(table, SINGLE_LABELS)
    identities = axioms.find_identities(table)
    if identities.two_sided:
        report.constants["identities"] = list(members_of(identities.two_sided))
    if identities.scalar:
        report.constants["scalar-identities"] = list(members_of(identities.scalar))
    return report


def classify_two_op(model: TwoOpModel) -> ClassificationReport:
    """Label set for a two-operation model with a distinguished zero."""
    report = _classify(model, TWO_OP_LABELS)
    report.constants["zero"] = model.zero
    one = axioms.multiplicative_identity(model)
    if one is not None:
        report.constants["one"] = one
    return report


# -- hypermodules -------------------------------------------------------------------

def _row_distributes(madd, row):  # i on one scalar's row: a(m + k) = am + ak
    for m in range(madd.order):
        for k in range(madd.order):
            lhs = mask_image(madd.cell(m, k), row)
            rhs = madd.cell(row[m], row[k])
            if lhs != rhs:
                return (m, k), lhs, rhs
    return None


def _distributes_over_module_add(hm):  # i: a(m + k) = am + ak
    for a, row in enumerate(hm.action):
        violation = _row_distributes(hm.madd, row)
        if violation is not None:
            (m, k), lhs, rhs = violation
            return (a, m, k), lhs, rhs
    return None


def _scalar_add_distributes(hm, weak):  # ii: (a + b)m = am + bm, or inclusion
    madd, act, p_add = hm.madd, hm.act, hm.scalars.add
    p_n = p_add.order
    for a in range(p_n):
        for b in range(p_n):
            for m in range(madd.order):
                lhs = mask_image(p_add.cell(a, b), [row[m] for row in hm.action])
                rhs = madd.cell(act(a, m), act(b, m))
                if (lhs & ~rhs) if weak else lhs != rhs:
                    return (a, b, m), lhs, rhs
    return None


def _scalar_mul_associates(hm):  # iii: (ab)m = a(bm), scalar mul single-valued
    act, p_mul = hm.act, hm.scalars.mul
    p_n = p_mul.order
    for a in range(p_n):
        for b in range(p_n):
            ab = p_mul.cell(a, b).bit_length() - 1
            for m in range(hm.madd.order):
                lhs, rhs = act(ab, m), act(a, act(b, m))
                if lhs != rhs:
                    return (a, b, m), 1 << lhs, 1 << rhs
    return None


def _unit_and_zero_action(hm):  # iv: 1m = m and 0m = 0
    ones, zeros, zm = hm.action[hm.scalars.one], hm.action[hm.scalars.zero], hm.zero_m
    for m, (one_m, zero_m) in enumerate(zip(ones, zeros)):
        if one_m != m:
            return (m,), 1 << one_m, 1 << m
        if zero_m != zm:
            return (m,), 1 << zero_m, 1 << zm
    return None


def action_rows(scalars: TwoOpModel, madd: HyperTable, zero_m: int) -> list:
    """Per scalar, in lexicographic order, the rows of a single-valued action
    that pass axioms i and iv, which read one row each: i on every row, and iv
    fixes the row of one to the identity and the row of zero to zero_m."""
    rows = [
        row
        for row in product(range(madd.order), repeat=madd.order)
        if _row_distributes(madd, row) is None
    ]
    identity, zeros = tuple(range(madd.order)), (zero_m,) * madd.order
    return [
        [r for r in rows if (a != scalars.one or r == identity) and (a != scalars.zero or r == zeros)]
        for a in range(scalars.order)
    ]


def action_axioms(weak: bool = False) -> dict:
    """Axioms i-iv of a single-valued action, in order: id -> check(hm),
    which returns the first violation (elements, lhs, rhs) in scan order or
    None.  Axiom ii is an equality, or an inclusion for weak hypermodules."""
    return {
        "action-distributes-over-module-add": _distributes_over_module_add,
        "scalar-add-distributes" + ("-inclusion" if weak else ""): partial(
            _scalar_add_distributes, weak=weak
        ),
        "scalar-mul-associates-with-action": _scalar_mul_associates,
        "unit-and-zero-action": _unit_and_zero_action,
    }


def check_hypermodule(hm: HypermoduleModel, weak: bool = False) -> ClassificationReport:
    """Action axioms over a unitary scalar hyperring, plus the structure of
    the module's addition (normal and canonical verdicts)."""
    scalar_report = classify_two_op(hm.scalars)
    if "unitary-hyperring" not in scalar_report.labels:
        raise PreconditionError("the scalar model is not a unitary hyperring")

    labels = set()
    constants = {"zerom": hm.zero_m, "zero": hm.scalars.zero, "one": hm.scalars.one}
    trail = []
    for axiom, check in action_axioms(weak).items():
        violation = check(hm)
        trail.append({"axiom": axiom, "holds": violation is None})
        if violation is not None:
            trail[-1]["witness"] = Witness(axiom, *violation).to_json()
    evidence = {"action-axioms": trail}

    entry = _trail_builder(hm.madd)
    zm = hm.zero_m
    normal_axioms = element_free_first(axioms_of("normal-hypergroup") + (COMM,))
    madd_trail = [entry(a, zm, {}) for a in normal_axioms]
    evidence["madd-normal-hypergroup"] = madd_trail
    normal = all(e["holds"] for a, e in zip(normal_axioms, madd_trail) if a != COMM)
    commutative = entry(COMM, zm, {})["holds"]
    if normal:
        labels.add("madd-normal-hypergroup")
    if normal and commutative:
        labels.add("madd-commutative-normal-hypergroup")

    canonical_trail = [entry(a, zm, {"zero": zm}) for a in axioms_of("canonical-hypergroup")]
    evidence["madd-canonical-hypergroup"] = canonical_trail
    if _all_hold(canonical_trail):
        labels.add("madd-canonical-hypergroup")

    if _all_hold(trail) and normal and commutative:
        labels.add("weak-hypermodule" if weak else "hypermodule")

    return ClassificationReport(frozenset(labels), evidence, constants)
