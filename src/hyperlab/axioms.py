"""Axiom predicates over hyperoperation tables, with concrete failure witnesses.

Every check is a full quantifier expansion over the carrier.  Witnesses carry
the first violating tuple in row-major scan order (outer variable first), so
verdicts are deterministic.  Universally quantified conditions over empty
ranges hold vacuously.

The four triple laws read each side of a triple as one lookup in the row
unions x·m and the column unions m·z of the table, over every element set m.
Each line's unions come from one bounded cache keyed by the line's cells
(`line_unions`).  Both sides of every triple are listed in row-major order and
the two lists compared, so the first index where they differ (for weak
associativity, the first disjoint pair) gives the witness.  Reproductivity
needs only each line's full union, so it ORs the line's cells.  These checks
are the backtracker's emission re-check, so they run all n³ triples of every
emitted table.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import and_, ne

from .model import HyperTable, TwoOpModel, complex_product, mask_image, members_of

LAW_IDS = (
    "associative",
    "reproductive",
    "weakly-associative",
    "left-inverted-associative",
    "right-inverted-associative",
    "commutative",
    "cellwise-nonempty",
    "total",
    "degenerate",
)

TRIPLE_LAW_IDS = (
    "associative",
    "weakly-associative",
    "left-inverted-associative",
    "right-inverted-associative",
)

RING_AXIOM_IDS = (
    "distributive-equal",
    "distributive-inclusion",
    "sign-rule",
    "absorbing-zero",
    "additive-abelian-group",
    "multiplicative-group-on-H*",
    "multiplicative-semigroup-on-H*",
    "mul-nondegenerate-associative",
)


class PreconditionError(ValueError):
    """A check's structural precondition failed; distinct from an axiom failing."""


@dataclass(frozen=True, slots=True)
class Witness:
    """One failed axiom instance: re-evaluating the axiom at `elements`
    reproduces lhs and rhs and exhibits the violation."""

    axiom: str
    elements: tuple[int, ...]
    lhs: int
    rhs: int

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "elements": list(self.elements),
            "lhs": list(members_of(self.lhs)),
            "rhs": list(members_of(self.rhs)),
        }


@dataclass(frozen=True, slots=True)
class AxiomResult:
    holds: bool
    witness: Witness | None = None

    def __post_init__(self):
        if self.holds == (self.witness is not None):
            raise ValueError("witness must be present exactly when the axiom fails")

    def to_json(self) -> dict:
        out = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def _fail(axiom, elements, lhs, rhs) -> AxiomResult:
    return AxiomResult(False, Witness(axiom, tuple(elements), lhs, rhs))

_HOLDS = AxiomResult(True)


# bounded: order 3 has 512 distinct lines, order 4 already 65,536
@lru_cache(maxsize=1024)
def line_unions(line: tuple[int, ...]) -> tuple[int, ...]:
    """u[m]: the union of line[i] over the elements i of mask m, for a row
    or column `line` of cells.  The masks below 2^(i+1) are those below
    2^i, then the same with bit i."""
    u = [0]
    for cell in line:
        u += [v | cell for v in u]
    return tuple(u)


def _triple_law_verdict(table: HyperTable, law: str) -> AxiomResult:
    """A triple law from the row unions x·m and the column unions m·z of the
    table, so each side of a triple is one lookup.  Both sides of every
    (x, y, z) are listed in row-major order and the lists compared; the
    first index where they violate the law gives the witness."""
    n, cells = table.order, table.cells
    rows = [cells[x * n : x * n + n] for x in range(n)]
    cols = [cells[z::n] for z in range(n)]
    row_u = list(map(line_unions, rows)) if law != "left-inverted-associative" else None
    col_u = list(map(line_unions, cols)) if law != "right-inverted-associative" else None
    if law == "left-inverted-associative":  # (xy)z, (zy)x
        lhs = [cu[m] for m in cells for cu in col_u]
        rhs = [cu[m] for cu in col_u for col in cols for m in col]
    elif law == "right-inverted-associative":  # x(yz), z(yx)
        lhs = [ru[m] for ru in row_u for m in cells]
        rhs = [ru[m] for col in cols for m in col for ru in row_u]
    else:  # (xy)z, x(yz)
        lhs = [cu[m] for m in cells for cu in col_u]
        rhs = [ru[m] for ru in row_u for m in cells]
    if law == "weakly-associative":
        meets = list(map(and_, lhs, rhs))
        if all(meets):
            return _HOLDS
        i = meets.index(0)
    elif lhs == rhs:
        return _HOLDS
    else:
        i = list(map(ne, lhs, rhs)).index(True)
    return _fail(law, (i // (n * n), i // n % n, i % n), lhs[i], rhs[i])


def _reproductive(table: HyperTable) -> AxiomResult:
    """x·H = H·x = H, from the union of each line; at each x the column
    comes before the row."""
    n, cells, full = table.order, table.cells, table.full
    for x in range(n):
        for line in (cells[x::n], cells[x * n : x * n + n]):
            union = 0
            for cell in line:
                union |= cell
            if union != full:
                return _fail("reproductive", (x,), union, full)
    return _HOLDS


def check_law(table: HyperTable, law: str) -> AxiomResult:
    """Verdict for one named law, with the first row-major violation on failure."""
    n = table.order
    if law in TRIPLE_LAW_IDS:
        return _triple_law_verdict(table, law)
    if law == "reproductive":
        return _reproductive(table)
    if law == "commutative":
        for x in range(n):
            for y in range(n):
                if table.cell(x, y) != table.cell(y, x):
                    return _fail(law, (x, y), table.cell(x, y), table.cell(y, x))
        return _HOLDS
    if law == "cellwise-nonempty":
        for x in range(n):
            for y in range(n):
                if not table.cell(x, y):
                    return _fail(law, (x, y), 0, 0)
        return _HOLDS
    if law == "total":
        full = table.full
        for x in range(n):
            for y in range(n):
                if table.cell(x, y) != full:
                    return _fail(law, (x, y), table.cell(x, y), full)
        return _HOLDS
    if law == "degenerate":
        for x in range(n):
            for y in range(n):
                if table.cell(x, y):
                    return _fail(law, (x, y), table.cell(x, y), 0)
        return _HOLDS
    raise ValueError(f"unknown law id: {law!r}")


@dataclass(frozen=True, slots=True)
class IdentitySets:
    """Element masks for each identity flavour; scalar and strong refine two_sided."""

    left: int
    right: int
    two_sided: int
    scalar: int
    strong: int

    def to_json(self) -> dict:
        return {
            "left": list(members_of(self.left)),
            "right": list(members_of(self.right)),
            "two_sided": list(members_of(self.two_sided)),
            "scalar": list(members_of(self.scalar)),
            "strong": list(members_of(self.strong)),
        }


def find_identities(table: HyperTable) -> IdentitySets:
    n = table.order
    left = right = two_sided = scalar = strong = 0
    for e in range(n):
        is_left = all(table.cell(e, x) & (1 << x) for x in range(n))
        is_right = all(table.cell(x, e) & (1 << x) for x in range(n))
        if is_left:
            left |= 1 << e
        if is_right:
            right |= 1 << e
        if not (is_left and is_right):
            continue
        two_sided |= 1 << e
        if all(table.cell(x, e) == 1 << x and table.cell(e, x) == 1 << x for x in range(n)):
            scalar |= 1 << e
        if all(
            table.cell(x, e) == table.cell(e, x)
            and not (table.cell(x, e) & ~((1 << e) | (1 << x)))
            for x in range(n)
        ):
            strong |= 1 << e
    return IdentitySets(left, right, two_sided, scalar, strong)


def check_identity_element(table: HyperTable, e: int) -> AxiomResult:
    """x ∈ e·x = x·e for every x (the neutral-element axiom at a fixed e)."""
    for x in range(table.order):
        ex = table.cell(e, x)
        xe = table.cell(x, e)
        if ex != xe or not (ex & (1 << x)):
            return _fail("identity-element", (x,), ex, xe)
    return _HOLDS


def attractive_elements(table: HyperTable, e: int) -> int:
    """Mask of x ≠ e with e in both e·x and x·e."""
    bit_e = 1 << e
    out = 0
    for x in range(table.order):
        if x != e and table.cell(e, x) & bit_e and table.cell(x, e) & bit_e:
            out |= 1 << x
    return out


def symmetric_set(table: HyperTable, e: int, x: int, weak: bool = False) -> int:
    """Elements x' with x·x' = x'·x = {e} (strict) or e ∈ x·x' ∩ x'·x (weak)."""
    bit_e = 1 << e
    out = 0
    for xp in range(table.order):
        a = table.cell(x, xp)
        b = table.cell(xp, x)
        ok = (a & bit_e and b & bit_e) if weak else (a == bit_e and b == bit_e)
        if ok:
            out |= 1 << xp
    return out


def check_polysymmetry(table: HyperTable, e: int, weak: bool = False) -> AxiomResult:
    law = "polysymmetry-weak" if weak else "polysymmetry"
    for x in range(table.order):
        if not symmetric_set(table, e, x, weak):
            return _fail(law, (x,), 0, 1 << e)
    return _HOLDS


def check_reversibility_poly(table: HyperTable, e: int, weak: bool = False) -> AxiomResult:
    """z ∈ x·y forces z' ∈ y'·x' for all symmetric picks x', y', z'."""
    n = table.order
    sym = [symmetric_set(table, e, v, weak) for v in range(n)]
    for x in range(n):
        for y in range(n):
            cell = table.cell(x, y)
            for z in range(n):
                if not (cell & (1 << z)):
                    continue
                for xp in members_of(sym[x]):
                    for yp in members_of(sym[y]):
                        target = table.cell(yp, xp)
                        if sym[z] & ~target:
                            return _fail(
                                "reversibility-poly", (x, y, z), sym[z], target
                            )
    return _HOLDS


def opposite_map(table: HyperTable, zero: int) -> tuple[int, ...] | None:
    """x -> the unique x' with zero ∈ x + x', or None if any x lacks one."""
    n = table.order
    bit_zero = 1 << zero
    opp = []
    for x in range(n):
        cands = [xp for xp in range(n) if table.cell(x, xp) & bit_zero]
        if len(cands) != 1:
            return None
        opp.append(cands[0])
    return tuple(opp)


def check_unique_opposite(table: HyperTable, zero: int) -> AxiomResult:
    n = table.order
    bit_zero = 1 << zero
    for x in range(n):
        cands = 0
        for xp in range(n):
            if table.cell(x, xp) & bit_zero:
                cands |= 1 << xp
        if cands.bit_count() != 1:
            return _fail("unique-opposite", (x,), cands, bit_zero)
    return _HOLDS


def _require_opposites(table: HyperTable, zero: int) -> tuple[int, ...]:
    """The opposite map at zero; when it is undefined, the precondition
    fails, not the axiom."""
    opp = opposite_map(table, zero)
    if opp is None:
        raise PreconditionError("opposite map undefined")
    return opp


def check_reversibility_canonical(table: HyperTable, zero: int) -> AxiomResult:
    """z ∈ x + y implies x ∈ z + (-y); requires the opposite map to exist."""
    n = table.order
    opp = _require_opposites(table, zero)
    for x in range(n):
        for y in range(n):
            cell = table.cell(x, y)
            for z in range(n):
                if cell & (1 << z) and not (table.cell(z, opp[y]) & (1 << x)):
                    return _fail(
                        "reversibility-canonical",
                        (x, y, z),
                        cell,
                        table.cell(z, opp[y]),
                    )
    return _HOLDS


def check_opposite_additivity(table: HyperTable, zero: int) -> AxiomResult:
    """-(z + w) = (-z) + (-w), the opposite taken elementwise."""
    n = table.order
    opp = _require_opposites(table, zero)
    for z in range(n):
        for w in range(n):
            lhs = mask_image(table.cell(z, w), opp)
            rhs = table.cell(opp[z], opp[w])
            if lhs != rhs:
                return _fail("opposite-additivity", (z, w), lhs, rhs)
    return _HOLDS


def check_scalar_zero(table: HyperTable, zero: int) -> AxiomResult:
    """x + zero = zero + x = {x} for every x."""
    for x in range(table.order):
        if table.cell(x, zero) != 1 << x:
            return _fail("scalar-zero", (x,), table.cell(x, zero), 1 << x)
        if table.cell(zero, x) != 1 << x:
            return _fail("scalar-zero", (x,), table.cell(zero, x), 1 << x)
    return _HOLDS


# -- two-operation axioms ----------------------------------------------------


def group_inverse_map(table: HyperTable, identity: int) -> tuple[int, ...] | None:
    """Two-sided inverses in a singleton-celled table, or None."""
    n = table.order
    bit_id = 1 << identity
    inv = []
    for x in range(n):
        found = None
        for y in range(n):
            if table.cell(x, y) == bit_id and table.cell(y, x) == bit_id:
                found = y
                break
        if found is None:
            return None
        inv.append(found)
    return tuple(inv)


def _abelian_group_failure(model: TwoOpModel) -> AxiomResult | None:
    """None when (carrier, add) is an abelian group with identity `zero`."""
    add = model.add
    n = model.order
    for x in range(n):
        for y in range(n):
            if add.cell(x, y).bit_count() != 1:
                return _fail(
                    "additive-abelian-group", (x, y), add.cell(x, y), add.cell(x, y)
                )
    for check, arg in (
        (check_law, "associative"),
        (check_law, "commutative"),
        (check_scalar_zero, model.zero),
    ):
        res = check(add, arg)
        if not res.holds:
            w = res.witness
            return _fail("additive-abelian-group", w.elements, w.lhs, w.rhs)
    if group_inverse_map(add, model.zero) is None:
        return _fail("additive-abelian-group", (model.zero,), 0, 1 << model.zero)
    return None


def additive_negation_map(model: TwoOpModel) -> tuple[int, ...]:
    """Inverse map of the additive group; precondition: the group axioms hold."""
    if _abelian_group_failure(model) is not None:
        raise PreconditionError("the additive structure is not an abelian group")
    return group_inverse_map(model.add, model.zero)


def _restricted_star(model: TwoOpModel, axiom: str):
    """(elements of H*, None), or (None, a witness of `axiom` at the first
    cell of H* x H* that leaves H*)."""
    star = [x for x in range(model.order) if x != model.zero]
    bit_zero = 1 << model.zero
    for x in star:
        for y in star:
            cell = model.mul.cell(x, y)
            if cell.bit_count() != 1 or cell & bit_zero:
                return None, _fail(axiom, (x, y), cell, cell)
    return star, None


def _star_semigroup_failure(model: TwoOpModel, axiom: str) -> AxiomResult | None:
    star, witness = _restricted_star(model, axiom)
    if witness is not None:
        return witness
    mul = model.mul
    for x in star:
        for y in star:
            xy = singleton(mul.cell(x, y))
            for z in star:
                lhs = singleton(mul.cell(xy, z))
                rhs = singleton(mul.cell(x, singleton(mul.cell(y, z))))
                if lhs != rhs:
                    return _fail(axiom, (x, y, z), 1 << lhs, 1 << rhs)
    return None


def singleton(mask: int) -> int:
    return mask.bit_length() - 1


def _star_group_failure(model: TwoOpModel) -> AxiomResult | None:
    axiom = "multiplicative-group-on-H*"
    fail = _star_semigroup_failure(model, axiom)
    if fail is not None:
        return fail
    star = [x for x in range(model.order) if x != model.zero]
    if not star:
        return _fail(axiom, (model.zero,), 0, 0)
    mul = model.mul
    identity = None
    for e in star:
        if all(
            mul.cell(e, x) == 1 << x and mul.cell(x, e) == 1 << x for x in star
        ):
            identity = e
            break
    if identity is None:
        return _fail(axiom, (star[0],), 0, 0)
    for x in star:
        if not any(
            mul.cell(x, y) == 1 << identity and mul.cell(y, x) == 1 << identity
            for y in star
        ):
            return _fail(axiom, (x,), 0, 1 << identity)
    return None


def multiplicative_identity(model: TwoOpModel) -> int | None:
    """The two-sided scalar identity of mul, or None; when model.one is set,
    only that element is checked."""
    n = model.order
    mul = model.mul
    candidates = range(n) if model.one is None else (model.one,)
    for e in candidates:
        if all(mul.cell(e, x) == 1 << x and mul.cell(x, e) == 1 << x for x in range(n)):
            return e
    return None


def check_ring_axioms(model: TwoOpModel, variant: str) -> AxiomResult:
    """One named two-operation axiom; precondition trouble raises, it never
    masquerades as an axiom failure."""
    add, mul, n = model.add, model.mul, model.order

    if variant in ("distributive-equal", "distributive-inclusion"):
        # z(x+y) against zx+zy, then (x+y)z against xz+yz: equal, or included
        equal = variant == "distributive-equal"
        for z in range(n):
            for x in range(n):
                for y in range(n):
                    lhs = complex_product(mul, 1 << z, add.cell(x, y))
                    rhs = complex_product(add, mul.cell(z, x), mul.cell(z, y))
                    if lhs != rhs and (equal or lhs & ~rhs):
                        return _fail(variant, (z, x, y), lhs, rhs)
                    lhs = complex_product(mul, add.cell(x, y), 1 << z)
                    rhs = complex_product(add, mul.cell(x, z), mul.cell(y, z))
                    if lhs != rhs and (equal or lhs & ~rhs):
                        return _fail(variant, (z, x, y), lhs, rhs)
        return _HOLDS

    if variant == "sign-rule":
        neg = additive_negation_map(model)
        for a in range(n):
            for b in range(n):
                lhs = mul.cell(a, neg[b])
                mid = mul.cell(neg[a], b)
                rhs = mask_image(mul.cell(a, b), neg)
                if lhs != rhs or mid != rhs:
                    return _fail(variant, (a, b), lhs if lhs != rhs else mid, rhs)
        return _HOLDS

    if variant == "absorbing-zero":
        bit_zero = 1 << model.zero
        for x in range(n):
            if mul.cell(model.zero, x) != bit_zero:
                return _fail(variant, (x,), mul.cell(model.zero, x), bit_zero)
            if mul.cell(x, model.zero) != bit_zero:
                return _fail(variant, (x,), mul.cell(x, model.zero), bit_zero)
        return _HOLDS

    if variant == "additive-abelian-group":
        fail = _abelian_group_failure(model)
        return _HOLDS if fail is None else fail

    if variant == "multiplicative-group-on-H*":
        fail = _star_group_failure(model)
        return _HOLDS if fail is None else fail

    if variant == "multiplicative-semigroup-on-H*":
        fail = _star_semigroup_failure(model, variant)
        return _HOLDS if fail is None else fail

    if variant == "mul-nondegenerate-associative":
        res = check_law(mul, "degenerate")
        if res.holds:
            return _fail(variant, (0, 0), 0, 0)
        res = check_law(mul, "associative")
        if res.holds:
            return _HOLDS
        return _fail(variant, res.witness.elements, res.witness.lhs, res.witness.rhs)

    raise ValueError(f"unknown ring axiom variant: {variant!r}")
