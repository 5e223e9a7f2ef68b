"""Exhaustive search engines over table spaces.

Three engines with one constraint vocabulary:

* pure      - filter every raw table through the axiom predicates; the
              reference oracle, feasible at order <= 2 (and compositions
              at order 3).
* vector    - numpy sweep of the full order-3 cell-set space (8^9 tables),
              unpruned; scan order equals the canonical table order.  Count
              mode returns premise counts and the first failure, collect
              mode the satisfying tables.  Each chunk fixes the first row;
              its six tail cells are broadcast views on six factored axes,
              so a predicate costs the size of the axes it reads, and the
              triple laws run last on the surviving tails alone.
* backtrack - row-major cell assignment with constraint propagation,
              sharded over the first slot's values from order 3 on (the
              only engine that scales past toy spaces for strongly
              constrained jobs); strict polysymmetry at order >= 4 splits
              instead over one witness map per orbit of the permutations
              fixing its element (`_witness_map_tasks`).

`plan_sweep` is the one place that picks an engine for a sweep, oracle
sweeps included.  `sweep_tasks` and `merge_sweep` run a planned table sweep
as independent tasks; `first_hit_task` runs one backtracker shard up to its
first accepted table.  A sweep searches compositions exactly when its
descriptors include ("singleton-cells",) (`table_kind`): the backtracker and
the pure engine then draw every cell from the singletons and emit
composition tables.

Constraints are serializable descriptors:

    ("law", <law-id>)             one of axioms.LAW_IDS
    ("identity-at", e)            x in e*x = x*e for all x
    ("polysymmetry-at", e, weak)  every x has a symmetric element wrt e
    ("unique-opposite-at", z)     every x has exactly one x' with z in x+x'
    ("reversibility-at", z)       canonical reversibility (needs opposites)
    ("opposite-additivity-at", z) -(x+y) = -x-y elementwise
    ("scalar-zero-at", z)         x+z = z+x = {x}
    ("divisions-nonempty",)       every x/y and y\\x is non-empty
    ("distributive-inclusion-over", add)
                                  the table as a multiplication over the
                                  additive group add: a(b+c) in ab+ac and
                                  (b+c)a in ba+ca
    ("sign-rule-over", add, z)    a(-b) = (-a)b = -(ab), negation taken in
                                  the additive group (add, z)
    ("reversibility-poly-at", e, weak)
                                  z in x*y forces z' in y'*x' for every
                                  symmetric pick wrt e
    ("singleton-cells",)          every cell is a singleton (a composition)
    ("forced", pos, mask)         cell number pos (row-major) equals mask
    ("equivariant-under", perm)   cell(perm x, perm y) = perm(cell(x, y))
    ("not", c)                    descriptor c fails

A descriptor may name the candidate element with the placeholder `E`;
`at(c, e)` fills it in.  `constraint_result` is the one authoritative
verdict of a descriptor, an `AxiomResult` with its witness; the
classification trails, the emission checks and the verifiers' witnesses all
read it.

The backtracker turns some descriptors into devices beyond the final check:
commutativity and identity-at link mirrored cells, the sign rule links each
cell to its row and column negations, equivariance links each cell to its
relabeled image, forced, scalar-zero, total and degenerate pin cells,
cellwise non-emptiness keeps the empty value out of every domain, unique
opposites and polysymmetry filter each slot's domain, one verdict per class
of values that they cannot tell apart, before any of it is written, and the
triple laws, reproductivity and inclusion distributivity get pruning
checks; filters and checks are compiled per slot (`Backtracker`).  A
filtered value counts as a visited and pruned node, as a failed check does.
Canonical reversibility gets a leaf device, which rejects a complete cell
list before a table is built.  The opposite-additivity, polysymmetric
reversibility, divisions and negated descriptors have no device: the leaf
re-check runs them before the others.

The pure engine and the backtracker emit only tables that pass the
authoritative predicates; pruning is a conservative accelerator, never the
verdict.  The vector engine's verdict on a vectorizable descriptor is its
vector predicate (certified against the authoritative one by
tests/test_vector_kernel.py); collect mode re-checks only the descriptors
that it cannot vectorize.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import permutations, product

import numpy as np

from . import axioms
from .axioms import AxiomResult, PreconditionError, Witness
from .model import (
    KIND_COMPOSITION,
    KIND_HYPER,
    HyperTable,
    TwoOpModel,
    apply_permutation,
    complex_product,
    full_mask,
    key_sorted_masks,
    left_division,
    mask_image,
    right_division,
    singleton_value,
    table_key,
)

# -- constraint predicates (authoritative) ------------------------------------


class _Candidate:
    """The placeholder `E` for the candidate element in a descriptor."""

    def __repr__(self):
        return "E"

    def __reduce__(self):  # unpickles as the module's E, which `at` replaces
        return "E"


E = _Candidate()


def at(c, e):
    """Descriptor `c` with the candidate placeholder E replaced by e."""
    return tuple(e if arg is E else arg for arg in c)


def _divisions_nonempty(table: HyperTable) -> AxiomResult:
    n = table.order
    for x in range(n):
        for y in range(n):
            if not (right_division(table, x, y) and left_division(table, y, x)):
                return AxiomResult(False, Witness("divisions-nonempty", (x, y), 0, 0))
    return AxiomResult(True)


def _singleton_cells(table: HyperTable) -> AxiomResult:
    n = table.order
    for x in range(n):
        for y in range(n):
            cell = table.cell(x, y)
            if cell.bit_count() != 1:
                return AxiomResult(False, Witness("singleton-cells", (x, y), cell, cell))
    return AxiomResult(True)


def _over(variant):
    """The table as the multiplication over an additive group, checked
    against one ring axiom (distributivity reads no zero; 0 only completes
    the model)."""
    return lambda t, add, zero=0: axioms.check_ring_axioms(
        TwoOpModel(t.order, add, t, zero), variant
    )


def _forced(table, pos, mask) -> AxiomResult:
    cell = table.cells[pos]
    if cell != mask:
        return AxiomResult(False, Witness("forced", divmod(pos, table.order), cell, mask))
    return AxiomResult(True)


def _equivariant(table, perm) -> AxiomResult:
    n = table.order
    for x in range(n):
        for y in range(n):
            lhs = table.cell(perm[x], perm[y])
            rhs = mask_image(table.cell(x, y), perm)
            if lhs != rhs:
                return AxiomResult(False, Witness("equivariant-under", (x, y), lhs, rhs))
    return AxiomResult(True)


def _negation(table, c) -> AxiomResult:
    if constraint_holds(table, c):
        return AxiomResult(False, Witness("not", (), 0, 0))
    return AxiomResult(True)


# descriptor tag -> check(table, *arguments) -> AxiomResult
_RESULTS = {
    # looked up per call, so a wrapper installed on axioms.check_law sees it
    "law": lambda t, law: axioms.check_law(t, law),
    "identity-at": axioms.check_identity_element,
    "polysymmetry-at": axioms.check_polysymmetry,
    "unique-opposite-at": axioms.check_unique_opposite,
    "reversibility-at": axioms.check_reversibility_canonical,
    "opposite-additivity-at": axioms.check_opposite_additivity,
    "scalar-zero-at": axioms.check_scalar_zero,
    "reversibility-poly-at": axioms.check_reversibility_poly,
    "divisions-nonempty": _divisions_nonempty,
    "singleton-cells": _singleton_cells,
    "forced": _forced,
    "equivariant-under": _equivariant,
    "distributive-inclusion-over": _over("distributive-inclusion"),
    "sign-rule-over": _over("sign-rule"),
    "not": _negation,
}


def constraint_result(table: HyperTable, c) -> AxiomResult:
    """The verdict of one descriptor, with its witness on failure; raises
    PreconditionError when the descriptor's precondition fails."""
    check = _RESULTS.get(c[0])
    if check is None:
        raise ValueError(f"unknown constraint descriptor: {c!r}")
    return check(table, *c[1:])


def constraint_holds(table: HyperTable, c) -> bool:
    try:
        return constraint_result(table, c).holds
    except PreconditionError:
        return False


def satisfies_all(table: HyperTable, constraints) -> bool:
    return all(constraint_holds(table, c) for c in constraints)


def table_kind(constraints) -> str:
    """The table space a descriptor conjunction searches: compositions
    exactly when ("singleton-cells",) is among the descriptors."""
    return KIND_COMPOSITION if ("singleton-cells",) in constraints else KIND_HYPER


def value_order(order: int, kind: str) -> tuple[int, ...]:
    if kind == KIND_COMPOSITION:
        return tuple(1 << i for i in range(order))
    return key_sorted_masks(order)


def space_size(order: int, kind: str) -> int:
    return len(value_order(order, kind)) ** (order * order)


# -- pure engine ---------------------------------------------------------------


def _pure_task(_task, order, constraints):
    """Every constraint-satisfying table of the raw space, in canonical order."""
    kind = table_kind(constraints)
    cells = product(value_order(order, kind), repeat=order * order)
    tables = (HyperTable(order, cc, kind) for cc in cells)
    return [t.cells for t in tables if satisfies_all(t, constraints)], 0


# -- vector engine (order 3, hyper kind, empty cells allowed) ------------------
#
# A chunk fixes the first row (head) of the table; its 8^6 tails are the last
# six cells.  Tail cell k is a broadcast view of the cell-set codes on axis k
# of an (8,)*6 shape, so tail digit k is axis k and the C order of a full mask
# is the canonical tail order.  Each intermediate is only as large as the
# axes it reads; a mask broadcasts to the full shape only where it reads all
# six.  The module arrays are read-only, as every chunk shares them.


def _v3_axis(values, k):
    """One value per cell-set code, as a read-only view on tail axis k."""
    values.setflags(write=False)
    return values.reshape(tuple(8 if j == k else 1 for j in range(6)))


_V3_CODE_TO_MASK = np.array(key_sorted_masks(3), dtype=np.uint8)  # digit -> mask
_V3_TAILS = 8 ** 6
_V3_TAIL_SHAPE = (8,) * 6
_V3_TAIL_CELLS = tuple(_v3_axis(_V3_CODE_TO_MASK, k) for k in range(6))
# bit x of each cell-set code, built without a numpy ufunc: the first call of
# each one at import would map its code into every process
_V3_CODE_BITS = [np.array([m >> x & 1 for m in key_sorted_masks(3)], dtype=bool) for x in range(3)]
# _V3_BIT_PLANES[k][x]: bit x of tail cell k
_V3_BIT_PLANES = tuple(tuple(_v3_axis(_V3_CODE_BITS[x], k) for x in range(3)) for k in range(6))

_V3_HEAD_BITS = tuple(tuple(bool(m >> x & 1) for x in range(3)) for m in range(8))

_TRIPLE_LAWS = {("law", law) for law in axioms.TRIPLE_LAW_IDS}


def vectorizable(c) -> bool:
    tag = c[0]
    if tag == "law":
        return c[1] in axioms.LAW_IDS
    if tag == "not":
        return vectorizable(c[1])
    return tag in {
        "identity-at",
        "polysymmetry-at",
        "unique-opposite-at",
        "scalar-zero-at",
        "divisions-nonempty",
        "distributive-inclusion-over",
        "sign-rule-over",
    }


def _v3_bits(cells, i):
    """The membership bits of chunk cell i: bools or bit planes."""
    return _V3_HEAD_BITS[cells[i]] if i < 3 else _V3_BIT_PLANES[i - 3]


def _v3_any(bits):
    """Disjunction of bits, the bools folded first."""
    out = np.False_
    for b in bits:
        if b is True:
            return np.True_
        if b is not False:
            out = b if out is np.False_ else out | b
    return out


def _v3_both(a, b):
    """Conjunction of two bits, the bools folded first."""
    if a is False or b is False:
        return False
    if a is True:
        return b
    return a if b is True else a & b


def _v3_triple_law(cells, law):
    """Mask of a triple law over the sides of `_law_triples`: a side is the
    union of its line's cells at the element bits of its outer cell, and
    each side is computed once."""
    if cells[3] is _V3_TAIL_CELLS[0]:
        bits = [_v3_bits(cells, i) for i in range(9)]
    else:
        bits = [_v3_bits(cells, i) for i in range(3)]
        bits += [[(cell >> a) & 1 for a in range(3)] for cell in cells[3:]]

    def side(p, line):
        out = 0
        for b, q in zip(bits[p], _line_cells(3, line)):
            if b is True:
                out = out | cells[q]
            elif b is not False:
                out = out | b * cells[q]
        return out

    parts = []
    for _, _, pa, la, pb, lb in _law_triples(law, 3):
        a, b = side(pa, la), side(pb, lb)
        parts.append((a & b) != 0 if law == "weakly-associative" else a == b)
    return _v3_conj(parts)


def _v3_conj(parts):
    """Conjunction of masks: the masks of one shape (axis group) first, then
    the groups smallest first, so only the last steps broadcast to the widest
    shape.  Among equal sizes a group on later axes goes first, which keeps
    the innermost loops long.  uint8 views: numpy's bool AND is slow over an
    operand broadcast along its inner loop."""
    groups = {}
    for p in parts:
        if isinstance(p, np.ndarray):
            p = p.view(np.uint8)
            group = groups.get(p.shape)
            if group is None:
                groups[p.shape] = [p]
            else:
                group.append(p)
        elif not p:
            return np.False_
    out = None
    for shape in sorted(groups, key=lambda s: (math.prod(s), s)):
        group = groups[shape]
        acc = group[0]
        if len(group) > 1:
            acc = acc & group[1]
            for p in group[2:]:
                acc &= p
        out = acc if out is None else out & acc
    return np.True_ if out is None else out.view(bool)


def _v3_predicate(cells, c):
    """Boolean array (or numpy bool) for one vectorizable constraint; its
    shape broadcasts over the tail axes that the constraint reads."""
    tag = c[0]
    if tag == "law":
        law = c[1]
        if law == "cellwise-nonempty":
            return _v3_conj([cells[i] != 0 for i in range(9)])
        if law == "total":
            return _v3_conj([cells[i] == 7 for i in range(9)])
        if law == "degenerate":
            return _v3_conj([cells[i] == 0 for i in range(9)])
        if law == "commutative":
            return _v3_conj(
                [cells[3 * x + y] == cells[3 * y + x] for x in range(3) for y in range(x + 1, 3)]
            )
        if law == "reproductive":
            parts = []
            for x in range(3):
                row = cells[3 * x] | cells[3 * x + 1] | cells[3 * x + 2]
                col = cells[x] | cells[3 + x] | cells[6 + x]
                parts.append(row == 7)
                parts.append(col == 7)
            return _v3_conj(parts)
        if law in axioms.TRIPLE_LAW_IDS:
            return _v3_triple_law(cells, law)
    if tag == "identity-at":
        e = c[1]
        parts = []
        for x in range(3):
            parts.append(cells[3 * e + x] == cells[3 * x + e])
            parts.append(_v3_bits(cells, 3 * e + x)[x])
        return _v3_conj(parts)
    if tag == "polysymmetry-at":
        e, weak = c[1], c[2]
        bit = 1 << e
        parts = []
        for x in range(3):
            pairs = []
            for xp in range(3):
                p, q = 3 * x + xp, 3 * xp + x
                if weak:
                    pairs.append((_v3_bits(cells, p)[e], _v3_bits(cells, q)[e]))
                else:
                    pairs.append((cells[p] == bit, cells[q] == bit))
            parts.append(_v3_any(_v3_both(a, b) for a, b in pairs))
        return _v3_conj(parts)
    if tag == "unique-opposite-at":
        z = c[1]
        parts = []
        for x in range(3):
            cnt = 0
            for xp in range(3):
                cnt = cnt + ((cells[3 * x + xp] >> z) & 1)
            parts.append(cnt == 1)
        return _v3_conj(parts)
    if tag == "scalar-zero-at":
        z = c[1]
        parts = []
        for x in range(3):
            parts.append(cells[3 * x + z] == 1 << x)
            parts.append(cells[3 * z + x] == 1 << x)
        return _v3_conj(parts)
    if tag == "divisions-nonempty":
        return v3_divisions_nonempty(cells)
    if tag == "distributive-inclusion-over":
        return v3_distributive_inclusion(cells, c[1])
    if tag == "sign-rule-over":
        return v3_sign_rule(cells, axioms.group_inverse_map(c[1], c[2]))
    if tag == "not":
        return ~_v3_predicate(cells, c[1])
    raise ValueError(f"constraint not vectorizable: {c!r}")


def v3_chunk_cells(head_digits):
    """Cell views for one chunk: the first row as ints, the six tail cells as
    broadcast views on the factored tail axes."""
    head = tuple(int(_V3_CODE_TO_MASK[d]) for d in head_digits)
    return list(head) + list(_V3_TAIL_CELLS)


def _v3_tails_at(idx):
    """The six tail cells of the flat tail indices `idx`: digit k of an index
    in base 8, most significant first, is tail cell k."""
    return [_V3_CODE_TO_MASK[(idx >> (3 * (5 - k))) & 7] for k in range(6)]


def _v3_flat(mask):
    """A mask flattened to the 8^6 tails."""
    return np.broadcast_to(mask, _V3_TAIL_SHAPE).reshape(-1)


def v3_eval(cells, constraints):
    """Conjunction of vectorizable constraints over one chunk: a numpy bool
    for all of its 8^6 tails, or a bool array that broadcasts to the tail
    shape (8,)*6, whose C order is the canonical tail order.

    The constraints other than the triple laws run on the factored tail axes.
    The triple laws run last, and when the mask is already an array only on
    the surviving tails: their indices are decoded into flat cell arrays.
    """
    ordered = [c for c in constraints if c not in _TRIPLE_LAWS] + [
        c for c in constraints if c in _TRIPLE_LAWS
    ]
    mask, idx = np.True_, None
    for c in ordered:
        if c in _TRIPLE_LAWS and idx is None and isinstance(mask, np.ndarray):
            idx = np.flatnonzero(_v3_flat(mask))
            cells, mask = list(cells[:3]) + _v3_tails_at(idx), np.True_
        mask = _v3_conj([mask, _v3_predicate(cells, c)])
        if not mask.any():
            return np.False_
    if idx is not None:
        survivors, mask = mask, np.zeros(_V3_TAILS, dtype=bool)
        mask[idx] = survivors
        mask = mask.reshape(_V3_TAIL_SHAPE)
    return mask


def v3_divisions_nonempty(cells):
    """Every right and left division non-empty, computed membership-wise
    (independent of the reproductive row/column-union formulation)."""
    parts = []
    for x in range(3):
        for y in range(3):
            parts.append(_v3_any(_v3_bits(cells, 3 * z + y)[x] for z in range(3)))
            parts.append(_v3_any(_v3_bits(cells, 3 * y + z)[x] for z in range(3)))
    return _v3_conj(parts)


def v3_sign_rule(cells, neg):
    """Mask for a(-b) = (-a)b = -(ab), with `neg` the additive negation."""
    neg_lut = np.array([mask_image(m, neg) for m in range(8)], dtype=np.uint8)
    parts = []
    for a in range(3):
        for b in range(3):
            image = neg_lut[cells[3 * a + b]]
            parts.append(cells[3 * a + neg[b]] == image)
            parts.append(cells[3 * neg[a] + b] == image)
    return _v3_conj(parts)


def v3_distributive_inclusion(cells, add: HyperTable):
    """Mask for both inclusion distributivities over the additive group."""
    addc = np.array(_complex_sums(add), dtype=np.uint8)
    parts = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                d = singleton_value(add.cell(b, c))
                rhs = addc[cells[3 * a + b], cells[3 * a + c]]
                parts.append((cells[3 * a + d] & ~rhs) == 0)
                rhs = addc[cells[3 * b + a], cells[3 * c + a]]
                parts.append((cells[3 * d + a] & ~rhs) == 0)
    return _v3_conj(parts)


def _complex_sums(add: HyperTable):
    """sums[m1][m2]: the complex sum of two cell sets under `add`."""
    size = 1 << add.order
    return [[complex_product(add, m1, m2) for m2 in range(size)] for m1 in range(size)]


def v3_decode(head_digits, i) -> tuple:
    """The cell tuple of tail index i in the chunk with the given head."""
    head = tuple(int(_V3_CODE_TO_MASK[d]) for d in head_digits)
    return head + tuple(int(cell) for cell in _v3_tails_at(i))


def v3_count_chunk(head_digits, runs, conclusion, biconditional=False):
    """Count mode over one chunk: (premise tables, first failure or None).

    The premises are a disjunction of descriptor conjunctions.  A failure is
    a premise table where some conclusion descriptor fails or, for a
    biconditional, where the two conclusion descriptors disagree.  Only a
    chunk with a failure is flattened.
    """
    cells = v3_chunk_cells(head_digits)
    premise = np.False_
    for run in runs:
        premise = premise | (v3_eval(cells, list(run)) if run else np.True_)
    if biconditional:
        a, b = (v3_eval(cells, [c]) for c in conclusion)
        bad = a ^ b
    else:
        bad = ~v3_eval(cells, list(conclusion))
    if premise is not np.True_:
        bad = premise & bad
    count = int(np.count_nonzero(premise)) * _V3_TAILS // np.size(premise)
    if not bad.any():
        return count, None
    return count, v3_decode(head_digits, int(np.flatnonzero(_v3_flat(bad))[0]))


def v3_collect_chunk(head_digits, constraints):
    """Collect mode over one chunk: the satisfying cell tuples in canonical
    order.  Non-vectorizable constraints filter the vector survivors."""
    vec = [c for c in constraints if vectorizable(c)]
    final = [c for c in constraints if not vectorizable(c)]
    cells = v3_chunk_cells(head_digits)
    head = tuple(cells[:3])
    mask = v3_eval(cells, vec)
    if not mask.any():
        return []
    idx = np.flatnonzero(_v3_flat(mask))
    out = []
    for tail in np.stack(_v3_tails_at(idx), axis=1).tolist():
        cell_tuple = head + tuple(tail)
        if final and not satisfies_all(HyperTable(3, cell_tuple), final):
            continue
        out.append(cell_tuple)
    return out


def vector_sweep3_tasks():
    """Chunk task list in canonical head order."""
    return list(product(range(8), repeat=3))


# -- backtracking engine -------------------------------------------------------


@lru_cache(maxsize=None)
def _image_lut(order: int, perm: tuple) -> tuple[int, ...]:
    return tuple(mask_image(m, perm) for m in range(1 << order))


def identity_lut(order: int) -> tuple[int, ...]:
    return tuple(range(1 << order))


@dataclass
class SearchSpec:
    """The order and descriptors of one backtracking search."""

    order: int
    constraints: tuple = ()


def _triple_sides(law, x, y, z, n):
    """The two sides of a triple law at (x, y, z), each as (outer cell,
    line): the side is the union of the line's cells at the elements of the
    outer cell.  Lines 0..n-1 are the rows, n..2n-1 the columns."""
    if law in ("associative", "weakly-associative"):  # (xy)z, x(yz)
        return (x * n + y, n + z), (y * n + z, x)
    if law == "left-inverted-associative":  # (xy)z, (zy)x
        return (x * n + y, n + z), (z * n + y, n + x)
    return (y * n + z, x), (y * n + x, z)  # x(yz), z(yx)


def _line_cells(n, line):
    if line < n:
        return tuple(range(line * n, line * n + n))
    return tuple(range(line - n, n * n, n))


@lru_cache(maxsize=None)
def _law_triples(law, n):
    """The triples of a law as (dependency mask, outer mask, outer a, line a,
    outer b, line b), masks over cell positions.  An inverted law reads the
    same pair of sides at (x, y, z) and (z, y, x), and equal sides at x = z,
    so it keeps x < z."""
    out = []
    for x, y, z in product(range(n), repeat=3):
        if law in ("left-inverted-associative", "right-inverted-associative") and x >= z:
            continue
        (pa, la), (pb, lb) = _triple_sides(law, x, y, z, n)
        outer = 1 << pa | 1 << pb
        deps = outer
        for p in _line_cells(n, la) + _line_cells(n, lb):
            deps |= 1 << p
        out.append((deps, outer, pa, la, pb, lb))
    return tuple(out)


def _strict_watch(entries):
    """A strict triple law over compiled entries (see `Backtracker`).  An
    incomplete side is only known from below, so a triple fails when both
    sides are complete and differ, or when one complete side misses an
    element the other side already has."""

    def watch(cur):
        for pa, sa, ua, pb, sb, ub, ga, gb in entries:
            ma = cur[pa]
            mb = cur[pb]
            if not (ma & ga or mb & gb):
                continue
            ia = ma & ua
            ib = mb & ub
            if ia and ib:
                continue
            la = 0
            for q in sa[ma]:
                la |= cur[q]
            lb = 0
            for q in sb[mb]:
                lb |= cur[q]
            if ia:
                if la & ~lb:
                    return False
            elif ib:
                if lb & ~la:
                    return False
            elif la != lb:
                return False
        return True

    return watch


def _weak_watch(written, entries):
    """Weak associativity over compiled entries.  An empty outer cell makes
    its side empty, which fails every triple it is in, so each written cell
    must be non-empty; given that, a side over a non-empty outer cell is
    non-empty once complete, and a triple fails only when both sides are
    complete and disjoint."""

    def watch(cur):
        for p in written:
            if not cur[p]:
                return False
        for pa, sa, ua, pb, sb, ub, ga, gb in entries:
            ma = cur[pa]
            mb = cur[pb]
            if ma & ua or mb & ub or not (ma & ga or mb & gb):
                continue
            la = 0
            for q in sa[ma]:
                la |= cur[q]
            lb = 0
            for q in sb[mb]:
                lb |= cur[q]
            if not la & lb:
                return False
        return True

    return watch


def _union_watch(lines, full):
    """Reproductivity: the union of each complete line is the carrier."""

    def watch(cur):
        for cells in lines:
            union = 0
            for p in cells:
                union |= cur[p]
            if union != full:
                return False
        return True

    return watch


def _opposite_watch(bit, rows):
    """Unique opposites: no row has two set cells that hold the element
    `bit`, and a complete row has one."""

    def watch(cur):
        for cells, complete in rows:
            count = 0
            for p in cells:
                if cur[p] & bit:
                    count += 1
            if count > 1 or complete and not count:
                return False
        return True

    return watch


def _poly_watch(bit, keep, witnesses):
    """Polysymmetry at the element `bit`: per x, some x' whose set cells
    among x*x' and x'*x all equal {e} (`keep` = full) or all hold e
    (`keep` = bit, the weak reading)."""

    def watch(cur):
        for candidates in witnesses:
            for cells in candidates:
                for p in cells:
                    if cur[p] & keep != bit:
                        break
                else:
                    break
            else:
                return False
        return True

    return watch


def _inclusion_watch(sums, entries, lines):
    """Inclusion distributivity over an additive group: a(b+c) in ab+ac and
    (b+c)a in ba+ca on the (lhs, left, right) entries, and no line holds both
    an empty and a non-empty product.  The emptiness rule is sound because
    the addition is a group: every d is b + (-b+d), so ab = {} gives ad in
    ab + a(-b+d) = {}, and one empty product empties its whole row (its
    column likewise)."""

    def watch(cur):
        for lhs, left, right in entries:
            if cur[lhs] & ~sums[cur[left]][cur[right]]:
                return False
        for cells in lines:
            seen = 0  # 1: a non-empty cell, 2: an empty one
            for p in cells:
                seen |= 1 if cur[p] else 2
            if seen == 3:
                return False
        return True

    return watch


def _reversibility_device(n, zero):
    """Canonical reversibility at `zero` on a complete cell list: the
    verdict of `constraint_holds`.  The opposite of y is the one y' whose
    cell y*y' holds zero; a row with no such cell or with two fails, as the
    predicate's precondition does.  Then z in x*y needs x in z*y'."""
    bit = 1 << zero
    rows = tuple(range(0, n * n, n))
    members = tuple(tuple(z * n for z in range(n) if m >> z & 1) for m in range(1 << n))

    def device(cur):
        opp = []
        for r in rows:
            found = -1
            for y in range(n):
                if cur[r + y] & bit:
                    if found >= 0:
                        return False
                    found = y
            if found < 0:
                return False
            opp.append(found)
        for x, r in enumerate(rows):
            xb = 1 << x
            for y in range(n):
                yp = opp[y]
                for zr in members[cur[r + y]]:
                    if not cur[zr + yp] & xb:
                        return False
        return True

    return device


@lru_cache(maxsize=None)
def _line_subsets(n):
    """(lines, subsets) of order n: the rows, then the columns, and per line
    and mask m the cells line[i] with i in m, which `_selection` reads per
    set of known cells."""
    lines = tuple(_line_cells(n, line) for line in range(2 * n))
    subsets = tuple(
        tuple(tuple(p for i, p in enumerate(line) if m >> i & 1) for m in range(1 << n))
        for line in lines
    )
    return lines, subsets


# descriptor tags that the backtracker has neither a slot nor a leaf device
# for: only the leaf check reads them, and it runs them first
_UNPRUNED = {
    "opposite-additivity-at",
    "reversibility-poly-at",
    "divisions-nonempty",
    "not",
}


class Backtracker:
    """Row-major DFS over orbit representatives with compiled pruning checks.

    The DFS writes its slots in a fixed order, so when slot k is written the
    cells set are exactly the prefill and the cells of slots 0..k.  The
    checks that run after slot k (`_checks_after`, -1 for the prefill) are
    compiled once per slot, on first use, against that set, and read no
    other cell.  What does not depend on the slot is built with the
    backtracker: per triple law (weak, its `_law_triples`), whether
    reproductivity is asked, the element bit of each unique-opposite
    descriptor, (bit, keep) per polysymmetry (see `_poly_watch`), and per
    inclusion distributivity its complex sums and (cell mask, lhs, left,
    right) entries.  Each check returns False when no completion of the
    partial table can satisfy its constraint, and covers only what the
    slot's cells can change; the rest passed at an earlier slot:

    * reproductivity, on each line the slot completes;
    * unique opposites, on the set cells of each row the slot writes to;
    * polysymmetry, per x whose row or column the slot writes to, unless
      some x' still has both x*x' and x'*x unset;
    * inclusion distributivity, on the triples of cells that the slot
      completes, and its emptiness rule on the set cells of each line the
      slot writes to;
    * per triple law, the triples that a cell written by the slot can
      decide.  A triple has two sides, each an outer cell and the row or
      column that its elements index.  A triple whose outer cell is still
      unset is dropped: its side is empty and incomplete, which no strict
      law fails on, and weak associativity fails on it only when the other
      outer cell is empty, which its empty-cell check catches.  Each side
      keeps, per mask, the line cells already set and the bits of the
      unset ones.  A triple runs only when the slot wrote one of its outer
      cells or a line cell that an outer cell's mask selects; the others
      read nothing that changed since the slot that last decided them.

    The unique-opposite and polysymmetry checks are the slot's filters
    (`_slot`): they read a written cell w only as w & bit (opposites) or
    w & keep == bit (polysymmetry), so the values of the slot's domain
    whose writes agree on those bits, its signature classes (`_classes`),
    share a verdict.  On entry the slot writes the first value of each class
    and runs the filters once per class.  It then walks its domain: a value
    of a failed class is written nowhere and checked no further, and a kept
    value runs only the other checks.  Each value still counts one node, and
    a rejected one one pruned node, at its place in the walk, so `nodes` and
    `pruned` are those of a search that wrote and checked every value, at
    every table the search yields too.

    A leaf is a complete cell list.  The leaf devices (`leaf_devices`, one
    per canonical reversibility descriptor, see `_reversibility_device`)
    read it first, and a leaf that one rejects is dropped before a table is
    built; it counts no node and no pruned node.  A table is emitted only
    after `satisfies_all` re-checks every descriptor on it, those without a
    device first (`leaf_order`): the pruning and the leaf devices already
    passed the others on most tables that reach it."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        self.leaf_order = sorted(spec.constraints, key=lambda c: c[0] not in _UNPRUNED)
        n = spec.order
        self.n = n
        self.n2 = n * n
        self.kind = table_kind(spec.constraints)
        self.values = value_order(n, self.kind)
        self.full = full_mask(n)

        forced = {}
        required = {}

        links = {}
        for c in spec.constraints:
            if c == ("law", "commutative"):
                for x in range(n):
                    for y in range(n):
                        links.setdefault(x * n + y, []).append(
                            (y * n + x, identity_lut(n))
                        )
            elif c[0] == "identity-at":
                e = c[1]
                for x in range(n):
                    links.setdefault(e * n + x, []).append(
                        (x * n + e, identity_lut(n))
                    )
                    links.setdefault(x * n + e, []).append(
                        (e * n + x, identity_lut(n))
                    )
                    bit = 1 << x
                    required[e * n + x] = required.get(e * n + x, 0) | bit
                    required[x * n + e] = required.get(x * n + e, 0) | bit
            elif c[0] == "sign-rule-over":
                # a(-b) = (-a)b = -(ab): each cell fixes its row and column
                # negations
                neg = axioms.group_inverse_map(c[1], c[2])
                lut = _image_lut(n, neg)
                for x in range(n):
                    for y in range(n):
                        links.setdefault(x * n + y, []).extend(
                            ((neg[x] * n + y, lut), (x * n + neg[y], lut))
                        )
            elif c[0] == "equivariant-under":
                perm = c[1]
                lut = _image_lut(n, perm)
                for x in range(n):
                    for y in range(n):
                        links.setdefault(x * n + y, []).append((perm[x] * n + perm[y], lut))
            elif c[0] == "forced":
                forced[c[1]] = c[2]
            elif c[0] == "scalar-zero-at":
                z = c[1]
                for x in range(n):
                    forced[x * n + z] = 1 << x
                    forced[z * n + x] = 1 << x
                forced[z * n + z] = 1 << z
            elif c == ("law", "total"):
                for pos in range(self.n2):
                    forced[pos] = self.full
            elif c == ("law", "degenerate"):
                for pos in range(self.n2):
                    forced[pos] = 0

        # orbit closure: every position reachable from its representative
        self.orbits = self._close_orbits(links)
        self.forced = forced
        self.required = required
        self._build_domains()
        self.triple_laws = tuple(
            (c[1] == "weakly-associative", _law_triples(c[1], n))
            for c in spec.constraints
            if c in _TRIPLE_LAWS
        )
        self.reproductive = ("law", "reproductive") in spec.constraints
        self.opposites = tuple(1 << c[1] for c in spec.constraints if c[0] == "unique-opposite-at")
        self.polysymmetries = tuple(
            (1 << c[1], 1 << c[1] if c[2] else self.full)
            for c in spec.constraints
            if c[0] == "polysymmetry-at"
        )
        self.inclusions = []
        for add in (c[1] for c in spec.constraints if c[0] == "distributive-inclusion-over"):
            entries = []
            for x, y, z in product(range(n), repeat=3):  # x(y+z) in xy+xz, (y+z)x in yx+zx
                s = singleton_value(add.cell(y, z))
                for e in ((x * n + s, x * n + y, x * n + z), (s * n + x, y * n + x, z * n + x)):
                    entries.append((1 << e[0] | 1 << e[1] | 1 << e[2], *e))
            self.inclusions.append((_complex_sums(add), tuple(entries)))
        self.lines, self._subsets = _line_subsets(n)
        self.leaf_devices = tuple(
            _reversibility_device(n, c[1])
            for c in dict.fromkeys(spec.constraints)
            if c[0] == "reversibility-at"
        )
        self._selections = {}
        self._checks = [None] * (len(self.slots) + 1)

    def _close_orbits(self, links):
        seen = [False] * self.n2
        orbits = []
        for start in range(self.n2):
            if seen[start]:
                continue
            members = self._orbit(links, start)
            # orbits of symmetric generators (commutativity, involutions and
            # group actions) partition the positions, so the first unseen
            # position is its orbit's least and reps come first row-major
            if min(members) != start:
                raise ValueError("link generators must be symmetric")
            for pos in members:
                seen[pos] = True
            orbits.append((start, sorted(members.items())))
        return orbits

    def _orbit(self, links, start):
        """Link closure from `start`: {pos: [luts that reach pos]}."""
        ident = identity_lut(self.n)
        members = {start: [ident]}
        frontier = [(start, ident)]
        while frontier:
            pos, lut = frontier.pop()
            for dst, gen_lut in links.get(pos, ()):
                new_lut = tuple(gen_lut[lut[v]] for v in range(len(lut)))
                luts = members.setdefault(dst, [])
                if new_lut not in luts:
                    luts.append(new_lut)
                    frontier.append((dst, new_lut))
        return members

    def _build_domains(self):
        nonempty = ("law", "cellwise-nonempty") in self.spec.constraints
        self.slots = []
        self.slot_writes = []  # per slot: list of (pos, lut)
        self.domains = []
        self.prefill = {}
        for rep, members in self.orbits:
            writes = []
            for pos, luts in members:
                for lut in luts:
                    writes.append((pos, lut))
            dom = []
            for v in self.values:
                ok = True
                out = {}
                for pos, lut in writes:
                    w = lut[v]
                    if pos in out and out[pos] != w:
                        ok = False
                        break
                    out[pos] = w
                    req = self.required.get(pos, 0)
                    if w & req != req:
                        ok = False
                        break
                    if pos in self.forced and self.forced[pos] != w:
                        ok = False
                        break
                    if nonempty and w == 0:
                        ok = False
                        break
                if ok:
                    dom.append(v)
            # a fully pinned orbit's domain is its pin, or empty when the pins
            # contradict, which leaves the slot to make the search empty
            if dom and all(pos in self.forced for pos, _ in writes):
                for pos, lut in writes:
                    self.prefill[pos] = lut[dom[0]]
                continue
            self.slots.append(rep)
            self.slot_writes.append(writes)
            self.domains.append(dom)

    def _line_bits(self, mask):
        """Per line, the bits i of its cells in the cell mask `mask`."""
        return [sum(1 << i for i, p in enumerate(line) if mask >> p & 1) for line in self.lines]

    def _selection(self, line, known):
        """Per mask m, the cells line[i] with i in m and in `known`."""
        sel = self._selections.get((line, known))
        if sel is None:
            subsets = self._subsets[line]
            sel = tuple(subsets[m & known] for m in range(1 << self.n))
            self._selections[line, known] = sel
        return sel

    def _checks_after(self, depth):
        """Every check that runs after slot `depth` (-1: the prefill) is
        written, its filters first."""
        filters, checks, _ = self._slot(depth)
        return filters + checks

    def _slot(self, depth):
        """(filters, remaining checks, (class per value, class
        representatives)) of slot `depth`, compiled on first use."""
        slot = self._checks[depth + 1]
        if slot is None:
            slot = self._checks[depth + 1] = self._compile(depth)
        return slot

    def _classes(self, depth, features):
        """The slot's domain grouped by the signature that its filters read:
        per write (pos, lut) and per (mask, want) of `features`, whether
        lut[v] & mask == want.  Returns (class index per value mask, the
        first value of each class in domain order)."""
        writes = self.slot_writes[depth]
        index, classes, reps = {}, [None] * (1 << self.n), []
        for v in self.domains[depth]:
            sig = tuple(lut[v] & mask == want for _, lut in writes for mask, want in features)
            if sig not in index:
                index[sig] = len(reps)
                reps.append(v)
            classes[v] = index[sig]
        return classes, tuple(reps)

    def _compile(self, depth):
        """The filters and the remaining checks of slot `depth` (see `_slot`)."""
        if depth < 0:
            written = tuple(self.prefill)
        else:
            written = tuple(dict.fromkeys(pos for pos, _ in self.slot_writes[depth]))
        if not written:
            return (), (), None
        n, full = self.n, self.full
        wmask = sum(1 << pos for pos in written)
        known = sum(1 << pos for pos in self.prefill)
        for writes in self.slot_writes[: depth + 1]:
            for pos, _ in writes:
                known |= 1 << pos
        known_bits = self._line_bits(known)
        written_bits = self._line_bits(wmask)
        sides = [
            (self._selection(line, bits), full ^ bits) for line, bits in enumerate(known_bits)
        ]
        checks = []
        # the filters read each written cell w only through w & mask == want
        filters, features = [], []
        touched = []  # per line the slot wrote to: its set cells, and whether it is complete
        if self.reproductive or self.opposites or self.inclusions:  # the line devices
            touched = [
                (line, sides[line][0][full], not sides[line][1])
                for line in range(2 * n)
                if written_bits[line]
            ]
        if self.reproductive:
            complete = tuple(cells for _, cells, done in touched if done)
            if complete:
                checks.append(_union_watch(complete, full))
        if self.opposites:
            rows = tuple((cells, done) for line, cells, done in touched if line < n)
            filters += [_opposite_watch(bit, rows) for bit in self.opposites]
            features += [(bit, bit) for bit in self.opposites]
        if self.polysymmetries:
            witnesses = []  # per x whose row or column the slot wrote to: per x', its set cells
            for x in range(n):
                if written_bits[x] or written_bits[n + x]:
                    candidates = [
                        tuple(p for p in {x * n + xp, xp * n + x} if known >> p & 1)
                        for xp in range(n)
                    ]
                    if all(candidates):  # else some x' is still a candidate whatever is set
                        witnesses.append(candidates)
            if witnesses:
                filters += [_poly_watch(bit, keep, witnesses) for bit, keep in self.polysymmetries]
                features += [(keep, bit) for bit, keep in self.polysymmetries]
        lines = tuple(cells for _, cells, _ in touched if len(cells) > 1)
        for sums, entries in self.inclusions:
            entries = tuple(e for mask, *e in entries if mask & wmask and mask & known == mask)
            if entries or lines:
                checks.append(_inclusion_watch(sums, entries, lines))
        for weak, triples in self.triple_laws:
            entries = []
            for deps, outer, pa, la, pb, lb in triples:
                if deps & wmask and outer & known == outer:
                    if outer & wmask:  # an outer cell was written
                        ga = gb = -1
                    else:  # runs when an outer mask selects a written line cell
                        ga, gb = written_bits[la], written_bits[lb]
                    entries.append((pa, *sides[la], pb, *sides[lb], ga, gb))
            if weak:
                checks.append(_weak_watch(written, tuple(entries)))
            elif entries:
                checks.append(_strict_watch(tuple(entries)))
        # the prefill has no domain: `search` runs its filters as checks
        classes = None
        if filters and depth >= 0:
            classes = self._classes(depth, tuple(dict.fromkeys(features)))
        return tuple(filters), tuple(checks), classes

    # -- search ----------------------------------------------------------------

    def search(self, first_value_index=None):
        """Yield satisfying cell tuples; also counts pruned nodes in self.pruned."""
        self.pruned = 0
        self.nodes = 0
        cur = [None] * self.n2
        for pos, v in self.prefill.items():
            cur[pos] = v
        for fn in self._checks_after(-1):
            if not fn(cur):
                self.pruned += 1
                return
        if not self.slots:
            yield from self._emit(cur)
            return
        domains = self.domains
        if first_value_index is not None:  # a shard: the first slot's one value
            domains = [domains[0][first_value_index : first_value_index + 1], *domains[1:]]
        yield from self._dfs(cur, 0, domains)

    def _dfs(self, cur, depth, domains):
        if depth == len(self.slots):
            yield from self._emit(cur)
            return
        writes = self.slot_writes[depth]
        domain = domains[depth]
        if not domain:
            return
        # every value in the domain writes cells unset at this slot, and
        # agrees with itself where the slot writes a cell twice (see
        # _build_domains); no check reads a cell that is unset at its slot,
        # so a deeper slot's stale cells need no reset
        filters, checks, classes = self._slot(depth)
        kept = []
        if filters:  # one filter verdict per class, from its first value
            classes, reps = classes
            for rep in reps:
                for pos, lut in writes:
                    cur[pos] = lut[rep]
                for fn in filters:
                    if not fn(cur):
                        kept.append(False)
                        break
                else:
                    kept.append(True)
        for v in domain:
            self.nodes += 1
            if kept and not kept[classes[v]]:  # its class failed: write nothing
                self.pruned += 1
                continue
            for pos, lut in writes:
                cur[pos] = lut[v]
            for fn in checks:
                if not fn(cur):
                    self.pruned += 1
                    break
            else:
                yield from self._dfs(cur, depth + 1, domains)

    def _emit(self, cur):
        for fn in self.leaf_devices:
            if not fn(cur):
                return
        table = HyperTable(self.n, tuple(cur), self.kind)
        if satisfies_all(table, self.leaf_order):
            yield table.cells


# -- sweep planner -------------------------------------------------------------

PURE = "pure"
VECTOR_COUNT = "vector-count"
VECTOR_COLLECT = "vector-collect"
BACKTRACK = "backtrack"
WITNESS_MAP = "witness-map"

# the highest order at which an oracle runs: above it no engine independent
# of the backtracker exists, so an oracle certifies nothing
ORACLE_CAP = 3


def plan_sweep(order, constraints, oracle=False, counts=False, pruned=False):
    """The engine for one sweep; every verifier and enumeration sweep asks here.

    * oracle, at orders up to ORACLE_CAP, above which every caller refuses
      it: pure at order <= 2 and for compositions (a ("singleton-cells",)
      descriptor selects that space, see `table_kind`); at order 3 vector
      count when only counts are needed and every constraint vectorizes,
      else vector collect, which filters its survivors through the
      constraints it cannot vectorize;
    * strict polysymmetry at some e at order >= 4, unless the caller asks
      for the pruned generator: the witness-map split, when every descriptor
      is invariant under the permutations that fix e (others, such as a
      `forced` pin, go to the backtracker);
    * the backtracker when the caller asks for the pruned generator, at
      order != 3, or when some constraint is not vectorizable (as
      ("singleton-cells",) is not);
    * otherwise at order 3: vector count when only the premise count and
      the first failure are needed; when the tables are, vector collect
      under weak polysymmetry, whose backtracker checks prune little, and
      the backtracker for every other set.
    """
    vector = all(vectorizable(c) for c in constraints)
    if oracle:
        if order <= 2 or table_kind(constraints) == KIND_COMPOSITION:
            return PURE
        return VECTOR_COUNT if counts and vector else VECTOR_COLLECT
    strict = [c[1] for c in constraints if c[0] == "polysymmetry-at" and not c[2]]
    # invariant under the permutations fixing e: laws, descriptors without
    # arguments, and `*-at` descriptors at e, which read no other element
    if not pruned and order >= 4 and strict and all(
        c[0] == "law" or len(c) == 1 or c[0].endswith("-at") and c[1] == strict[0]
        for c in constraints
    ):
        return WITNESS_MAP
    weak = any(c[0] == "polysymmetry-at" and c[2] for c in constraints)
    if pruned or order != 3 or not vector or not (counts or weak):
        return BACKTRACK
    return VECTOR_COUNT if counts else VECTOR_COLLECT


def sweep_tasks(engine, order, constraints):
    """(task function, tasks) of a table sweep on `engine`; each task returns
    (cell tuples, pruned nodes) and merge_sweep folds them in task order."""
    constraints = tuple(constraints)
    if engine == PURE:
        return partial(_pure_task, order=order, constraints=constraints), [None]
    if engine == VECTOR_COLLECT:
        return partial(_vector_collect_task, constraints=constraints), vector_sweep3_tasks()
    if engine == WITNESS_MAP:
        return _backtrack_task, _witness_map_tasks(order, constraints)
    if engine != BACKTRACK:
        raise ValueError(f"not a table engine: {engine!r}")
    spec_args = dict(order=order, constraints=constraints)
    if order <= 2:  # at most 256 tables: one in-process task beats a worker pool
        return _backtrack_task, [(spec_args, None)]
    bt = _backtracker(**spec_args)  # the shards split its first slot's domain
    shards = len(bt.domains[0]) if bt.slots else 1
    return _backtrack_task, [(spec_args, i) for i in range(shards)]


def merge_sweep(engine, order, constraints, results):
    """(cell tuples in canonical order, pruned nodes) from the task results."""
    cells = [cc for part, _ in results for cc in part]
    if engine == WITNESS_MAP:
        # the permutations fixing e relabel each task's tables onto the rest of
        # its orbit (`_witness_map_tasks`); a table is found once per map it admits
        poly = [c for c in constraints if c[0] == "polysymmetry-at"]
        (e,) = {c[1] for c in poly}
        perms = [p for p in permutations(range(order)) if p[e] == e]
        found = {apply_permutation(HyperTable(order, cc), p) for cc in cells for p in perms}
        cells = [t.cells for t in sorted(found, key=table_key) if satisfies_all(t, poly)]
    return cells, sum(p for _, p in results)


def _vector_collect_task(head_digits, constraints):
    return v3_collect_chunk(head_digits, constraints), 0


@lru_cache(maxsize=1)
def _backtracker(order, constraints):
    """One build per sweep and process: the probe that counts the shards and
    each pool worker's first shard of the sweep build it, later shards reuse it."""
    return Backtracker(SearchSpec(order, constraints))


def _backtrack_task(args):
    spec_args, first_index = args
    bt = _backtracker(**spec_args)
    return list(bt.search(first_index)), bt.pruned


def first_hit_task(args, accept=None):
    """The first cell tuple of one backtracker shard (a `sweep_tasks` task)
    whose table `accept` takes (None takes every table), or None."""
    spec_args, first_index = args
    bt = _backtracker(**spec_args)
    for cells in bt.search(first_index):
        if accept is None or accept(HyperTable(bt.n, cells, bt.kind)):
            return cells
    return None


def _witness_map_tasks(n, constraints):
    """Strict polysymmetry at e pins a singleton skeleton: every x owns some
    x' with both x*x' and x'*x equal to {e}.  A witness map x -> x' forces
    that skeleton, so a search under it is heavily constrained.  A
    permutation p fixing e, under which `plan_sweep` made sure the other
    descriptors are invariant, relabels the tables of map w onto those of
    p w p^-1.  So one task per orbit of maps, on its least map, covers the
    model set once merge_sweep relabels the results and re-checks them."""
    (e,) = {c[1] for c in constraints if c[0] == "polysymmetry-at"}
    perms = [p for p in permutations(range(n)) if p[e] == e]
    rest = tuple(c for c in constraints if c[0] != "polysymmetry-at")
    tasks = []
    for w in product(range(n), repeat=n):
        if any(tuple(p[w[p.index(y)]] for y in range(n)) < w for p in perms):
            continue  # not the least map of its orbit
        skeleton = {pos for x, xp in enumerate(w) for pos in (x * n + xp, xp * n + x)}
        forced = tuple(("forced", pos, 1 << e) for pos in sorted(skeleton))
        tasks.append((dict(order=n, constraints=forced + rest), None))
    return tasks
