"""Finite carriers, hyperoperation tables and the operations on them.

Cell sets are plain ints used as bit vectors over the carrier {0..order-1}:
bit i set means element i is a member.  The empty set is 0.  All tables are
immutable after construction and every function here is pure, so values can
be shared freely between workers.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from operator import itemgetter

MAX_ORDER = 12

KIND_HYPER = "hyper"
KIND_COMPOSITION = "composition"
KINDS = (KIND_HYPER, KIND_COMPOSITION)


def full_mask(order: int) -> int:
    return (1 << order) - 1


def mask_of(members) -> int:
    m = 0
    for i in members:
        m |= 1 << i
    return m


def members_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def singleton_value(mask: int) -> int:
    """The sole member of a singleton mask."""
    if mask.bit_count() != 1:
        raise ValueError(f"not a singleton cell: {mask:#b}")
    return mask.bit_length() - 1


def mask_image(mask: int, perm) -> int:
    """Elementwise image of a cell set under a permutation."""
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[i]
        mask >>= 1
        i += 1
    return out


def cell_key(mask: int) -> tuple[int, ...]:
    """Comparison key for one cell: ascending member indices.

    Tuple comparison gives shorter-prefix-first, so {} < {0} < {0,1} < {1}.
    This order, not the numeric mask order, is the one all golden files,
    canonical forms and emission streams use.
    """
    return members_of(mask)


@lru_cache(maxsize=None)
def key_sorted_masks(order: int) -> tuple[int, ...]:
    """All cell masks in `cell_key` order, {} < {0} < {0,1} < ... < {n-1};
    a mask's index here is its rank, the int that `table_key` compares."""
    return tuple(sorted(range(1 << order), key=cell_key))


@lru_cache(maxsize=None)
def _mask_ranks(order: int) -> tuple[int, ...]:
    """mask -> its index in key_sorted_masks(order)."""
    return tuple(sorted(range(1 << order), key=key_sorted_masks(order).__getitem__))


@dataclass(frozen=True, slots=True)
class HyperTable:
    """Square table of cell sets housing one law of synthesis."""

    order: int
    cells: tuple[int, ...]  # row-major, length order**2
    kind: str = KIND_HYPER

    def __post_init__(self):
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {self.order}")
        if len(self.cells) != self.order * self.order:
            raise ValueError(
                f"expected {self.order * self.order} cells, got {len(self.cells)}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"unknown table kind: {self.kind!r}")
        full = full_mask(self.order)
        for c in self.cells:
            if c & ~full:
                raise ValueError("cell contains an index outside the carrier")
            if self.kind == KIND_COMPOSITION and c.bit_count() != 1:
                raise ValueError("composition tables require singleton cells")

    def cell(self, x: int, y: int) -> int:
        return self.cells[x * self.order + y]

    @property
    def full(self) -> int:
        return full_mask(self.order)


def table_from_rows(rows, kind: str = KIND_HYPER) -> HyperTable:
    """Build a table from rows of member collections, e.g. [[{0},{1}],[{1},{0}]].

    A bare int entry is taken as a ready-made bit mask.
    """
    order = len(rows)
    cells = []
    for row in rows:
        if len(row) != order:
            raise ValueError("table rows must be square")
        for members in row:
            cells.append(mask_of(members) if not isinstance(members, int) else members)
    return HyperTable(order, tuple(cells), kind)


def composition_from_rows(rows) -> HyperTable:
    """Build a composition table from rows of element indices."""
    order = len(rows)
    cells = []
    for row in rows:
        if len(row) != order:
            raise ValueError("table rows must be square")
        cells.extend(1 << v for v in row)
    return HyperTable(order, tuple(cells), KIND_COMPOSITION)


def table_key(table: HyperTable) -> tuple[int, ...]:
    """Row-major tuple of cell ranks (`key_sorted_masks`): the canonical order
    of tables of one order, the same as that of their tuples of `cell_key`s."""
    return tuple(map(_mask_ranks(table.order).__getitem__, table.cells))


@dataclass(frozen=True, slots=True)
class TwoOpModel:
    """Carrier with additive and multiplicative tables and distinguished zero."""

    order: int
    add: HyperTable
    mul: HyperTable
    zero: int
    one: int | None = None

    def __post_init__(self):
        if self.add.order != self.order or self.mul.order != self.order:
            raise ValueError("component tables must share the model order")
        if not 0 <= self.zero < self.order:
            raise ValueError("zero out of range")
        if self.one is not None:
            if not 0 <= self.one < self.order:
                raise ValueError("one out of range")
            if self.order > 1 and self.one == self.zero:
                raise ValueError("one must differ from zero")


@dataclass(frozen=True, slots=True)
class HypermoduleModel:
    """Scalar hyperring acting on an additive structure by a single-valued map."""

    scalars: TwoOpModel  # must carry `one`
    madd: HyperTable
    zero_m: int
    action: tuple[tuple[int, ...], ...]  # scalars.order rows of madd.order indices

    def __post_init__(self):
        if len(self.action) != self.scalars.order:
            raise ValueError("action must have one row per scalar")
        for row in self.action:
            if len(row) != self.madd.order:
                raise ValueError("action rows must have one entry per module element")
            for v in row:
                if not 0 <= v < self.madd.order:
                    raise ValueError("action value out of range")
        if not 0 <= self.zero_m < self.madd.order:
            raise ValueError("module zero out of range")

    def act(self, a: int, m: int) -> int:
        return self.action[a][m]


def complex_product(table: HyperTable, a_set: int, b_set: int) -> int:
    """Union of table cells over all pairs drawn from the two cell sets.

    An empty factor yields the empty set.
    """
    if not a_set or not b_set:
        return 0
    n = table.order
    cells = table.cells
    out = 0
    a = a_set
    ia = 0
    while a:
        if a & 1:
            base = ia * n
            b = b_set
            ib = 0
            while b:
                if b & 1:
                    out |= cells[base + ib]
                b >>= 1
                ib += 1
        a >>= 1
        ia += 1
    return out


def right_division(table: HyperTable, x: int, y: int) -> int:
    """{z : x in z*y}."""
    n = table.order
    cells = table.cells
    bit = 1 << x
    out = 0
    for z in range(n):
        if cells[z * n + y] & bit:
            out |= 1 << z
    return out


def left_division(table: HyperTable, y: int, x: int) -> int:
    """{z : x in y*z}."""
    n = table.order
    base = y * n
    cells = table.cells
    bit = 1 << x
    out = 0
    for z in range(n):
        if cells[base + z] & bit:
            out |= 1 << z
    return out


def apply_permutation(table: HyperTable, perm) -> HyperTable:
    """Relabel the table: result[p(a)][p(b)] = p(table[a][b]); kind preserved."""
    n = table.order
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the carrier")
    cells = [0] * (n * n)
    for a in range(n):
        pa = perm[a] * n
        for b in range(n):
            cells[pa + perm[b]] = mask_image(table.cell(a, b), perm)
    return HyperTable(n, tuple(cells), table.kind)


# an entry holds n!*(k*n*n + 2**n) references: about 13M at order 8 for k = 1
@lru_cache(maxsize=8)
def _relabelings(order: int, fixed: tuple[int, ...], tables: int):
    """(gather, rimg) per permutation p fixing the pins, the identity left
    out: gather(cells) picks each relabeled cell's source from `tables`
    tables stacked row-major, and rimg[mask] is the rank of p(mask)."""
    ranks, n2 = _mask_ranks(order), order * order
    out = []
    for p in [p for p in permutations(range(order)) if all(p[i] == i for i in fixed)][1:]:
        src = sorted(range(n2), key=lambda s: p[s // order] * order + p[s % order])
        gather = itemgetter(*(t * n2 + s for t in range(tables) for s in src))
        out.append((gather, tuple(ranks[mask_image(m, p)] for m in range(1 << order))))
    return tuple(out)


def _least_relabeling(order: int, fixed, stack: tuple[int, ...], tables: int = 1):
    """The cells of the least joint relabeling of `tables` tables of one order,
    stacked row-major, over the permutations fixing the pins, comparing their
    `table_key`s in turn; None when the tables are least as they stand."""
    key = tuple(map(_mask_ranks(order).__getitem__, stack))
    rels = _relabelings(order, tuple(sorted(set(fixed))), tables)
    best = min((tuple(map(rimg.__getitem__, gather(stack))) for gather, rimg in rels), default=key)
    return None if best >= key else tuple(map(key_sorted_masks(order).__getitem__, best))


def canonical_form(table: HyperTable, fixed=()) -> HyperTable:
    """Least relabeling of the table over all permutations fixing the pins.

    Tables are compared by `table_key`, so the result is a deterministic
    orbit representative: constant on permutation orbits and idempotent.
    Relabelings are compared by keys read off cached per-permutation tables;
    only the least is built, and a table already least is returned itself.
    """
    least = _least_relabeling(table.order, fixed, table.cells)
    return table if least is None else HyperTable(table.order, least, table.kind)


def orbit_representatives(models, fixed=()) -> list:
    """The least model of each orbit of `models` under the permutations
    fixing the pins, in key order: the one place that decides isomorphism
    classes and certifies that a model set is closed under relabeling.

    `models`, all of one order, are tables in `table_key` order, or
    two-operation models of one (zero, one) in `two_op_key` order, whose
    pins are that zero and one and whose (add, mul) cells are walked stacked,
    as `canonical_form_two_op` compares them.  The first model of an orbit is
    kept and its images are marked, so every later model of the orbit is
    passed over and each kept one is the least of its orbit in the set; that
    is its canonical form when the set is closed.  An image outside the set
    means the set is not closed: RuntimeError, the orbit certificate of an
    enumeration and of `enumeration.element_sweep`'s relabeling.  The
    certificate holds for models in any order; only the kept ones need the
    key order."""
    if not models:
        return []
    first, two_op = models[0], isinstance(models[0], TwoOpModel)
    fixed = {first.zero, first.one} - {None} if two_op else fixed
    order, pins = first.order, tuple(sorted(set(fixed)))
    masks = key_sorted_masks(order).__getitem__
    rels = [(g, tuple(map(masks, rimg))) for g, rimg in _relabelings(order, pins, 1 + two_op)]
    stacks = [m.add.cells + m.mul.cells if two_op else m.cells for m in models]
    marked, reps = dict.fromkeys(stacks, False), []
    for m, stack in zip(models, stacks):
        if marked[stack]:
            continue
        marked[stack] = True
        reps.append(m)
        for gather, image in rels:
            cells = tuple(map(image.__getitem__, gather(stack)))
            if cells not in marked:
                raise RuntimeError(
                    f"orbit not closed: a relabeling of {stack} fixing {list(pins)} is missing"
                )
            marked[cells] = True
    return reps


def two_op_key(model: TwoOpModel):
    one = -1 if model.one is None else model.one
    return table_key(model.add), table_key(model.mul), model.zero, one


def canonical_form_two_op(model: TwoOpModel) -> TwoOpModel:
    """Least joint relabeling of both tables, compared as (add, mul) keys;
    zero (and one) stay pinned."""
    pins, n = {model.zero, model.one} - {None}, model.order
    least = _least_relabeling(n, pins, model.add.cells + model.mul.cells, 2)
    if least is None:
        return model
    add = HyperTable(n, least[: n * n], model.add.kind)
    return TwoOpModel(n, add, HyperTable(n, least[n * n :], model.mul.kind), model.zero, model.one)
