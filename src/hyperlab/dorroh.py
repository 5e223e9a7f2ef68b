"""Adjoining integers to a finite hyperring: pairs (k, x) with exact integer
arithmetic in the first slot and hyperring arithmetic in the second.

Addition is (n,x) + (m,y) = {(n+m, z) : z in x+y}.  Multiplication is
(n,x)·(m,y) = {(nm, z) : z in ny + mx + xy}, which is set-valued, so the
probe checks both association orders of the product against each other and
against their common superset

    {(nmk, v) : v in (nm)z + (kn)y + (km)x + k(xy) + n(yz) + m(xz) + (xy)z}

over every triple with integer parts in a window [-N, N], for N up to
RANGE_CAP.  Integer parts are exact Python ints, so products may leave the
window without wrapping.

Every sum or product of single pairs has one integer part, and so does a set
of such pairs times a pair, so the probe holds each pair set as `(k, mask)`:
the integer part and a cell mask of base elements.  An empty mask is the empty
set whatever its `k`.  `associativity_probe` validates the base once and then
runs unchecked `(k, mask)` arithmetic with memoised complex and scaled sums;
only the public `dorroh_add`, `dorroh_mul` and `scaled_sum` (which check their
preconditions on every call) and the reported first violation build
`DorrohPair`s.
"""

from dataclasses import asdict, dataclass
from functools import partial

from . import axioms
from .classify import classify_two_op
from .model import TwoOpModel, complex_product, members_of, singleton_value
from .parallel import parallel_map, pool

# largest accepted window radius: sign.model, the largest bundled base, probes
# its 250,047 triples in about 2 s on one CPU (range 16 took 7.5 s)
RANGE_CAP = 10


@dataclass(frozen=True, slots=True, order=True)
class DorrohPair:
    k: int
    x: int

    def to_json(self):
        return [self.k, self.x]


def normalize(pairs) -> tuple[DorrohPair, ...]:
    """Sorted, deduplicated pair set."""
    return tuple(sorted(set(pairs)))


@dataclass
class ProbeReport:
    base: str
    radius: int
    triples_checked: int
    assoc_equal_count: int
    weak_assoc_ok_count: int
    inclusion_ok: bool
    canonical_window_ok: bool
    first_assoc_violation: dict | None = None
    wall_time: float = 0.0

    def to_json(self, include_wall_time=True) -> dict:
        out = asdict(self)
        if not include_wall_time:
            del out["wall_time"]
        return out


def require_krasner_base(model: TwoOpModel):
    """The probe needs a Krasner hyperring; raises otherwise."""
    labels = classify_two_op(model).labels
    if "krasner-hyperring" not in labels:
        raise axioms.PreconditionError(
            "the base model is not a Krasner hyperring"
        )


def _require_additive_axioms(model: TwoOpModel):
    for law in ("associative", "commutative"):
        if not axioms.check_law(model.add, law).holds:
            raise axioms.PreconditionError(f"base addition is not {law}")
    opp = axioms.opposite_map(model.add, model.zero)
    if opp is None:
        raise axioms.PreconditionError("base addition lacks unique opposites")
    return opp


def scaled_sum(model: TwoOpModel, k: int, y: int) -> int:
    """Cell set of k·y: the k-fold complex sum of {y}, with 0·y = {zero} and
    negative multiples folded through the opposite map."""
    opp = _require_additive_axioms(model)
    if k < 0:
        return scaled_sum(model, -k, opp[y])
    if k == 0:
        return 1 << model.zero
    out = 1 << y
    for _ in range(k - 1):
        out = complex_product(model.add, out, 1 << y)
    return out


def dorroh_add(model: TwoOpModel, p: DorrohPair, q: DorrohPair):
    _require_additive_axioms(model)
    return normalize(
        DorrohPair(p.k + q.k, z) for z in members_of(model.add.cell(p.x, q.x))
    )


def dorroh_mul(model: TwoOpModel, p: DorrohPair, q: DorrohPair):
    """{(nm, z) : z in n·y + m·x + x·y}; base multiplication must be
    single-valued."""
    _require_additive_axioms(model)
    ny = scaled_sum(model, p.k, q.x)
    mx = scaled_sum(model, q.k, p.x)
    xy = 1 << singleton_value(model.mul.cell(p.x, q.x))
    spread = complex_product(model.add, complex_product(model.add, ny, mx), xy)
    return normalize(DorrohPair(p.k * q.k, z) for z in members_of(spread))


# -- the probe: (k, mask) pair sets over a validated base ------------------------

def _same(a, b) -> bool:
    return a[1] == b[1] and (a[0] == b[0] or not a[1])


def _meets(a, b) -> bool:
    return a[0] == b[0] and bool(a[1] & b[1])


def _within(a, b) -> bool:
    return not a[1] or (a[0] == b[0] and not a[1] & ~b[1])


class _Kernel:
    """Unchecked base arithmetic for one probe: complex sums of cell masks,
    multiples k·y and Dorroh products on `(k, mask)`, all memoised."""

    def __init__(self, model: TwoOpModel, opp):
        self.add = model.add
        self.mul = model.mul
        self.zero = model.zero
        self.opp = opp
        self._sums = {}
        self._multiples = [[1 << y] for y in range(model.order)]  # [j] = (j+1)·y
        self._products = {}
        self._set_products = {}

    def plus(self, a: int, b: int) -> int:
        out = self._sums.get((a, b))
        if out is None:
            out = self._sums[a, b] = complex_product(self.add, a, b)
        return out

    def scaled(self, k: int, y: int) -> int:
        """The mask of k·y, as `scaled_sum`."""
        if k < 0:
            k, y = -k, self.opp[y]
        if k == 0:
            return 1 << self.zero
        seq = self._multiples[y]
        while len(seq) < k:
            seq.append(self.plus(seq[-1], 1 << y))
        return seq[k - 1]

    def prod(self, x: int, y: int) -> int:
        return singleton_value(self.mul.cell(x, y))

    def times(self, n, x, m, y) -> int:
        """The mask of (n,x)·(m,y), whose integer part is nm."""
        key = (n, x, m, y)
        out = self._products.get(key)
        if out is None:
            spread = self.plus(self.scaled(n, y), self.scaled(m, x))
            out = self._products[key] = self.plus(spread, 1 << self.prod(x, y))
        return out

    def set_times(self, n, mask, m, y) -> int:
        """The mask of (n, mask)·(m,y): the union over the set's members."""
        key = (n, mask, m, y)
        out = self._set_products.get(key)
        if out is None:
            out = 0
            for x in members_of(mask):
                out |= self.times(n, x, m, y)
            self._set_products[key] = out
        return out

    def times_set(self, n, x, m, mask) -> int:
        """The mask of (n,x)·(m, mask)."""
        out = 0
        for y in members_of(mask):
            out |= self.times(n, x, m, y)
        return out

    def superset(self, n, x, m, y, k, z) -> int:
        xy, yz, xz = self.prod(x, y), self.prod(y, z), self.prod(x, z)
        terms = (
            self.scaled(k * n, y),
            self.scaled(k * m, x),
            self.scaled(k, xy),
            self.scaled(n, yz),
            self.scaled(m, xz),
            1 << self.prod(xy, z),
        )
        out = self.scaled(n * m, z)
        for t in terms:
            out = self.plus(out, t)
        return out


def _window(radius: int, order: int):
    return [(k, x) for k in range(-radius, radius + 1) for x in range(order)]


def _probe_row(p, kernel, window):
    """(equal, weak, included, first violation) over the triples (p, q, r)."""
    n, x = p
    equal = weak = 0
    included = True
    first = None
    for m, y in window:
        nm, pq = n * m, kernel.times(n, x, m, y)
        for k, z in window:
            nmk = nm * k
            left = (nmk, kernel.set_times(nm, pq, k, z))
            right = (nmk, kernel.times_set(n, x, m * k, kernel.times(m, y, k, z)))
            sup = (nmk, kernel.superset(n, x, m, y, k, z))
            same = _same(left, right)
            equal += same
            weak += _meets(left, right)
            included = included and _within(left, sup) and _within(right, sup)
            if not same and first is None:
                first = {
                    "triple": [[n, x], [m, y], [k, z]],
                    "left": [DorrohPair(nmk, v).to_json() for v in members_of(left[1])],
                    "right": [DorrohPair(nmk, v).to_json() for v in members_of(right[1])],
                }
    return equal, weak, included, first


def _canonical_window_ok(kernel, window) -> bool:
    """The window addition has the zero pair as identity, opposites (-n, -x),
    and is commutative and associative, on `(k, mask)` pair sets."""
    add = kernel.add
    zero = (0, 1 << kernel.zero)
    for n, x in window:
        p = (n, 1 << x)
        if not _same((n, add.cell(kernel.zero, x)), p):
            return False
        if not _same((n, add.cell(x, kernel.zero)), p):
            return False
        if not _within(zero, (0, add.cell(x, kernel.opp[x]))):
            return False
    for n, x in window:
        for m, y in window:
            if not _same((n + m, add.cell(x, y)), (m + n, add.cell(y, x))):
                return False
            for k, z in window:
                left = (n + m + k, kernel.plus(add.cell(x, y), 1 << z))
                right = (n + m + k, kernel.plus(1 << x, add.cell(y, z)))
                if not _same(left, right):
                    return False
    return True


def associativity_probe(
    model: TwoOpModel, radius: int, workers: int = 1, base_name: str = "base"
) -> ProbeReport:
    """Check both association orders of the product on the window, their
    membership in the common superset, and that the window addition behaves
    like a canonical hypergroup.  One task per first element of a triple."""
    import time

    if not 1 <= radius <= RANGE_CAP:
        raise ValueError(f"window radius must be in 1..{RANGE_CAP}, got {radius}")
    require_krasner_base(model)
    kernel = _Kernel(model, _require_additive_axioms(model))
    start = time.perf_counter()

    window = _window(radius, model.order)
    equal_count = 0
    weak_count = 0
    inclusion_ok = True
    first_violation = None
    with pool(workers):
        rows = parallel_map(partial(_probe_row, kernel=kernel, window=window), window)
    for equal, weak, included, first in rows:
        equal_count += equal
        weak_count += weak
        inclusion_ok = inclusion_ok and included
        if first_violation is None:
            first_violation = first

    canonical_ok = _canonical_window_ok(kernel, _window(min(radius, 2), model.order))
    return ProbeReport(
        base=base_name,
        radius=radius,
        triples_checked=len(window) ** 3,
        assoc_equal_count=equal_count,
        weak_assoc_ok_count=weak_count,
        inclusion_ok=inclusion_ok,
        canonical_window_ok=canonical_ok,
        first_assoc_violation=first_violation,
        wall_time=time.perf_counter() - start,
    )
