"""The backtracker's compiled pruning checks.

A slot's checks are compiled against the cells that the DFS has set when
the slot is written, so they are only defined on the states the search
reaches.  They are held to a reference DFS over the same slots and domains
that prunes a node exactly when a reference predicate of `oracles` fails on
the partial table: `triple_watch` over every triple of a triple law, and
the partial predicates of reproductivity, unique opposites, polysymmetry
and inclusion distributivity.  The two searches must visit the same nodes,
prune the same ones and emit the same tables, and at every visited node the
checks of the written slot, its domain filters included, must give the
reference's verdict.  At every leaf the leaf devices (canonical
reversibility) must give the verdict of `constraint_holds` on the table.

The search runs a slot's filters (unique opposites, polysymmetry) once per
signature class of its domain, on the class's first value, and skips the
other values of a failed class unwritten.  At every visited slot each
value's own filter verdict must equal its class's.
"""

import random
from collections import Counter
from functools import partial
from itertools import product

import pytest

import oracles
from hyperlab import engines, enumeration, theorems
from hyperlab.engines import Backtracker, SearchSpec, constraint_holds, satisfies_all
from hyperlab.model import HyperTable

TRIPLE_LAWS = (
    "associative",
    "weakly-associative",
    "left-inverted-associative",
    "right-inverted-associative",
)
DEVICES = TRIPLE_LAWS + (
    "reproductive",
    "unique-opposite-at",
    "polysymmetry-at",
    "weak-polysymmetry-at",
    "distributive-inclusion-over",
    "reversibility-at",
)
LINKS = ("none", "commutative", "identity-at", "equivariant-under", "witness-map")
# free slots per order: few enough that the reference DFS stays small
FREE = {2: 4, 3: 3, 4: 2}
# Inclusion distributivity runs over Z_2 and Z_3, the abelian groups of
# order 2 and 3.
# The witness-map pins fix a polysymmetry skeleton, so under them
# polysymmetry never prunes (its witness-map tasks drop it).  No table of
# order 2 is strictly polysymmetric at 0 and equivariant under x -> 1-x, and
# at order 4 none of `candidate_tables` is so under x -> 3-x.  Canonical
# reversibility at 0 holds on no table of order 2 or 3 with an identity other
# than 0, nor on one of order 2 under x -> 1-x, and on none of
# `candidate_tables` under x -> n-1-x.
CASES = [
    (device, n, link)
    for device in DEVICES
    for n in (2, 3, 4)
    for link in LINKS
    if not (device == "distributive-inclusion-over" and n == 4)
    and not (device.endswith("polysymmetry-at") and link == "witness-map")
    and not (device == "polysymmetry-at" and n != 3 and link == "equivariant-under")
    and not (device == "reversibility-at" and link in ("identity-at", "equivariant-under"))
]


def join_table(n):
    """x*y = {x, y}: every triple law holds, and so do reproductivity, weak
    polysymmetry, commutativity, the identity axiom at each element and
    equivariance under every permutation."""
    return [1 << (p // n) | 1 << (p % n) for p in range(n * n)]


def cyclic_table(n, e=0):
    """The cyclic group Z_n with identity e: every triple law, every device
    but inclusion distributivity and every link at e hold, and x -> -x pairs
    each element with its inverse, a witness map of strict polysymmetry at
    0."""
    return [1 << ((p // n + p % n - e) % n) for p in range(n * n)]


def candidate_tables(n):
    """Seed tables, in order of preference: the join table, the cyclic
    groups, the zero product {0} (inclusion-distributive over Z_n), the right
    projection {y} (unique opposites at 0, equivariant under every
    permutation) and the total table."""
    return [
        join_table(n),
        *(cyclic_table(n, e) for e in range(n)),
        [1] * (n * n),
        [1 << (p % n) for p in range(n * n)],
        [(1 << n) - 1] * (n * n),
    ]


def descriptor(device, n):
    if device in TRIPLE_LAWS:
        return ("law", device)
    return {
        "reproductive": ("law", "reproductive"),
        "unique-opposite-at": ("unique-opposite-at", 0),
        "polysymmetry-at": ("polysymmetry-at", 0, False),
        "weak-polysymmetry-at": ("polysymmetry-at", 0, True),
        "distributive-inclusion-over": (
            "distributive-inclusion-over",
            HyperTable(n, tuple(cyclic_table(n))),
        ),
        "reversibility-at": ("reversibility-at", 0),
    }[device]


def seeded_spec(device, n, link, rng):
    """One device with a link and `forced` pins on the cells of all but
    FREE[n] of its orbits, mostly from the first candidate table where the
    device and the link hold, now and then a random value."""
    links = {
        "none": (),
        "commutative": (("law", "commutative"),),
        "identity-at": (("identity-at", rng.randrange(n)),),
        "equivariant-under": (("equivariant-under", tuple(range(n))[::-1]),),
    }
    if link == "witness-map":  # the skeleton of strict polysymmetry at 0 under x -> -x
        skeleton = {pos for x in range(n) for pos in (x * n + -x % n, -x % n * n + x)}
        pins = tuple(("forced", pos, 1) for pos in sorted(skeleton))
        constraints = pins + (descriptor(device, n),)
    else:
        constraints = (descriptor(device, n),) + links[link]
    base = next(
        t for t in candidate_tables(n) if satisfies_all(HyperTable(n, tuple(t)), constraints)
    )
    slots = Backtracker(SearchSpec(n, constraints)).slot_writes
    free = {pos for writes in rng.sample(slots, min(FREE[n], len(slots))) for pos, _ in writes}
    noise = rng.choice((0, 0.1))
    pins = tuple(
        ("forced", pos, base[pos] if rng.random() >= noise else rng.randrange(1 << n))
        for pos in range(n * n)
        if pos not in free
    )
    return SearchSpec(n, constraints + pins)


def reference_fails(constraints, n, cur):
    """Whether the reference predicate of some pruning device among
    `constraints` fails on the partial cell list `cur` (None = unset)."""
    rows = oracles.partial_rows(cur, n)
    triples = list(product(range(n), repeat=3))
    for c in constraints:
        if c[0] == "law" and c[1] in TRIPLE_LAWS:
            failed = not oracles.triple_watch(c[1], triples, n, cur)
        elif c == ("law", "reproductive"):
            failed = oracles.reproductive_fails(rows)
        elif c[0] == "unique-opposite-at":
            failed = oracles.opposite_fails(rows, c[1])
        elif c[0] == "polysymmetry-at":
            failed = oracles.polysymmetry_fails(rows, c[1], c[2])
        elif c[0] == "distributive-inclusion-over":
            failed = oracles.inclusion_fails(oracles.from_table(c[1]), rows)
        else:  # links and pins shape the slots and domains
            failed = False
        if failed:
            return True
    return False


def assert_classes_agree(bt, depth, cur):
    """At a visited slot, each value's own filter verdict is the verdict of
    its class's first value, the one the search runs the filters on."""
    filters, _, classes = bt._slot(depth)
    if not filters:
        return
    classes, reps = classes

    def verdict(v):
        state = list(cur)
        for pos, lut in bt.slot_writes[depth]:
            state[pos] = lut[v]
        return all(fn(state) for fn in filters)

    for v in bt.domains[depth]:
        assert verdict(v) == verdict(reps[classes[v]]), (depth, v, cur)


def opposite_counts(cells, n, z):
    """The numbers of cells per row that hold z."""
    return {sum(cells[x * n + y] >> z & 1 for y in range(n)) for x in range(n)}


def reference_search(bt, leaves=None):
    """The DFS of `bt` over its slots and domains, pruning by
    `reference_fails`; asserts at each visited node that the checks of the
    written slot agree, at each visited slot that the filter classes do,
    and at each leaf that the leaf devices do.  Appends each leaf's cells
    to `leaves`.  Returns (solutions, nodes, pruned)."""
    n = bt.n
    cur = [None] * bt.n2
    for pos, v in bt.prefill.items():
        cur[pos] = v
    counts = {"nodes": 0, "pruned": 0}
    solutions = []

    def passes(depth):
        expected = not reference_fails(bt.spec.constraints, n, cur)
        assert all(fn(cur) for fn in bt._checks_after(depth)) == expected, (depth, cur)
        return expected

    def dfs(depth):
        if depth == len(bt.slots):
            table = HyperTable(n, tuple(cur), bt.kind)
            reversible = all(
                constraint_holds(table, c) for c in bt.spec.constraints if c[0] == "reversibility-at"
            )
            assert all(fn(cur) for fn in bt.leaf_devices) == reversible, cur
            if leaves is not None:
                leaves.append(table.cells)
            if satisfies_all(table, bt.spec.constraints):
                solutions.append(table.cells)
            return
        assert_classes_agree(bt, depth, cur)
        for v in bt.domains[depth]:
            counts["nodes"] += 1
            written, ok = [], True
            for pos, lut in bt.slot_writes[depth]:
                if cur[pos] is None:
                    cur[pos] = lut[v]
                    written.append(pos)
                elif cur[pos] != lut[v]:
                    ok = False
            if ok and passes(depth):
                dfs(depth + 1)
            else:
                counts["pruned"] += 1
            for pos in written:
                cur[pos] = None

    if passes(-1):
        dfs(0)
    else:
        counts["pruned"] += 1
    return solutions, counts["nodes"], counts["pruned"]


@pytest.mark.parametrize("device, n, link", CASES)
def test_search_equals_the_reference_dfs(device, n, link):
    rng = random.Random(f"{device}/{n}/{link}")
    outcomes, leaves = set(), []
    for _ in range(8):
        spec = seeded_spec(device, n, link, rng)
        expected = reference_search(Backtracker(spec), leaves)
        bt = Backtracker(spec)
        assert (list(bt.search()), bt.nodes, bt.pruned) == expected, spec
        solutions, nodes, pruned = expected
        outcomes.add((bool(solutions), bool(pruned)))
    if device == "reversibility-at":  # a leaf device: no slot prunes for it
        assert (True, False) in outcomes
        # leaves with a row that has two opposites and, unless the
        # witness-map pins give every row one, with a row that has none
        counts = {k for cells in leaves for k in opposite_counts(cells, n, 0)}
        assert ({2} if link == "witness-map" else {0, 2}) <= counts
    else:
        assert (True, True) in outcomes  # some search both pruned and emitted


def test_first_hit_counters_of_a_drop_search(monkeypatch):
    # T25/3 without commutativity, searched at element 0 alone: shard 0 has
    # no hit, and shard 1's hit ends its walk.  The counters count the values
    # that the filters skip unwritten exactly as a search that writes and
    # checks every value counts them, also at the hit.
    claim = theorems.CLAIMS["T25"]
    run = tuple(i for i in claim.premises[0] if i != "commutative")
    constraints = theorems._descriptors_at(run, 0)
    accept = partial(theorems._conclusion_fails, claim.conclusion, False, 0)
    counters = []
    real = engines.first_hit_task

    def task(args, accept=None):
        cells = real(args, accept)
        bt = engines._backtracker(**args[0])
        counters.append((args[1], bt.nodes, bt.pruned))
        return cells

    monkeypatch.setattr(engines, "first_hit_task", task)
    table, e, i = enumeration.search_first(3, lambda _: [(constraints, accept)], (0,))
    assert (table.cells, e, i) == ((1, 2, 6, 2, 2, 7, 4, 2, 7), 0, 0)
    assert counters == [(0, 1657, 1416), (1, 1232, 1038)]


def test_leaf_device_counts_of_a_drop_search(monkeypatch):
    # T25/3 --drop-premises: canonical reversibility, which no slot reads,
    # rejects 9,412 of the 9,460 leaves that its searches reach before a
    # table is built, and `satisfies_all` re-checks the other 48
    counts = Counter()
    device = engines._reversibility_device
    check = engines.satisfies_all

    def counted_device(n, zero):
        fn = device(n, zero)

        def counted(cur):
            ok = fn(cur)
            counts["rejected"] += not ok
            return ok

        return counted

    def counted_check(table, constraints):
        counts["checked"] += 1
        return check(table, constraints)

    monkeypatch.setattr(engines, "_reversibility_device", counted_device)
    monkeypatch.setattr(engines, "satisfies_all", counted_check)
    engines._backtracker.cache_clear()  # build the sweeps' backtrackers anew
    try:
        theorems.verify("T25", 3, drop_premises=True, workers=1)
    finally:
        engines._backtracker.cache_clear()
    assert counts == {"rejected": 9412, "checked": 48}
