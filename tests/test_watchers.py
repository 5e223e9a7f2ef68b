"""The backtracker's triple-law checks.

A slot's checks are compiled against the cells that the DFS has set when
the slot is written, so they are only defined on the states the search
reaches.  They are held to a reference DFS over the same slots and domains
that prunes a node exactly when `oracles.triple_watch` over every triple of
the law fails: the two searches must visit the same nodes, prune the same
ones and emit the same tables, and at every visited node the checks of the
written slot must give the reference's verdict.  The rank-independent part
of the checks is built once and shared by every sweep task that differs
from the previous one only in its `forced` pins.
"""

import random
from itertools import product

import pytest

import oracles
from hyperlab import engines
from hyperlab.engines import Backtracker, SearchSpec, satisfies_all
from hyperlab.model import HyperTable

TRIPLE_LAWS = (
    "associative",
    "weakly-associative",
    "left-inverted-associative",
    "right-inverted-associative",
)
LINKS = ("none", "commutative", "identity-at", "equivariant-under", "witness-map")
# free slots per order: few enough that the reference DFS stays small
FREE = {2: 4, 3: 3, 4: 2}


def join_table(n):
    """x*y = {x, y}: every triple law holds, and so do commutativity, the
    identity axiom at each element and equivariance under every permutation."""
    return [1 << (p // n) | 1 << (p % n) for p in range(n * n)]


def cyclic_table(n):
    """The cyclic group Z_n: every triple law holds, and x -> -x pairs each
    element with its inverse, a witness map of strict polysymmetry at 0."""
    return [1 << ((p // n + p % n) % n) for p in range(n * n)]


def seeded_spec(law, n, link, rng):
    """One triple law with a link and `forced` pins on the cells of all but
    FREE[n] of its orbits, mostly from a table where the law holds, now and
    then a random value."""
    links = {
        "none": (),
        "commutative": (("law", "commutative"),),
        "identity-at": (("identity-at", rng.randrange(n)),),
        "equivariant-under": (("equivariant-under", tuple(range(n))[::-1]),),
    }
    if link == "witness-map":
        rest = (("law", law), ("polysymmetry-at", 0, False))
        _, tasks = engines.sweep_tasks(engines.WITNESS_MAP, n, rest)
        inverse = tuple(-x % n for x in range(n))
        spec_args, _ = tasks[list(product(range(n), repeat=n)).index(inverse)]
        pins = tuple(c for c in spec_args["constraints"] if c[0] == "forced")
        base, constraints = cyclic_table(n), pins + (("law", law),)
    else:
        base, constraints = join_table(n), (("law", law),) + links[link]
    slots = Backtracker(SearchSpec(n, constraints)).slot_writes
    free = {pos for writes in rng.sample(slots, min(FREE[n], len(slots))) for pos, _ in writes}
    noise = rng.choice((0, 0.1))
    pins = tuple(
        ("forced", pos, base[pos] if rng.random() >= noise else rng.randrange(1 << n))
        for pos in range(n * n)
        if pos not in free
    )
    return SearchSpec(n, constraints + pins)


def reference_search(bt, law):
    """The DFS of `bt` over its slots and domains, pruning by the reference
    watcher over every triple; asserts at each visited node that the checks
    of the written slot agree.  Returns (solutions, nodes, pruned)."""
    n = bt.n
    triples = list(product(range(n), repeat=3))
    cur = [None] * bt.n2
    for pos, v in bt.prefill.items():
        cur[pos] = v
    counts = {"nodes": 0, "pruned": 0}
    solutions = []

    def passes(depth):
        expected = oracles.triple_watch(law, triples, n, cur)
        assert all(fn(cur) for fn in bt._checks_after(depth)) == expected, (depth, cur)
        return expected

    def dfs(depth):
        if depth == len(bt.slots):
            table = HyperTable(n, tuple(cur), bt.kind)
            if satisfies_all(table, bt.spec.constraints):
                solutions.append(table.cells)
            return
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


@pytest.mark.parametrize("link", LINKS)
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("law", TRIPLE_LAWS)
def test_search_equals_the_reference_dfs(law, n, link):
    rng = random.Random(f"{law}/{n}/{link}")
    outcomes = set()
    for _ in range(8):
        spec = seeded_spec(law, n, link, rng)
        expected = reference_search(Backtracker(spec), law)
        bt = Backtracker(spec)
        assert (list(bt.search()), bt.nodes, bt.pruned) == expected, spec
        solutions, nodes, pruned = expected
        outcomes.add((bool(solutions), bool(pruned)))
    assert (True, True) in outcomes  # some search both pruned and emitted


def test_witness_map_shards_share_one_watcher_table():
    constraints = (("law", "associative"), ("law", "reproductive"), ("polysymmetry-at", 0, False))
    _, tasks = engines.sweep_tasks(engines.WITNESS_MAP, 4, constraints)
    (first, _), (second, _) = tasks[:2]
    assert first["constraints"] != second["constraints"]  # different pins
    a = Backtracker(SearchSpec(**first))
    b = Backtracker(SearchSpec(**second))
    assert a.table is b.table
    assert a.slots != b.slots  # the slot checks are compiled per backtracker
    rest = tuple(c for c in first["constraints"] if c[0] != "forced")
    c = Backtracker(SearchSpec(4, rest + (("unique-opposite-at", 0),)))
    assert c.table is not a.table
    assert engines._watch_table.cache_info().currsize == 1
    assert engines._watch_table.cache_info().maxsize == 1
    assert Backtracker(SearchSpec(**first)).table is not a.table  # evicted
