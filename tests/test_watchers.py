"""The backtracker's watcher table.

The triple-law watchers must give the verdict of the reference watcher in
`oracles.triple_watch` (one `outer_union` per side of every triple) on every
partial table, position by position: the search's node and prune counts
rest on that.  One table serves every sweep task that differs from the
previous one only in its `forced` pins.
"""

import random
from itertools import product

import pytest

import oracles
from hyperlab import engines
from hyperlab.engines import Backtracker, SearchSpec

TRIPLE_LAWS = (
    "associative",
    "weakly-associative",
    "left-inverted-associative",
    "right-inverted-associative",
)


def random_partial_cells(rng, n):
    """A cell list with a random share of unset (None) and empty cells."""
    unset, empty = rng.random(), rng.random() * 0.3
    return [
        None if rng.random() < unset else 0 if rng.random() < empty else rng.randrange(1, 1 << n)
        for _ in range(n * n)
    ]


@pytest.mark.parametrize("law", TRIPLE_LAWS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_triple_watchers_match_the_reference_watcher(law, n):
    rng = random.Random(f"{law}/{n}")
    table = engines._watcher_table(n, (("law", law),))
    triples_at = {
        pos: [t for t in product(range(n), repeat=3) if pos in oracles.triple_positions(law, *t, n)]
        for pos in range(n * n)
    }
    verdicts = set()
    for _ in range(300):
        cur = random_partial_cells(rng, n)
        for pos in range(n * n):
            expected = oracles.triple_watch(law, triples_at[pos], n, cur)
            assert all(fn(cur) for fn in table[pos]) == expected, (pos, cur)
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_witness_map_shards_share_one_watcher_table():
    constraints = (("law", "associative"), ("law", "reproductive"), ("polysymmetry-at", 0, False))
    _, tasks = engines.sweep_tasks(engines.WITNESS_MAP, 4, constraints)
    (first, _), (second, _) = tasks[:2]
    assert first["constraints"] != second["constraints"]  # different pins
    a = Backtracker(SearchSpec(**first))
    b = Backtracker(SearchSpec(**second))
    assert a.watchers is b.watchers
    rest = tuple(c for c in first["constraints"] if c[0] != "forced")
    c = Backtracker(SearchSpec(4, rest + (("unique-opposite-at", 0),)))
    assert c.watchers is not a.watchers
    assert engines._watcher_table.cache_info().currsize == 1
    assert engines._watcher_table.cache_info().maxsize == 1
    assert Backtracker(SearchSpec(**first)).watchers is not a.watchers  # evicted
