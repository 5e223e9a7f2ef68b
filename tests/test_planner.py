"""The sweep planner's engine choice, pinned for every claim, every order
and mode and for each enumeration kind, plus the runner's revalidation and
the bounded worker pool.  Apart from the cross-checks of the witness-map
split against the backtracker (qMp premise sets at orders 3 and 4, each
under a second) and the small two-operation jobs whose planned engines are
recorded, nothing here runs a sweep.

T6 and T28 are claims on a two-operation label: their premise sweeps run on
the label's search plan (`enumeration.two_op_plan`), which two-operation
enumeration jobs sweep too, and each of its runs goes through
`enumeration.sweep` on the pruned generator; their rows pin every run of the
plan.  T29's module additions are the premise models of the claim `_NORMAL`
(pinned below with T24's weak reading); its action search over a bundled
family runs no sweep.  Drop searches always run on the backtracker's shards
(`enumeration.search_first`), so they have no row here.
"""

import itertools
import os
import pickle
import subprocess
import sys

import pytest

from hyperlab import engines, enumeration, parallel, theorems
from hyperlab.enumeration import EnumerationJob

PURE = engines.PURE
COUNT = engines.VECTOR_COUNT
COLLECT = engines.VECTOR_COLLECT
BT = engines.BACKTRACK
WMAP = engines.WITNESS_MAP
REFUSED = "refused"  # verify refuses --oracle above engines.ORACLE_CAP

# theorem -> engine by order, as (default, --oracle)
VERIFIER_PLANS = {
    "T2": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, PURE)},
    "T3": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COUNT)},
    "T7": {1: (BT, PURE), 2: (BT, PURE), 3: (COUNT, COUNT)},
    "T9": {1: (BT, PURE), 2: (BT, PURE), 3: (COUNT, COUNT)},
    "T11": {1: (BT, PURE), 2: (BT, PURE), 3: (COUNT, COUNT)},
    "T13": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT), 4: (WMAP, REFUSED)},
    "T24": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT), 4: (WMAP, REFUSED)},
    "P14-P23": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT), 4: (WMAP, REFUSED)},
    # canonical reversibility does not vectorize: the oracle's vector
    # collect filters the survivors through its predicate
    "T25": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT), 4: (BT, REFUSED)},
    "T26": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT), 4: (BT, REFUSED)},
    "T27": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT), 4: (BT, REFUSED)},
    # two-operation premises: every run of the plan; T28 has no run at order 1,
    # where the multiplicative group on the empty H* does not exist
    "T6": {1: (BT, PURE), 2: (BT, PURE), 3: (BT, COLLECT)},
    "T28": {1: (None, None), 2: (BT, PURE), 3: (BT, COLLECT), 4: (BT, REFUSED)},
}


def test_every_spec_driven_verifier_and_order_is_pinned():
    assert set(VERIFIER_PLANS) == set(theorems.CLAIMS)
    assert set(theorems.THEOREM_IDS) - set(theorems.CLAIMS) == {"T29"}
    for theorem, plans in VERIFIER_PLANS.items():
        assert set(plans) == set(range(1, theorems._ORDER_CAPS[theorem] + 1)), theorem


@pytest.mark.parametrize(
    "theorem, order, oracle, engine",
    [
        (theorem, order, oracle, plans[order][oracle])
        for theorem, plans in VERIFIER_PLANS.items()
        for order in plans
        for oracle in (False, True)
    ],
)
def test_verifier_engine(theorem, order, oracle, engine):
    if engine == REFUSED:
        with pytest.raises(ValueError, match="--oracle runs up to order 3"):
            theorems.verify(theorem, order, oracle=oracle)
        return
    claim = theorems.CLAIMS[theorem]
    label = theorems._two_op_label(claim)
    if label is None:
        assert theorems.sweep_engine(claim, order, oracle) == engine
        return
    runs = theorems._plan(label, order)[0]
    planned = {engines.plan_sweep(order, run.descriptors, oracle, pruned=True) for run in runs}
    assert planned == ({engine} if engine else set())


@pytest.mark.parametrize("theorem", ["T7", "T11"])
def test_order3_oracle_counts_without_materialising_tables(theorem):
    # 15,322,445 T7 premise tables, 8^9 T11 tables: count mode keeps neither
    claim = theorems.CLAIMS[theorem]
    assert theorems.sweep_engine(claim, 3, oracle=True) == COUNT
    assert theorems.sweep_engine(claim, 3) == COUNT


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sweeps_outside_the_claims_table(order):
    # T29's module additions run on the backtracker, the only engine T29
    # has (verify refuses T29 --oracle); T24's weak reading runs vector
    # collect at order 3
    assert theorems.sweep_engine(theorems._NORMAL, order) == BT
    weak = theorems.sweep_engine(theorems._WEAK_QMP, order)
    assert weak == (COLLECT if order == 3 else BT)


def test_only_t3_pins_its_engine():
    # T3's pin is certification (criterion 2); the planner picks for speed
    pinned = [name for name, claim in theorems.CLAIMS.items() if claim.pruned]
    assert pinned == ["T3"]
    assert not theorems._NORMAL.pruned and not theorems._WEAK_QMP.pruned


@pytest.mark.parametrize(
    "order, constraints, oracle, engines_per_run",
    [
        (3, ("hypergroup",), False, [BT]),
        (2, ("hypergroup",), True, [PURE]),
        (3, ("hypergroup",), True, [COLLECT]),
        (3, ("group",), False, [BT]),
        (3, ("group",), True, [PURE]),
        (4, ("qmp-hypergroup",), False, [BT]),  # pruned, not the witness-map split
        (3, ("canonical-hypergroup",), True, [COLLECT] * 3),  # the oracle tries each element
        (2, ("associative",), True, [PURE]),
    ],
)
def test_enumeration_engine(order, constraints, oracle, engines_per_run):
    # enumeration.element_sweep plans each run of the job exactly like this:
    # the generator searches a quantified job at element 0 alone
    job = EnumerationJob(order, constraints, oracle=oracle)
    cands = enumeration._candidates(job)
    searched = cands if oracle or None in cands else (0,)
    runs = [run for e in searched for run in enumeration._single_runs(job, e)]
    plans = [engines.plan_sweep(order, run, oracle, pruned=True) for run in runs]
    assert plans == engines_per_run


@pytest.mark.parametrize(
    "job, engine",
    [
        # the multiplication first, then the addition at the zero
        (EnumerationJob(3, ("hyperfield",), zero=0, one=1), BT),
        (EnumerationJob(3, ("krasner-hyperring",), zero=0), BT),
        # the multiplication over each abelian additive group
        (EnumerationJob(3, ("multiplicative-hyperring-def6",), zero=0), BT),
        (EnumerationJob(2, ("krasner-hyperring",)), BT),
        (EnumerationJob(2, ("krasner-hyperring",), oracle=True), PURE),
        (EnumerationJob(2, ("multiplicative-hyperring-def6",), zero=0, oracle=True), PURE),
    ],
)
def test_two_operation_engine(monkeypatch, job, engine):
    # every run of a two-operation job goes through enumeration.sweep; the
    # final check is not under test, and skipping it keeps the oracle rows short
    monkeypatch.setattr(enumeration, "with_detected_one", lambda *args: None)
    planned = []

    def plan(*args, **kwargs):
        planned.append(real(*args, **kwargs))
        return planned[-1]

    real = engines.plan_sweep
    monkeypatch.setattr(engines, "plan_sweep", plan)
    enumeration.enumerate_models(job)
    assert planned and set(planned) == {engine}


def test_enumeration_oracle_caps():
    for structure in ("hypergroup", "group"):
        with pytest.raises(ValueError, match="cap"):
            enumeration.enumerate_models(EnumerationJob(4, (structure,), oracle=True))


def test_planner_rule():
    assoc = (("law", "associative"),)
    strict = assoc + (("identity-at", 0), ("polysymmetry-at", 0, False))
    weak = assoc + (("identity-at", 0), ("polysymmetry-at", 0, True))
    reversible = assoc + (("reversibility-at", 0),)
    composition = assoc + (("singleton-cells",),)
    plan = engines.plan_sweep
    assert plan(2, assoc, oracle=True) == PURE
    # singleton cells select the composition space: the pure oracle at
    # order 3, the backtracker otherwise
    assert plan(3, composition, oracle=True) == PURE
    assert plan(3, composition) == BT
    assert plan(3, composition, counts=True) == BT
    assert plan(3, assoc, oracle=True) == COLLECT
    assert plan(3, assoc, oracle=True, counts=True, pruned=True) == COUNT
    assert plan(3, reversible, oracle=True) == COLLECT
    assert plan(3, reversible, oracle=True, counts=True) == COLLECT
    # the tables of an order-3 set: vector collect only under weak polysymmetry
    assert plan(3, assoc) == BT
    assert plan(3, weak) == COLLECT
    assert plan(3, strict) == BT
    assert plan(3, assoc, counts=True) == COUNT
    assert plan(3, assoc, pruned=True) == BT
    assert plan(3, reversible) == BT
    assert plan(2, assoc) == BT
    assert plan(4, strict) == WMAP
    assert plan(4, strict, pruned=True) == BT
    assert plan(4, weak) == BT


def _qmp(e, *extra):
    """The qMp premises at e, as T13, T24 and P14-P23 sweep them."""
    return (("law", "associative"), ("identity-at", e), ("polysymmetry-at", e, False)) + extra


def _swept(engine, order, cs):
    fn, tasks = engines.sweep_tasks(engine, order, cs)
    return engines.merge_sweep(engine, order, cs, [fn(t) for t in tasks])[0]


@pytest.mark.parametrize(
    "order, cs",
    [
        (3, _qmp(1)),
        (4, _qmp(0)),
        (4, _qmp(1)),
        (4, _qmp(0, ("law", "commutative"))),
        pytest.param(4, _qmp(2), marks=pytest.mark.slow),  # the backtracker takes seconds
    ],
    ids=["3-qmp-at-1", "4-qmp-at-0", "4-qmp-at-1", "4-commutative-qmp-at-0", "4-qmp-at-2"],
)
def test_witness_map_split_finds_the_backtracker_model_set(order, cs):
    assert engines.plan_sweep(order, cs) == (WMAP if order >= 4 else BT)
    found = _swept(WMAP, order, cs)
    assert found == _swept(BT, order, cs) and found


def _conjugate(witness, perm):
    """perm . witness . perm^-1 as a tuple: it maps perm[x] to perm[witness[x]]."""
    out = [None] * len(witness)
    for x, xp in enumerate(witness):
        out[perm[x]] = perm[xp]
    return tuple(out)


@pytest.mark.parametrize("order, orbits", [(3, 15), (4, 52)])
def test_witness_map_split_searches_one_map_per_orbit(order, orbits):
    # the orbits of the witness maps under the permutations fixing e, by
    # brute force; the tasks pin the skeletons of their least maps, in order
    maps = list(itertools.product(range(order), repeat=order))
    for e in range(order):
        fixing = [p for p in itertools.permutations(range(order)) if p[e] == e]
        least = sorted({min(_conjugate(w, p) for p in fixing) for w in maps})
        assert len(least) == orbits
        _, tasks = engines.sweep_tasks(WMAP, order, (("polysymmetry-at", e, False),))
        pinned = [{c[1:] for c in args["constraints"] if c[0] == "forced"} for args, _ in tasks]
        assert pinned == [
            {(p, 1 << e) for x, xp in enumerate(w) for p in (x * order + xp, xp * order + x)}
            for w in least
        ]


def test_witness_map_split_needs_descriptors_invariant_under_the_relabelings():
    # a pin on cell (1, 1) is moved by the permutations fixing 0: splitting
    # this set by orbits would relabel tables that break the pin
    cs = _qmp(0, ("forced", 5, 0b100))
    assert engines.plan_sweep(4, cs) == BT
    tables, _ = enumeration.sweep(4, [cs])
    assert len(tables) == 2
    assert [t.cells for t in tables] == _swept(BT, 4, cs)
    assert engines.plan_sweep(4, _qmp(0, ("unique-opposite-at", 1))) == BT
    assert engines.plan_sweep(4, _qmp(0, ("unique-opposite-at", 0))) == WMAP


def _rejecting(ident, real):
    return lambda table, i, cand: False if i == ident else real(table, i, cand)


def test_revalidation_raises_on_a_rejected_drop_witness(monkeypatch):
    monkeypatch.setattr(
        theorems, "_id_holds", _rejecting("associative", theorems._id_holds)
    )
    with pytest.raises(RuntimeError, match="revalidation failed"):
        theorems.verify("T3", 2, drop_premises=True)


def test_revalidation_raises_on_a_rejected_counterexample(monkeypatch):
    # T24's weak reading has a counterexample at order 2
    monkeypatch.setattr(
        theorems, "_id_holds", _rejecting("polysymmetry-weak", theorems._id_holds)
    )
    with pytest.raises(RuntimeError, match="revalidation failed"):
        theorems.verify("T24", 2)


def test_revalidation_survives_optimised_bytecode():
    code = (
        "from hyperlab import theorems\n"
        "real = theorems._id_holds\n"
        "theorems._id_holds = lambda t, i, e: i != 'associative' and real(t, i, e)\n"
        "try:\n"
        "    theorems.verify('T3', 2, drop_premises=True)\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = _python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr


def _python(*args):
    """A fresh interpreter on this checkout's sources; a hang fails the test."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120, env=env)


def test_the_candidate_placeholder_survives_pickling():
    # drop searches send conclusions holding E to worker processes
    sent = pickle.loads(pickle.dumps(("reversibility-at", engines.E)))
    assert engines.at(sent, 0) == ("reversibility-at", 0)


class _FakePool:
    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]

    def imap(self, fn, tasks):
        return (fn(t) for t in tasks)

    def terminate(self):
        pass

    def join(self):
        pass


class _FakeContext:
    Pool = _FakePool


def _fake_pools(monkeypatch, cpus):
    """Pools that run in process and record their sizes, on `cpus` CPUs."""
    _FakePool.sizes = []
    monkeypatch.setattr(parallel.multiprocessing, "get_context", lambda method: _FakeContext())
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)


def test_pool_size_is_bounded_by_cpus_and_tasks(monkeypatch):
    _fake_pools(monkeypatch, 4)
    with parallel.pool(10_000):
        assert parallel.parallel_map(abs, [-1]) == [1]
        assert _FakePool.sizes == []  # one task needs no pool
        assert parallel.parallel_map(abs, range(-50, 50)) == [abs(i) for i in range(-50, 50)]
        assert parallel.parallel_map(abs, [-1, -2, -3]) == [1, 2, 3]
        assert parallel.parallel_map(abs, [-1, -2], workers=1) == [1, 2]  # capped: in process
    assert _FakePool.sizes == [4]  # capped by the CPUs, and shared by the calls
    with parallel.pool(3):
        assert parallel.parallel_map(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
    assert _FakePool.sizes == [4, 3]
    assert parallel.parallel_map(abs, [-1, -2], workers=8) == [1, 2]  # no context: in process
    assert _FakePool.sizes == [4, 3]
    _fake_pools(monkeypatch, 1)
    with parallel.pool(8):
        assert parallel.parallel_map(abs, [-1, -2]) == [1, 2]
    assert _FakePool.sizes == []  # one CPU: no pool at all


def test_first_hit_keeps_task_order_and_stops_at_the_hit(monkeypatch):
    _fake_pools(monkeypatch, 4)
    seen = []

    def odd(t):
        seen.append(t)
        return t if t % 2 else None

    for workers in (1, 8):
        seen.clear()
        with parallel.pool(workers):
            assert parallel.first_hit(odd, [2, 4, 5, 6, 7]) == 5
        assert seen == [2, 4, 5]  # the later hit 7 is never computed
    assert _FakePool.sizes == [4]  # capped by the CPUs; one worker needs no pool
    with parallel.pool(8):
        assert parallel.first_hit(odd, [2, 4]) is None
        assert parallel.first_hit(odd, []) is None
        assert parallel.first_hit(odd, [2, 4, 6, 1]) == 1
    assert _FakePool.sizes == [4, 4]  # one pool for the context's calls
    seen.clear()
    assert parallel.first_hit(odd, [2, 3, 5]) == 3  # no context: in process
    assert seen == [2, 3] and _FakePool.sizes == [4, 4]


def test_first_hit_pool_shuts_down_after_every_hit():
    # a pool must not kill a worker that is still sending its result when the
    # hit arrives: the result queue stayed locked and the pool's shutdown
    # waited forever, about once in a hundred calls with these tasks; on a
    # shared pool, a feed left blocked after a hit stalls every later call
    code = (
        "import multiprocessing\n"
        "from hyperlab.parallel import first_hit, parallel_map, pool\n"
        "def fn(t):\n"
        "    sum(range(20000))\n"
        "    return t if t == 1 else None\n"
        "with pool(2):\n"
        "    for i in range(200):\n"
        "        assert first_hit(fn, range(8)) == 1\n"
        "        assert parallel_map(abs, [-i, 1 - i]) == [i, abs(1 - i)]\n"
        "assert not multiprocessing.active_children()\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
