"""Per-layer tracing of hyperlab from outside the package.

`Tracer.install()` rebinds the public entry points of each layer (cli,
theorems, enumeration, engines, axioms, classify, model, modelio, parallel,
dorroh) to wrappers that push a span on an in-memory stack.  Functions that
other modules import by name (`check_law`, `canonical_form`,
`serialize_model`, `parallel_map`, ...) are rebound in every `hyperlab`
module that holds them, not only on their home module.  `uninstall()` puts
every original back and fails if a wrapper is left anywhere.

Spans are aggregated by (parent, name): calls, inclusive seconds and self
seconds, where self time is a span's duration minus the time of the spans
nested inside it.  A layer's self time is the sum over its spans.
"""

import sys
import time
from collections import Counter

import numpy as np

from hyperlab import (
    axioms,
    classify,
    cli,
    dorroh,
    engines,
    enumeration,
    model,
    modelio,
    parallel,
    theorems,
)

# Counters that depend only on the inputs; two traced runs must agree on them.
EXACT_COUNTERS = (
    "engines.bt.nodes",
    "engines.bt.pruned",
    "engines.bt.solutions",
    "engines.v3_eval.calls",
    "axioms.check_law.calls",
    "axioms.check_ring_axioms.calls",
    "classify.single.calls",
    "classify.two_op.calls",
    "model.canonical_form.calls",
    "model.hypermodule_builds",
)

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start, child seconds]
        self.spans = {}  # (parent, name) -> [calls, total_s, self_s]
        self.counts = Counter()
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, _perf(), 0.0])

    def exit(self):
        name, start, child = self.stack.pop()
        dur = _perf() - start
        parent = None
        if self.stack:
            top = self.stack[-1]
            top[2] += dur
            parent = top[0]
        rec = self.spans.get((parent, name))
        if rec is None:
            rec = self.spans[(parent, name)] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Replace `original` wherever a hyperlab module binds it."""
        wrapper.__wrapped__ = original
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperlab" or mod_name.startswith("hyperlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original, wrapper))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no binding of {original!r} found")

    def _patch_attr(self, owner, attr, wrapper):
        wrapper.__wrapped__ = getattr(owner, attr)
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        simple = [
            (cli.main, "cli.main"),
            (theorems.verify, "theorems.verify"),
            (enumeration.golden_check, "enumeration.golden_check"),
            (axioms.check_law, "axioms.check_law"),
            (axioms.check_ring_axioms, "axioms.check_ring_axioms"),
            (classify.classify_single, "classify.single"),
            (classify.classify_two_op, "classify.two_op"),
            (model.canonical_form, "model.canonical_form"),
            (model.canonical_form_two_op, "model.canonical_form_two_op"),
            (modelio.serialize_model, "modelio.serialize_model"),
        ]
        for fn, name in simple:
            self._rebind(fn, self._span(name, fn))
        self._rebind(engines.v3_eval, self._v3_eval(engines.v3_eval))
        self._rebind(parallel.parallel_map, self._parallel_map(parallel.parallel_map))
        self._rebind(
            enumeration.enumerate_models, self._enumerate_models(enumeration.enumerate_models)
        )
        self._rebind(
            dorroh.associativity_probe, self._associativity_probe(dorroh.associativity_probe)
        )
        bt = engines.Backtracker
        self._patch_attr(bt, "__init__", self._bt_init(bt.__init__))
        self._patch_attr(bt, "search", self._bt_search(bt.search))
        hm = model.HypermoduleModel
        self._patch_attr(hm, "__post_init__", self._count_builds(hm.__post_init__))

    def uninstall(self):
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)
        wrappers = {id(w) for _, _, _, w in self._patches}
        self._patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hyperlab" or mod_name.startswith("hyperlab.")):
                continue
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    raise RuntimeError(f"wrapper left at {mod_name}.{attr}")

    # -- wrappers that also count ------------------------------------------

    def _v3_eval(self, fn):
        tracer = self

        def v3_eval(cells, constraints):
            tracer.enter("engines.v3_eval")
            try:
                mask = fn(cells, constraints)
            finally:
                tracer.exit()
            tails = max(np.size(c) for c in cells)
            kept = int(np.count_nonzero(mask))
            if np.ndim(mask) == 0:
                kept *= tails
            counts = tracer.counts
            counts["engines.v3_eval.constraints"] += len(constraints)
            counts["engines.v3_eval.tails"] += tails
            counts["engines.v3_eval.kept"] += kept
            return mask

        return v3_eval

    def _parallel_map(self, fn):
        tracer = self

        def parallel_map(f, tasks, workers=1):
            tasks = list(tasks)
            tracer.counts["parallel.tasks"] += len(tasks)
            tracer.enter("parallel.parallel_map")
            try:
                return fn(f, tasks, workers)
            finally:
                tracer.exit()

        return parallel_map

    def _enumerate_models(self, fn):
        tracer = self

        def enumerate_models(job, workers=1):
            before = tracer.counts["engines.bt.solutions"]
            tracer.enter("enumeration.enumerate_models")
            try:
                summary = fn(job, workers)
            finally:
                tracer.exit()
            solutions = tracer.counts["engines.bt.solutions"] - before
            if solutions:  # oracle-mode jobs run no backtracker
                tracer.counts["enumeration.bt_solutions"] += solutions
                tracer.counts["enumeration.kept"] += summary.raw_count
            return summary

        return enumerate_models

    def _associativity_probe(self, fn):
        tracer = self

        def associativity_probe(*args, **kwargs):
            tracer.enter("dorroh.associativity_probe")
            try:
                report = fn(*args, **kwargs)
            finally:
                tracer.exit()
            tracer.counts["dorroh.triples"] += report.triples_checked
            return report

        return associativity_probe

    def _bt_init(self, fn):
        tracer = self

        def __init__(bt, spec):
            tracer.counts["engines.bt.builds"] += 1
            tracer.enter("engines.bt.build")
            try:
                fn(bt, spec)
            finally:
                tracer.exit()

        return __init__

    def _bt_search(self, fn):
        """Busy time is taken per resumption of the search generator; node
        and prune counts are read from the instance when it ends or closes."""
        tracer = self

        def search(bt, *args, **kwargs):
            gen = fn(bt, *args, **kwargs)
            counts = tracer.counts
            try:
                while True:
                    tracer.enter("engines.bt.search")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    counts["engines.bt.solutions"] += 1
                    yield item
            finally:
                gen.close()
                counts["engines.bt.nodes"] += getattr(bt, "nodes", 0)
                counts["engines.bt.pruned"] += getattr(bt, "pruned", 0)

        return search

    def _count_builds(self, fn):
        counts = self.counts

        def __post_init__(hm):
            counts["model.hypermodule_builds"] += 1
            fn(hm)

        return __post_init__

    # -- results -----------------------------------------------------------

    def span_table(self) -> list:
        """Aggregated spans, for writing out when the run ends."""
        return [
            {"parent": parent, "name": name, "calls": c, "total_s": t, "self_s": s}
            for (parent, name), (c, t, s) in sorted(
                self.spans.items(), key=lambda kv: (kv[0][0] or "", kv[0][1])
            )
        ]

    def metrics(self) -> dict:
        calls, total, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
        for (_parent, name), (c, t, s) in self.spans.items():
            calls[name] += c
            total[name] += t
            self_s[name] += s
            layer_self[name.split(".", 1)[0]] += s
        k = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def us_per_call(*names):
            return ratio(sum(total[n] for n in names) * 1e6, sum(calls[n] for n in names))

        bt_s = self_s["engines.bt.search"]
        return {
            "engines.v3_eval.calls": calls["engines.v3_eval"],
            "engines.v3_eval.s": total["engines.v3_eval"],
            "engines.v3_eval.ms_per_constraint": ratio(
                total["engines.v3_eval"] * 1e3, k["engines.v3_eval.constraints"]
            ),
            "engines.v3_eval.pass_ratio": ratio(
                k["engines.v3_eval.kept"], k["engines.v3_eval.tails"]
            ),
            "engines.bt.builds": k["engines.bt.builds"],
            "engines.bt.build_s": total["engines.bt.build"],
            "engines.bt.nodes": k["engines.bt.nodes"],
            "engines.bt.pruned": k["engines.bt.pruned"],
            "engines.bt.prune_ratio": ratio(k["engines.bt.pruned"], k["engines.bt.nodes"]),
            "engines.bt.solutions": k["engines.bt.solutions"],
            "engines.bt.s": bt_s,
            "engines.bt.nodes_per_s": ratio(k["engines.bt.nodes"], bt_s),
            "axioms.check_law.calls": calls["axioms.check_law"],
            "axioms.check_law.us": us_per_call("axioms.check_law"),
            "axioms.check_ring_axioms.calls": calls["axioms.check_ring_axioms"],
            "axioms.check_ring_axioms.us": us_per_call("axioms.check_ring_axioms"),
            "classify.single.calls": calls["classify.single"],
            "classify.single.us": us_per_call("classify.single"),
            "classify.two_op.calls": calls["classify.two_op"],
            "classify.two_op.us": us_per_call("classify.two_op"),
            "model.canonical_form.calls": (
                calls["model.canonical_form"] + calls["model.canonical_form_two_op"]
            ),
            "model.canonical_form.us": us_per_call(
                "model.canonical_form", "model.canonical_form_two_op"
            ),
            "model.hypermodule_builds": k["model.hypermodule_builds"],
            "enumeration.accept_ratio": ratio(
                k["enumeration.kept"], k["enumeration.bt_solutions"]
            ),
            "enumeration.self_s": layer_self["enumeration"],
            "theorems.self_s": layer_self["theorems"],
            "modelio.serialize_model.calls": calls["modelio.serialize_model"],
            "modelio.serialize_model.us": us_per_call("modelio.serialize_model"),
            "cli.self_s": layer_self["cli"],
            "parallel.tasks": k["parallel.tasks"],
            "parallel.map_s": total["parallel.parallel_map"],
            "dorroh.triples_per_s": ratio(
                k["dorroh.triples"], total["dorroh.associativity_probe"]
            ),
        }
