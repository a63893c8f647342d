"""Layer tracing from outside the engine.

:func:`install` replaces the entry points of each engine layer with
wrappers that record one span per call.  Nothing under ``src/`` changes:
the wrappers are installed on module and class attributes, in the traced
child process only, after ``repro`` is imported.  A name is patched where
its caller looks it up at call time (``from x import f`` binds ``f`` in
the importing module, so that module's binding is the one replaced).

A span records its layer, start, end, parent span and check id.  Spans
stay in memory (compact arrays, capped) and are written out once the
pass ends; self time (a span minus the spans it directly contains) and
call counts are accumulated per layer as spans close.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Spans kept per pass; later spans are still timed but not logged.
MAX_SPANS = 3_000_000


class Tracer:
    """Per-layer self time, call counts and a span log."""

    def __init__(self) -> None:
        self.on = False
        #: Id of the check being run (0 while setting up).
        self.check = 0
        self.layers: List[str] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        #: Counts recorded by the wrappers' observers (e.g. how many
        #: canonicalizations changed the configuration).
        self.counts: Dict[str, float] = {}
        # Open spans: [time covered by direct children, span id].
        self._stack: List[list] = [[0.0, -1]]
        self._layer_ids: Dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_check = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return lid

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, layer: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``layer`` span per call while tracing is on.

        ``observe(result)`` runs after each traced call, outside the
        span, to record counts about the result.
        """

        lid = self.layer_id(layer)
        stack, self_s, calls = self._stack, self.self_s, self.calls
        layers, parents, checks = (self.span_layer, self.span_parent,
                                   self.span_check)
        starts, ends = self.span_start, self.span_end
        clock = perf_counter

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            t0 = clock()
            parent = stack[-1]
            sid = len(starts)
            if sid < MAX_SPANS:
                layers.append(lid)
                parents.append(parent[1])
                checks.append(self.check)
                starts.append(t0)
                ends.append(t0)
            else:
                sid = -1
            frame = [0.0, sid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[lid] += elapsed - frame[0]
                calls[lid] += 1
                parent[0] += elapsed
                if sid >= 0:
                    ends[sid] = t1
            if observe is not None:
                observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def self_time(self, layer: str) -> float:
        lid = self._layer_ids.get(layer)
        return 0.0 if lid is None else self.self_s[lid]

    def call_count(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        return 0 if lid is None else self.calls[lid]

    def dump(self, path: Path) -> None:
        """Write the span log: a JSON header plus the raw arrays."""

        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_layer, self.span_parent, self.span_check,
                  self.span_start, self.span_end)
        header = {
            "layers": self.layers,
            "spans": len(self.span_end),
            "columns": [["layer", "i"], ["parent", "q"], ["check", "i"],
                        ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points with ``tracer`` spans."""

    import repro.compile as compile_pkg
    import repro.engine.canonical as canonical
    import repro.engine.parallel as parallel
    import repro.instrument.runner as runner
    import repro.reduce as reduce_pkg
    import repro.reduce.eligibility as eligibility
    import repro.reduce.policy as policy
    import repro.refinement.contextual as contextual
    import repro.semantics.scheduler as scheduler
    from repro.history.monitor import SpecMonitor
    from repro.reduce.intern import Interner
    from repro.reduce.symmetry import ThreadPermuter

    def patch(owner, name, layer, observe=None):
        setattr(owner, name, tracer.wrap(layer, getattr(owner, name), observe))

    # semantics.scheduler: the Explorer binds its step and invisible-
    # compression callables per instance, compiled or interpreted.
    explorer_init = scheduler.Explorer.__init__

    def traced_init(self, *args, **kwargs):
        explorer_init(self, *args, **kwargs)
        compiled = self.compiled is not None
        self._step = tracer.wrap(
            "compile.step" if compiled else "thread", self._step)
        self._visible = tracer.wrap(
            "compile.visible" if compiled else "thread", self._visible)

    scheduler.Explorer.__init__ = traced_init
    patch(compile_pkg, "compile_program", "compile.lower")

    # semantics.thread, as the instrumented runner calls it.
    patch(runner, "run_block", "thread")
    patch(runner, "expand_until_visible", "thread")

    # reduce.*
    def canon_observe(out):
        if out[1]:
            tracer.count("canon.changed")

    patch(scheduler, "canonicalize_config", "symmetry.canon", canon_observe)
    patch(reduce_pkg, "canonicalize_config", "symmetry.canon", canon_observe)
    patch(scheduler, "step_keeps_canonical", "symmetry.keeps",
          lambda out: out and tracer.count("keeps.true"))
    patch(ThreadPermuter, "permute_config", "symmetry.permute")
    patch(scheduler, "close_traces", "symmetry.close")
    patch(scheduler, "compute_owner", "ownership")
    patch(scheduler, "footprints_independent", "footprint")
    patch(Interner, "config", "intern")
    patch(Interner, "thread_state", "intern")
    patch(scheduler, "resolve_policy", "eligibility")
    patch(eligibility, "scan_thread_symmetry", "eligibility")
    patch(policy, "scan_thread_symmetry", "eligibility")

    # history.monitor
    patch(SpecMonitor, "step", "monitor",
          lambda out: tracer.count("monitor.states", len(out)))

    # refinement and semantics.abstract
    patch(contextual, "concrete_observables", "scheduler")
    patch(contextual, "abstract_observables", "abstract")
    patch(contextual, "check_clients_refinement", "refinement.inclusion")

    # instrument: the Fig-11 handler and the Δ obligations.  The runner
    # checks domain exactness on every shared state, so the Δ size is
    # sampled there.
    dom_exact = runner.dom_exact

    def sized_dom_exact(delta):
        tracer.count("delta.size", len(delta))
        tracer.count("delta.states")
        return dom_exact(delta)

    patch(runner, "instrumented_handler", "instrument.aux")
    runner.dom_exact = tracer.wrap("instrument.obligation", sized_dom_exact)

    # engine.parallel / engine.canonical, parent side only: forked pool
    # workers turn tracing off before their first task.
    problem = parallel.ProductLinProblem
    patch(problem, "merge", "parallel.merge",
          lambda out: tracer.count("parallel.tasks"))
    patch(problem, "dedup_key", "parallel.merge")
    patch(problem, "run_task", "scheduler")
    patch(parallel.ParallelDriver, "run", "parallel.wait")
    patch(canonical, "canonical_digest", "canonical.digest")
    init_worker = parallel._init_worker

    def untraced_worker(problem_):
        tracer.on = False
        init_worker(problem_)

    parallel._init_worker = untraced_worker


#: Per-layer metrics of a traced pass, with units.
LAYER_METRICS = {
    "scheduler.self_s": "s",
    "scheduler.dedup_hit_ratio": "ratio",
    "runner.self_s": "s",
    "compile.step_s": "s",
    "compile.step_calls": "count",
    "compile.visible_s": "s",
    "compile.lower_s": "s",
    "thread.step_s": "s",
    "thread.step_calls": "count",
    "symmetry.canon_s": "s",
    "symmetry.canon_calls": "count",
    "symmetry.canon_merge_ratio": "ratio",
    "symmetry.keeps_canonical_ratio": "ratio",
    "symmetry.permute_s": "s",
    "symmetry.tsym_merged": "count",
    "symmetry.close_s": "s",
    "ownership.owner_s": "s",
    "ownership.owner_calls": "count",
    "ownership.por_pruned": "count",
    "footprint.indep_s": "s",
    "footprint.sleep_skipped": "count",
    "intern.s": "s",
    "intern.calls": "count",
    "eligibility.scan_s": "s",
    "monitor.step_s": "s",
    "monitor.step_calls": "count",
    "monitor.states_mean": "count",
    "abstract.s": "s",
    "refinement.inclusion_s": "s",
    "instrument.aux_s": "s",
    "instrument.obligation_s": "s",
    "instrument.obligation_calls": "count",
    "instrument.delta_mean": "count",
    "parallel.reexplored": "count",
    "parallel.useful_ratio": "ratio",
    "parallel.tasks": "count",
    "parallel.merge_s": "s",
    "parallel.wait_s": "s",
    "canonical.digest_s": "s",
}


def layer_metrics(tracer: Tracer, totals: Dict[str, int]) -> Dict[str, float]:
    """The :data:`LAYER_METRICS` of one traced pass.

    ``totals`` sums the engine's own result counters over the pass's
    checks (``dedup_hits``, ``por_pruned``, ...; ``parallel_nodes`` sums
    the nodes of its parallel checks only).  A layer the workload never
    reaches reports 0.
    """

    s, n = tracer.self_time, tracer.call_count

    def c(name):
        return tracer.counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    nodes, reexplored = totals["parallel_nodes"], totals["reexplored"]
    tasks = c("parallel.tasks")
    return {
        "scheduler.self_s": s("scheduler"),
        "scheduler.dedup_hit_ratio": ratio(totals["dedup_hits"],
                                           totals["dedup_lookups"]),
        "runner.self_s": s("runner"),
        "compile.step_s": s("compile.step"),
        "compile.step_calls": n("compile.step"),
        "compile.visible_s": s("compile.visible"),
        "compile.lower_s": s("compile.lower"),
        "thread.step_s": s("thread"),
        "thread.step_calls": n("thread"),
        "symmetry.canon_s": s("symmetry.canon") + s("symmetry.keeps"),
        "symmetry.canon_calls": n("symmetry.canon"),
        "symmetry.canon_merge_ratio": ratio(c("canon.changed"),
                                            n("symmetry.canon")),
        "symmetry.keeps_canonical_ratio": ratio(c("keeps.true"),
                                                n("symmetry.keeps")),
        "symmetry.permute_s": s("symmetry.permute"),
        "symmetry.tsym_merged": totals["tsym_merged"],
        "symmetry.close_s": s("symmetry.close"),
        "ownership.owner_s": s("ownership"),
        "ownership.owner_calls": n("ownership"),
        "ownership.por_pruned": totals["por_pruned"],
        "footprint.indep_s": s("footprint"),
        "footprint.sleep_skipped": totals["sleep_skipped"],
        "intern.s": s("intern"),
        "intern.calls": n("intern"),
        "eligibility.scan_s": s("eligibility"),
        "monitor.step_s": s("monitor"),
        "monitor.step_calls": n("monitor"),
        "monitor.states_mean": ratio(c("monitor.states"), n("monitor")),
        "abstract.s": s("abstract"),
        "refinement.inclusion_s": s("refinement.inclusion"),
        "instrument.aux_s": s("instrument.aux"),
        "instrument.obligation_s": s("instrument.obligation"),
        "instrument.obligation_calls": n("instrument.obligation"),
        "instrument.delta_mean": ratio(c("delta.size"), c("delta.states")),
        "parallel.reexplored": reexplored,
        "parallel.useful_ratio": (ratio(nodes, nodes + reexplored)
                                  if tasks else 0.0),
        "parallel.tasks": tasks,
        "parallel.merge_s": s("parallel.merge"),
        "parallel.wait_s": s("parallel.wait"),
        "canonical.digest_s": s("canonical.digest"),
    }
