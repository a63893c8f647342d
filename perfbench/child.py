"""One measured pass of a workload, in a fresh process.

Usage: ``python3 perfbench/child.py WORKLOAD SIZE MODE [SPANS_FILE]``
with MODE one of ``plain`` (untraced), ``traced`` or ``setup`` (set up,
then exit).  Run from the root of a checkout; ``run.py`` drives it.

The child sets up -- imports ``repro``, builds every row's program or
instrumented runner and constructs its checker, which lowers the
program and runs the eligibility, escape and thread-symmetry scans (all
cached per program, so the timed check reuses them) -- then prints
``READY``.  The parent times fresh process to ``READY`` as set-up, less
the time the child spent on speed sampling (``speed.py``), which the
``READY`` line gives with the speed the set-up ran at.  The child then
runs every check through the deciders' public entry points, timing each
and sampling the speed around it, and inside it when the check is
sequential and the pass untraced.  It prints one JSON line: the
per-check records with their speeds, the peak RSS less the sampler's
table and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from speed import Speedometer  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402
from workloads import RACY, Row, rows_for  # noqa: E402

#: Engine counters summed over a pass (absent ones count 0).
COUNTERS = ("dedup_hits", "dedup_lookups", "por_pruned", "sleep_skipped",
            "tsym_merged", "reexplored")


def _algorithm(name: str):
    from repro.algorithms import get_algorithm
    from repro.algorithms.base import DEFAULT_LIMITS
    from repro.algorithms.counter_nonatomic import (
        instrumented_racy_counter,
        racy_counter,
    )
    from repro.algorithms.specs import counter_spec

    if name != RACY:
        return get_algorithm(name)
    return SimpleNamespace(
        impl=racy_counter(), spec=counter_spec(),
        instrumented=instrumented_racy_counter(),
        workload=SimpleNamespace(menu=[("inc", 0)]),
        invariant=None, guarantee=None, limits=DEFAULT_LIMITS)


def build(row: Row, tracer: Tracer, explored: list):
    """Set up ``row``; return a callable running its check to a record."""

    from repro.engine import EngineSpec
    from repro.history.object_lin import check_program_linearizable
    from repro.instrument.runner import InstrumentedRunner
    from repro.lang.program import Program
    import repro.refinement.contextual as contextual
    from repro.semantics.mgc import mgc_program, printing_client
    from repro.semantics.scheduler import Explorer

    alg = _algorithm(row.algorithm)
    kind, reduce, workers = row.engine
    engine = EngineSpec(kind, workers=workers, memo=False, reduce=reduce,
                        semantics="compiled")
    menu = alg.workload.menu
    record = {"engine": engine.spelling(), "workers": workers}

    if row.decider == "witness":
        def obligation(fn):
            return None if fn is None else tracer.wrap(
                "instrument.obligation", fn)

        runner = InstrumentedRunner(
            alg.instrumented, menu, row.threads, row.ops, alg.limits,
            obligation(alg.invariant), obligation(alg.guarantee),
            engine=engine)

        def check():
            result = runner.run()
            return result, result, {
                "nodes": result.nodes, "histories": len(result.histories),
                "failure": (result.failures[0].kind if result.failures
                            else None)}
    elif row.decider == "product":
        program = mgc_program(alg.impl, menu, row.threads, row.ops)
        Explorer(program, reduce=engine.reduce, semantics=engine.semantics)

        def check():
            result = check_program_linearizable(program, alg.spec,
                                                alg.limits, engine=engine)
            return result, result, {
                "nodes": result.nodes_explored,
                "histories": result.histories_checked}
    else:
        # The check builds an equal Program from the same parts, which
        # finds this one's cached lowering and scans while it is alive.
        program = Program(alg.impl, tuple(
            printing_client(menu, row.ops, prefix=f"t{t}")
            for t in range(1, row.threads + 1)), (), True)
        Explorer(program, reduce=engine.reduce, semantics=engine.semantics)

        def check():
            del explored[:]
            result = contextual.check_clients_refinement(
                program.object_impl, alg.spec, program.clients, alg.limits,
                private_client_vars=True, engine=engine)
            concrete = explored[-1]
            return result, concrete, {
                "nodes": concrete.nodes,
                "histories": result.concrete_traces}

    def run() -> dict:
        try:
            result, stats, counts = check()
        except Exception as exc:  # a raising check is a failed check
            traceback.print_exc()
            return {**record, "name": row.name, "decider": row.decider,
                    "error": f"{type(exc).__name__}: {exc}",
                    "ok": None, "bounded": False, "nodes": 0,
                    "histories": 0}
        return {
            **record, **counts,
            "name": row.name, "decider": row.decider,
            "ok": bool(result.ok), "bounded": bool(result.bounded),
            "reduce": getattr(stats, "reduce", None),
            "reduce_reasons": list(getattr(stats, "reduce_reasons", ())),
            "semantics": getattr(stats, "semantics", None),
            "semantics_reasons": list(getattr(stats, "semantics_reasons",
                                              ())),
            **{k: getattr(stats, k, 0) for k in COUNTERS},
        }

    return run


def tap_concrete_explorations() -> list:
    """Record each exploration result of a refinement check's concrete
    side: its ``RefinementResult`` carries no node count or engine
    provenance."""

    import repro.refinement.observable as observable

    explored: list = []
    explore = observable.explore

    def tapped(*args, **kwargs):
        result = explore(*args, **kwargs)
        explored.append(result)
        return result

    observable.explore = tapped
    return explored


def main(argv) -> int:
    workload, size, mode = argv[:3]
    meter = Speedometer()  # first, so its time and memory are exact
    # Sampling interrupts would land inside traced spans.
    interrupt = mode != "traced"
    tracer = Tracer()
    rows = rows_for(workload, size)

    def set_up():
        import repro  # noqa: F401  (set-up includes the package import)

        if mode == "traced":
            install(tracer)
            tracer.on = True
        explored = tap_concrete_explorations()
        return [build(row, tracer, explored) for row in rows]

    runs, _, speed = meter.run(set_up, interrupt)
    # What the parent must not count as set-up, and the set-up's speed.
    print("READY", meter.build_s + meter.spent, speed, flush=True)
    if mode == "setup":
        return 0

    checks = []
    for i, (row, run) in enumerate(zip(rows, runs), 1):
        # The check's own span: its self time is the search loop, the
        # scheduler's or (for witness rows) the instrumented runner's.
        tracer.check = i
        layer = "runner" if row.decider == "witness" else "scheduler"
        record, seconds, speed = meter.run(
            tracer.wrap(layer, run),
            interrupt and row.engine[0] == "sequential")
        checks.append({**record, "seconds": seconds, "speed": speed})
    tracer.on = False
    out = {
        "checks": checks,
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                   - meter.mb),
    }
    if mode == "traced":
        totals = {k: sum(c.get(k, 0) for c in checks) for k in COUNTERS}
        totals["parallel_nodes"] = sum(c["nodes"] for c in checks
                                       if c["workers"])
        out["layers"] = layer_metrics(tracer, totals)
        out["self_s"] = dict(zip(tracer.layers, tracer.self_s))
        tracer.dump(Path(argv[3]))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
