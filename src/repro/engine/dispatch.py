"""Routing of exploration requests to the selected engine.

This module is the single junction between the exploration entry points
(:func:`repro.semantics.scheduler.explore`, the Definition-2 product
engine, the instrumented runner) and the engines that can serve them:
each ``dispatch_*`` runs the sequential search, the parallel driver or
the random walk, as ``EngineSpec.kind`` says.
"""

from __future__ import annotations

from .api import PARALLEL, RANDOM_WALK, EngineSpec


# ---------------------------------------------------------------------------
# Plain exploration
# ---------------------------------------------------------------------------


def dispatch_explore(program, limits, spec: EngineSpec):
    """Serve one :func:`~repro.semantics.scheduler.explore` request."""

    from ..semantics.scheduler import Explorer, Limits

    limits = limits or Limits()
    if spec.kind == RANDOM_WALK:
        from .random_walk import random_walk_explore

        return random_walk_explore(program, limits,
                                   walks=spec.walks, seed=spec.seed,
                                   reduce=spec.reduce,
                                   semantics=spec.semantics)
    if spec.kind == PARALLEL:
        from .parallel import ExploreProblem, run_parallel

        return run_parallel(ExploreProblem(program, limits,
                                           reduce=spec.reduce,
                                           semantics=spec.semantics),
                            spec.effective_workers(), spec.spill_nodes)
    return Explorer(program, limits, reduce=spec.reduce,
                    semantics=spec.semantics).run()


# ---------------------------------------------------------------------------
# Definition-2 product engine
# ---------------------------------------------------------------------------


def dispatch_product_lin(program, ospec, limits, theta, spec: EngineSpec):
    """Serve one :func:`~repro.history.object_lin.check_program_linearizable`."""

    from ..history.object_lin import ProductSearch
    from ..semantics.scheduler import Limits

    limits = limits or Limits()
    if spec.kind == RANDOM_WALK:
        from .random_walk import random_walk_lin

        return random_walk_lin(program, ospec, limits,
                               walks=spec.walks, seed=spec.seed,
                               theta=theta, reduce=spec.reduce,
                               semantics=spec.semantics)
    if spec.kind == PARALLEL:
        from .parallel import ProductLinProblem, run_parallel

        return run_parallel(ProductLinProblem(program, ospec, limits,
                                              theta=theta,
                                              reduce=spec.reduce,
                                              semantics=spec.semantics),
                            spec.effective_workers(), spec.spill_nodes)
    return ProductSearch(program, ospec, limits, theta,
                         reduce=spec.reduce,
                         semantics=spec.semantics).run()


# ---------------------------------------------------------------------------
# Instrumented runner
# ---------------------------------------------------------------------------


def dispatch_instrumented(runner, spec: EngineSpec):
    """Serve one :meth:`~repro.instrument.runner.InstrumentedRunner.run`."""

    if spec.kind == RANDOM_WALK:
        from .random_walk import random_walk_instrumented

        return random_walk_instrumented(runner, walks=spec.walks,
                                        seed=spec.seed)
    if spec.kind == PARALLEL:
        from .parallel import InstrumentedProblem, run_parallel

        probe = runner.new_result(engine="parallel")
        start = runner.initial_config(probe)
        if start is None:
            probe.ok = False
            return probe
        return run_parallel(InstrumentedProblem(runner, start),
                            spec.effective_workers(), spec.spill_nodes)
    return runner.run_sequential()
