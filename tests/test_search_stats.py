"""The :class:`SearchStats` record every decider's result is.

Each decider — explore, the Def-2 product and its random walk, the
definitional Def-2 pipeline, the Fig-11 witness and its random walk,
Def-3 refinement and the abstract explorer — returns a result that *is*
the search core's record, so ``render_perf`` reads any of them directly.
A decider that wraps another's run reports that run's record unchanged.
"""

from dataclasses import fields

import pytest

import repro.history.object_lin as object_lin_mod
from repro.algorithms import get_algorithm
from repro.engine import EngineSpec
from repro.history.object_lin import (
    check_program_linearizable,
    check_program_linearizable_definitional,
)
from repro.instrument.runner import InstrumentedRunner
from repro.pretty import render_perf
from repro.refinement import check_contextual_refinement
from repro.semantics.abstract import AbstractProgram, explore_abstract
from repro.semantics.mgc import mgc_program, printing_client
from repro.semantics.scheduler import explore
from repro.semantics.search import SearchStats, stats_of

WALK = EngineSpec("random-walk", seed=1, walks=16)


def _witness(alg, engine=None):
    return InstrumentedRunner(alg.instrumented, alg.workload.menu, 2, 1,
                              alg.limits, alg.invariant, alg.guarantee,
                              engine=engine).run()


def _abstract(alg):
    clients = tuple(printing_client(alg.workload.menu, 1, prefix=f"t{t}")
                    for t in (1, 2))
    return explore_abstract(AbstractProgram(alg.spec, clients, (), True),
                            alg.limits)


DECIDERS = {
    "explore": lambda alg, program: explore(program),
    "product": lambda alg, program: check_program_linearizable(
        program, alg.spec, alg.limits),
    "definitional": lambda alg, program:
        check_program_linearizable_definitional(program, alg.spec,
                                                alg.limits),
    "product-walk": lambda alg, program: check_program_linearizable(
        program, alg.spec, alg.limits, engine=WALK),
    "witness": lambda alg, program: _witness(alg),
    "witness-walk": lambda alg, program: _witness(alg, WALK),
    "refinement": lambda alg, program: check_contextual_refinement(
        alg.impl, alg.spec, alg.workload.menu, 2, 1, alg.limits),
    "abstract": lambda alg, program: _abstract(alg),
}


@pytest.mark.parametrize("decider", sorted(DECIDERS))
def test_every_decider_result_is_the_record(decider, monkeypatch):
    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu, threads=2,
                          ops_per_thread=1)
    wrapped = []
    tap = object_lin_mod.explore

    def tapped(*args, **kwargs):
        wrapped.append(tap(*args, **kwargs))
        return wrapped[-1]

    monkeypatch.setattr(object_lin_mod, "explore", tapped)
    result = DECIDERS[decider](alg, program)
    assert isinstance(result, SearchStats)
    assert result.nodes > 0
    text = render_perf(result)
    assert text.startswith(f"nodes={result.nodes}")
    assert f"reduce={result.reduce}" in text
    if decider == "definitional":
        (run,) = wrapped
        assert stats_of(result) == stats_of(run)


def test_add_counters_covers_every_counter():
    """Every numeric field but ``nodes`` (which the parallel merge
    attributes by digest) is a counter the add method sums, so a
    counter added to the record later cannot be left out of it."""

    numeric = [f.name for f in fields(SearchStats)
               if f.type in ("int", "float", int, float)]
    assert "nodes" in numeric and "elapsed" in numeric
    acc = SearchStats()
    acc.add_counters(SearchStats(**{name: 1 for name in numeric}))
    summed = {name for name in numeric if getattr(acc, name) == 1}
    assert summed == set(numeric) - {"nodes"}
    acc.add_counters(SearchStats(**{name: 2 for name in numeric}))
    assert all(getattr(acc, name) == 3 for name in summed)


def test_shared_fields_are_declared_only_on_the_record():
    """The result types add only their own verdict fields."""

    from repro.instrument.runner import InstrumentedRunResult
    from repro.refinement import RefinementResult
    from repro.semantics.abstract import AbsExplorationResult
    from repro.semantics.scheduler import ExplorationResult

    shared = {f.name for f in fields(SearchStats)}
    for cls in (ExplorationResult, object_lin_mod.ObjectLinResult,
                InstrumentedRunResult, AbsExplorationResult,
                RefinementResult):
        assert issubclass(cls, SearchStats)
        own = set(vars(cls).get("__annotations__", {}))
        assert not own & shared, (cls.__name__, own & shared)
