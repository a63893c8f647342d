"""The :class:`SearchStats` record every decider's result is.

Each decider — explore, the Def-2 product and the Fig-11 witness with
their random walks, the definitional Def-2 pipeline, Def-3 refinement
and the abstract explorer — returns a result that *is* the search
core's record, so ``render_perf`` reads any of them directly.
A decider that wraps another's run reports that run's record unchanged.

The search core charges each node with the one
:class:`~repro.semantics.search.Expansion` it keeps and notes the cuts
of every expansion it computed; a stub explorer whose expansions are a
table drives each re-expansion path (cycle proviso, sleep-wake), an
early stop and a budget spill.  The random walks run the same rules
through :func:`~repro.semantics.search.walk`, which the stub drives
through a terminal node, a cut, ``done`` and an early stop.

The search core also pauses the cyclic collector while it searches or
walks: it is back in its entry state on every exit path, and no
decider's run leaves cyclic garbage for the pause to hide.
"""

import gc
from dataclasses import fields

import pytest

import repro.history.object_lin as object_lin_mod
from repro.algorithms import get_algorithm
from repro.algorithms.counter_nonatomic import racy_counter
from repro.algorithms.specs import counter_spec
from repro.engine import EngineSpec
from repro.engine.random_walk import (
    random_walk_explore,
    random_walk_instrumented,
    random_walk_lin,
)
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
from repro.semantics.search import (
    NO_SLEEP,
    Expansion,
    SearchStats,
    StopSearch,
    search,
    stats_of,
    walk,
)

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
    "explore-walk": lambda alg, program: explore(program, engine=WALK),
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


def _treiber_walks():
    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu, threads=2,
                          ops_per_thread=1)
    runner = InstrumentedRunner(alg.instrumented, alg.workload.menu, 2, 1,
                                alg.limits, alg.invariant, alg.guarantee)
    return {
        "explore": random_walk_explore(program, alg.limits, walks=64),
        "product": random_walk_lin(program, alg.spec, alg.limits, walks=64),
        "witness": random_walk_instrumented(runner, walks=64),
    }


def test_random_walks_fill_the_record():
    """Every walk times itself, and the explorer's walks charge the
    reduction counts of the expansions they step through."""

    walks = _treiber_walks()
    for name, result in walks.items():
        assert not result.exhaustive and result.nodes > 0, name
        assert result.elapsed > 0, name
        assert "nodes/sec=" in render_perf(result), name
    for name in ("explore", "product"):
        assert walks[name].reduce != "none"
        assert walks[name].por_pruned > 0, name


# ---------------------------------------------------------------------------
# The search core charges the expansion it keeps
# ---------------------------------------------------------------------------


def _expansion(successors=(), sleeps=None, reduced=False, pruned=0,
               slept=0, merged=0, tmerged=0, cuts=()):
    return Expansion(tuple((config, None) for config in successors),
                     sleeps, reduced, pruned, slept, merged, tmerged, cuts)


class StubExplorer:
    """An explorer whose expansions are a table keyed on
    ``(config, full, sleep)``; it records every call."""

    _tsym = None

    def __init__(self, table):
        self.table = table
        self.calls = []

    def _expand(self, config, full=False, sleep=NO_SLEEP, tsym_k=None,
                memo=None):
        self.calls.append((config, full, sleep))
        return self.table[config, full, sleep]


def _advance(next_config, label, event):
    return label, next_config


def _run(table, roots, budget=100, advance=_advance):
    """Search from ``roots`` (configurations, which are their own keys)
    on a stub explorer; returns the result, the spill and the calls."""

    stub = StubExplorer(table)
    result = SearchStats()
    terminal = []
    spill = search([(c, None, 0, c) for c in roots], budget, result,
                   advance, 10, explorer=stub, terminal=terminal.append)
    return result, spill, stub.calls, terminal


def _counts(result):
    return (result.por_pruned, result.sleep_skipped, result.sym_merged,
            result.tsym_merged)


def test_cycle_proviso_charges_only_the_full_expansion():
    """A's reduced expansion only reaches the already-seen B: it is
    discarded for the unreduced one, uncharged, but its cut is noted."""

    table = {
        ("A", False, NO_SLEEP): _expansion(
            "B", reduced=True, pruned=1000, merged=1000, tmerged=1000,
            cuts=("reduced cut",)),
        ("A", True, NO_SLEEP): _expansion(
            "BC", merged=1, tmerged=2, cuts=("full cut",)),
        ("B", False, NO_SLEEP): _expansion(merged=10),
        ("C", False, NO_SLEEP): _expansion(merged=100),
    }
    result, spill, calls, terminal = _run(table, "BA")
    assert spill == [] and result.nodes == 3
    assert calls[:2] == [("A", False, NO_SLEEP), ("A", True, NO_SLEEP)]
    assert _counts(result) == (0, 0, 111, 2)
    assert result.bounded
    assert result.diagnostics == ("reduced cut", "full cut")
    assert sorted(terminal) == ["B", "C"]


def test_sleep_wake_charges_only_the_awake_expansion():
    """B is reached with thread 2 asleep and every runnable thread is
    asleep there: it is expanded again awake, and the slept expansion
    is not charged."""

    asleep = frozenset({2})
    table = {
        ("A", False, NO_SLEEP): _expansion("B", sleeps=(asleep,),
                                           pruned=3),
        ("B", False, asleep): _expansion(slept=1000, merged=1000),
        ("B", False, NO_SLEEP): _expansion("C", sleeps=(NO_SLEEP,),
                                           merged=5),
        ("C", False, NO_SLEEP): _expansion(tmerged=7),
    }
    result, spill, calls, terminal = _run(table, "A")
    assert spill == [] and result.nodes == 3
    assert calls == [("A", False, NO_SLEEP), ("B", False, asleep),
                     ("B", False, NO_SLEEP), ("C", False, NO_SLEEP)]
    assert _counts(result) == (3, 0, 5, 7)
    assert terminal == ["C"]
    assert not result.bounded and result.diagnostics == ()


@pytest.mark.parametrize("reduced", [False, True])
def test_stop_mid_node_charges_the_expansion_in_flight(reduced):
    """A violation found while A's successors are advanced ends the
    search; A is charged with the expansion being advanced (after the
    cycle proviso, the unreduced one)."""

    table = {
        ("A", False, NO_SLEEP): _expansion(
            "B" if reduced else "BX", reduced=reduced, pruned=1000,
            merged=4),
        ("A", True, NO_SLEEP): _expansion("BX", merged=40),
    }

    def advance(next_config, label, event):
        if next_config == "X":
            raise StopSearch
        return label, next_config

    result, spill, calls, _ = _run(table, "BA", advance=advance)
    assert spill == [] and result.nodes == 1
    assert _counts(result) == ((0, 0, 40, 0) if reduced
                               else (1000, 0, 4, 0))


def test_budget_spill_charges_each_node_once_when_expanded():
    table = {
        ("A", False, NO_SLEEP): _expansion("BC", merged=1),
        ("B", False, NO_SLEEP): _expansion(merged=10),
        ("C", False, NO_SLEEP): _expansion(merged=100),
    }
    result, spill, _, _ = _run(table, "A", budget=1)
    assert [node[3] for node in spill] == ["B", "C"]
    assert result.nodes == 1 and _counts(result) == (0, 0, 1, 0)
    stub = StubExplorer(table)
    while spill:
        spill = search(spill, 1, result, _advance, 10, explorer=stub)
    assert result.nodes == 3 and _counts(result) == (0, 0, 111, 0)


# ---------------------------------------------------------------------------
# The walk runs the search's rules
# ---------------------------------------------------------------------------


def _walk(table, roots, walks=1, advance=_advance, max_depth=10,
          done=None):
    """Walk from ``roots`` on a stub explorer, as :func:`_run` searches;
    returns the result, the calls, the terminal nodes and the cuts."""

    stub = StubExplorer(table)
    result = SearchStats()
    terminal, cuts = [], []
    walk([(c, None, 0, c) for c in roots], walks, 0, result, advance,
         max_depth, explorer=stub, terminal=terminal.append,
         cut=lambda: cuts.append(len(stub.calls)), done=done)
    return result, stub.calls, terminal, cuts


#: A -> B -> C, a chain, so every walk takes the one path.
CHAIN = {
    ("A", False, NO_SLEEP): _expansion("B", pruned=1),
    ("B", False, NO_SLEEP): _expansion("C", merged=10),
    ("C", False, NO_SLEEP): _expansion(tmerged=100),
}


def test_walk_charges_each_step_and_reaches_the_terminal_node():
    """Walks start round-robin over the roots; every expanded node is
    charged, and a node without successors is terminal, also at the
    depth cap."""

    result, calls, terminal, cuts = _walk(CHAIN, "AB", walks=3,
                                          max_depth=2)
    assert [c for c, _, _ in calls] == list("ABC" "BC" "ABC")
    assert result.nodes == 8 and _counts(result) == (2, 0, 30, 300)
    assert terminal == ["C", "C", "C"] and cuts == []
    assert not result.bounded and result.elapsed > 0


def test_walk_cuts_a_node_at_the_cap_with_successors():
    """The depth rule: B at the cap is expanded (and charged) only to
    tell a terminal node from a cut one; its successors are dropped."""

    advanced = []

    def advance(next_config, label, event):
        advanced.append(next_config)
        return label, next_config

    result, calls, terminal, cuts = _walk(CHAIN, "A", walks=2,
                                          advance=advance, max_depth=1)
    assert [c for c, _, _ in calls] == list("ABAB")
    assert advanced == ["B", "B"] and terminal == [] and cuts == [2, 4]
    assert result.bounded and result.nodes == 4
    assert _counts(result) == (2, 0, 20, 0)


def test_walk_asks_done_after_advancing_the_node():
    """``done`` is asked once the node's successors were all advanced,
    and it ends every walk; the node's cuts are noted."""

    table = {("A", False, NO_SLEEP): _expansion("BX", merged=1,
                                                cuts=("A cut",))}
    advanced = []

    def advance(next_config, label, event):
        advanced.append(next_config)
        return label, next_config

    result, calls, _, _ = _walk(table, "A", walks=5, advance=advance,
                                done=lambda: bool(advanced))
    assert advanced == ["B", "X"] and len(calls) == 1
    assert result.nodes == 1 and _counts(result) == (0, 0, 1, 0)
    assert result.bounded and result.diagnostics == ("A cut",)


def test_walk_stop_ends_every_walk_and_keeps_the_charge():
    table = {
        ("A", False, NO_SLEEP): _expansion("BX", merged=4),
        ("B", False, NO_SLEEP): _expansion(),
    }

    def advance(next_config, label, event):
        if next_config == "X":
            raise StopSearch
        return label, next_config

    result, calls, terminal, _ = _walk(table, "A", walks=5,
                                       advance=advance)
    assert len(calls) == 1 and terminal == []
    assert result.nodes == 1 and _counts(result) == (0, 0, 4, 0)


# ---------------------------------------------------------------------------
# The collector pause
# ---------------------------------------------------------------------------


@pytest.fixture
def collector():
    """Yields a setter for the collector's state and restores the
    state the test started with."""

    entry = gc.isenabled()

    def set_enabled(on):
        (gc.enable if on else gc.disable)()

    yield set_enabled
    set_enabled(entry)


@pytest.mark.parametrize("entry", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("case", ["exhausted", "spill", "stop", "raise",
                                  "nested", "walk-exhausted", "walk-done",
                                  "walk-stop", "walk-raise", "walk-nested"])
def test_search_restores_the_collector(case, entry, collector):
    """The collector is off while a search or a walk advances its nodes
    and back in its entry state on every exit path, a nested search or
    walk included; a caller that had switched it off finds it off."""

    table = {
        ("A", False, NO_SLEEP): _expansion("BX"),
        ("B", False, NO_SLEEP): _expansion(),
        ("X", False, NO_SLEEP): _expansion(),
    }
    inside = []
    sampler, _, exit_path = case.rpartition("-")

    def run(roots):
        if sampler == "walk":
            _walk(table, roots, walks=3, advance=advance,
                  done=lambda: exit_path == "done")
            return []
        return _run(table, roots, advance=advance,
                    budget=1 if exit_path == "spill" else 100)[1]

    def advance(next_config, label, event):
        inside.append(gc.isenabled())
        if next_config == "X":
            if exit_path == "stop":
                raise StopSearch
            if exit_path == "raise":
                raise RuntimeError("advance failed")
            if exit_path == "nested":
                run("B")
                inside.append(gc.isenabled())
        return label, next_config

    collector(entry)
    if exit_path == "raise":
        with pytest.raises(RuntimeError):
            run("A")
    else:
        spill = run("A")
        assert (spill != []) == (exit_path == "spill")
    assert inside and not any(inside)
    assert gc.isenabled() is entry


def _racy_product():
    """The racy counter's product run, which a violation ends through
    :class:`StopSearch`."""

    program = mgc_program(racy_counter(), [("inc", 0)], threads=2,
                          ops_per_thread=1)
    result = check_program_linearizable(program, counter_spec())
    assert not result.ok
    return result


#: Every decider's run: the search core's searches and seeded walks,
#: and the definitional pipeline's Wing & Gong check after its search.
GARBAGE_FREE = {
    **DECIDERS,
    "product-racy": lambda alg, program: _racy_product(),
}


@pytest.mark.parametrize("decider", sorted(GARBAGE_FREE))
def test_no_decider_run_leaves_cyclic_garbage(decider, collector):
    """Search state forms no cycles, so pausing the collector for a
    search cannot hide a leak: after each decider's run at 2x1 the
    collector finds nothing to free, and it is back on."""

    collector(True)
    alg = get_algorithm("hsy_stack")
    program = mgc_program(alg.impl, alg.workload.menu, threads=2,
                          ops_per_thread=1)
    gc.collect()
    result = GARBAGE_FREE[decider](alg, program)
    assert gc.isenabled()
    assert gc.collect() == 0
    assert result.nodes > 0
