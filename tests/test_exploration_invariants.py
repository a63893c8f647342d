"""Exploration-core invariants: prefix closure, start-node dedup, budgets.

Three properties every engine relies on:

* ``ExplorationResult.add_prefixes`` and the explorer maintain
  *prefix-closed* history and observable sets (the paper's ``H[[...]]``
  and ``O[[...]]`` are prefix-closed by definition, and
  ``maximal_histories`` assumes it);
* ``Explorer.start_nodes`` deduplicates initial configurations — under
  address symmetry, *symmetric* initial configurations collapse to one
  canonical start node;
* ``run_from`` budget accounting is exact: a spilled node is charged
  only when later expanded, so a budget-1 resume loop performs exactly
  one expansion per call and converges to the same sets;
* ``Limits`` means the same in every decider: the node budget and the
  depth rule are the one search core's
  (:mod:`repro.semantics.search`).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.history.object_lin import check_program_linearizable
from repro.instrument.runner import verify_instrumented
from repro.memory.store import Store
from repro.reduce import SYM_BASE, SYM_STRIDE
from repro.semantics.abstract import AbstractProgram, explore_abstract
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import (
    Config,
    ExplorationResult,
    Explorer,
    Limits,
    explore,
)


def _program(name="treiber", threads=2, ops=1):
    alg = get_algorithm(name)
    return mgc_program(alg.impl, alg.workload.menu,
                       threads=threads, ops_per_thread=ops)


def _is_prefix_closed(traces) -> bool:
    return all(t[:-1] in traces for t in traces if t)


# ---------------------------------------------------------------------------
# Prefix closure
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                max_size=6).map(tuple))
@settings(max_examples=60, deadline=None)
def test_add_prefixes_closes_under_prefix(trace):
    result = ExplorationResult()
    result.add_prefixes(trace)
    assert trace in result.observables
    assert () in result.observables
    assert _is_prefix_closed(result.observables)


@given(st.lists(st.lists(st.integers(0, 3), max_size=5).map(tuple),
                max_size=5))
@settings(max_examples=40, deadline=None)
def test_add_prefixes_accumulates_closed_sets(traces):
    result = ExplorationResult()
    for trace in traces:
        result.add_prefixes(trace)
        assert _is_prefix_closed(result.observables)


@pytest.mark.parametrize("reduce", ["none", "por+sym"])
@pytest.mark.parametrize("name", ["treiber", "pair_snapshot"])
def test_explored_sets_are_prefix_closed(name, reduce):
    result = Explorer(_program(name), reduce=reduce).run()
    assert _is_prefix_closed(result.histories)
    assert _is_prefix_closed(result.observables)
    assert () in result.histories and () in result.observables


# ---------------------------------------------------------------------------
# start_nodes dedup of symmetric initial configurations
# ---------------------------------------------------------------------------


def test_start_nodes_dedup_symmetric_initials(monkeypatch):
    explorer = Explorer(_program("treiber"), reduce="por+sym")
    assert explorer.policy.sym

    b0, b1 = SYM_BASE, SYM_BASE + SYM_STRIDE
    threads = tuple(Explorer(_program("treiber")).initial_nodes()[0].threads)

    def variant(first, second):
        return Config(threads=threads, sigma_c=Store({}),
                      sigma_o=Store({"S": first,
                                     first: 1, first + 1: second,
                                     second: 2, second + 1: 0}))

    # The same two-node stack under both address assignments.
    monkeypatch.setattr(explorer, "initial_nodes",
                        lambda: [variant(b0, b1), variant(b1, b0)])
    nodes = explorer.start_nodes()
    assert len(nodes) == 1
    assert explorer.sym_merged >= 1

    # Without symmetry the two permutations stay distinct.
    plain = Explorer(_program("treiber"), reduce="none")
    monkeypatch.setattr(plain, "initial_nodes",
                        lambda: [variant(b0, b1), variant(b1, b0)])
    assert len(plain.start_nodes()) == 2


# ---------------------------------------------------------------------------
# Exact budget accounting across spill/resume cycles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("reduce", ["none", "por+sym"])
def test_budget_one_resume_loop_is_exact(reduce):
    program = _program("treiber", threads=2, ops=1)
    full = Explorer(program, reduce=reduce).run()

    explorer = Explorer(program, reduce=reduce)
    result = ExplorationResult()
    result.histories.add(())
    result.observables.add(())
    frontier = explorer.start_nodes()
    steps = 0
    while frontier:
        frontier = explorer.run_from(frontier, 1, result)
        steps += 1
        # Exactly one node is charged per budget-1 call: spilled
        # frontier nodes cost nothing until actually expanded.
        assert result.nodes == steps
        assert steps <= 1_000_000, "resume loop diverged"

    # Per-call seen-sets dedup less than one big run (nodes may exceed
    # the one-shot count) but the computed sets are identical.
    assert result.nodes >= full.nodes
    assert result.histories == full.histories
    assert result.observables == full.observables
    assert result.aborted == full.aborted


def test_budget_zero_spills_everything():
    explorer = Explorer(_program("treiber", threads=1, ops=1))
    result = ExplorationResult()
    frontier = explorer.start_nodes()
    spilled = explorer.run_from(frontier, 0, result)
    assert spilled == frontier
    assert result.nodes == 0


# ---------------------------------------------------------------------------
# One budget and one depth rule across the deciders
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deciders():
    """``limits -> (nodes, bounded)`` for each decider on Treiber 2x1."""

    alg = get_algorithm("treiber")
    menu = alg.workload.menu
    program = mgc_program(alg.impl, menu, threads=2, ops_per_thread=1)
    abstract = AbstractProgram(alg.spec, program.clients,
                               program.initial_client_memory,
                               program.private_client_vars)

    def product(limits):
        r = check_program_linearizable(program, alg.spec, limits)
        return r.nodes_explored, r.bounded

    def witness(limits):
        r = verify_instrumented(alg.instrumented, menu, 2, 1, limits,
                                alg.invariant, alg.guarantee)
        return r.nodes, r.bounded

    def plain(run, target):
        def decide(limits):
            r = run(target, limits)
            return r.nodes, r.bounded
        return decide

    return {
        "explore": plain(explore, program),
        "product": product,
        "witness": witness,
        "abstract": plain(explore_abstract, abstract),
    }


@pytest.mark.parametrize("decider",
                         ["abstract", "explore", "product", "witness"])
def test_node_budget_is_exact_in_every_decider(deciders, decider):
    run = deciders[decider]
    full, bounded = run(Limits())
    assert not bounded and full > 5
    assert run(Limits(max_nodes=5)) == (5, True)
    assert run(Limits(max_nodes=full)) == (full, False)


def _smallest_complete_depth(run) -> int:
    depth = 0
    while run(Limits(max_depth=depth))[1]:
        depth += 1
    return depth


def test_deciders_share_one_depth_rule(deciders):
    """``max_depth`` caps transitions along a path, and a node at the cap
    is expanded only to tell a terminal node from a cut one — so the
    smallest complete depth is the longest path, in every decider.  The
    explorer, the product and the witness take the same interleavings
    of the same method steps; the abstract program runs each call as one
    atomic step, so its longest path is one step per call."""

    depths = {name: _smallest_complete_depth(run)
              for name, run in deciders.items()}
    assert depths["explore"] == depths["product"] == depths["witness"]
    assert depths["explore"] > depths["abstract"] == 2
