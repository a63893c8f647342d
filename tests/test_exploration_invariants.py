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
  (:mod:`repro.semantics.search`);
* the step memos of the explorer, the witness runner and the Σ monitor
  are exact and bounded: with them emptied (capacity 0, the uncached
  oracle, which also runs the explorer and the witness uninterned) every
  decider reports identical nodes, sets, counters and failure records;
* the explorer's and the witness runner's interning shares: equal
  components of their configurations are one object;
* the heap-shape memos (canonical forms, ownership closures) serve
  exactly what the direct, unmemoized calls compute;
* the expansion memo replays exactly (observables, nodes, dedup and
  reduction counters) and only the explore client fills it.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.history.monitor as monitor_mod
import repro.instrument.runner as runner_mod
import repro.reduce.ownership as ownership_mod
import repro.reduce.symmetry as symmetry_mod
import repro.refinement.observable as observable_mod
import repro.semantics.scheduler as scheduler_mod
from registry_probe import (
    COUNTERS,
    RACY,
    algorithm,
    probe_names,
    probe_one,
    witness_record,
)
from repro.algorithms import get_algorithm
from repro.engine.random_walk import (
    random_walk_explore,
    random_walk_instrumented,
    random_walk_lin,
)
from repro.history.object_lin import ProductSearch, check_program_linearizable
from repro.instrument.runner import InstrumentedRunner, verify_instrumented
from repro.lang.program import Program
from repro.memory.store import Store
from repro.reduce import SYM_BASE, SYM_STRIDE
from repro.refinement.contextual import check_clients_refinement
from repro.semantics.abstract import AbstractProgram, explore_abstract
from repro.semantics.mgc import mgc_program, printing_client
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
        return r.nodes, r.bounded

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


def _treiber_witness(limits):
    alg = get_algorithm("treiber")
    return InstrumentedRunner(alg.instrumented, alg.workload.menu, 1, 1,
                              limits, alg.invariant, alg.guarantee)


#: Each sampler and its exhaustive decider on Treiber at 1x1, as
#: ``(exact, walk)`` runs of one ``Limits``.
SAMPLERS = {
    "explore": (
        lambda limits: Explorer(_program(threads=1), limits).run(),
        lambda limits: random_walk_explore(_program(threads=1), limits,
                                           walks=32, seed=0)),
    "product": (
        lambda limits: ProductSearch(_program(threads=1),
                                     get_algorithm("treiber").spec,
                                     limits).run(),
        lambda limits: random_walk_lin(_program(threads=1),
                                       get_algorithm("treiber").spec,
                                       limits, walks=32, seed=0)),
    "witness": (
        lambda limits: _treiber_witness(limits).run_sequential(),
        lambda limits: random_walk_instrumented(_treiber_witness(limits),
                                                walks=32, seed=0)),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_random_walk_keeps_the_depth_rule(sampler):
    """Every sampler applies the search's depth rule: a terminal node
    at the cap is not a cut, so at the longest path's depth every walk
    is complete, one step shorter some walk is cut."""

    exact_run, walk_run = SAMPLERS[sampler]

    def exact(limits):
        r = exact_run(limits)
        return r.nodes, r.bounded

    longest = _smallest_complete_depth(exact)
    for depth in (longest - 1, longest, longest + 1):
        limits = Limits(max_depth=depth)
        walk = walk_run(limits)
        assert walk.bounded == exact(limits)[1] == (depth < longest)


def test_random_walk_witness_drops_failures_beyond_the_cap():
    """Failures the capped expansion records lie beyond the cap: the
    walk drops them, as the exhaustive search's cut does."""

    alg = algorithm(RACY)

    def run(limits, walk):
        runner = InstrumentedRunner(alg.instrumented, alg.workload.menu, 2,
                                    1, limits, max_failures=64)
        if walk:
            return random_walk_instrumented(runner, walks=64, seed=0)
        return runner.run_sequential()

    depth = 0
    while run(Limits(max_depth=depth), False).ok:
        depth += 1
    # At the shallowest failing depth the failure is found, one step
    # shallower it lies beyond the cap and is dropped.
    capped = run(Limits(max_depth=depth - 1), True)
    assert capped.ok and not capped.failures and capped.bounded
    assert not run(Limits(max_depth=depth), True).ok


# ---------------------------------------------------------------------------
# The step memos: exact and bounded
# ---------------------------------------------------------------------------


#: The explorer's memos, by attribute, with their capacity constants.
EXPLORER_MEMOS = {"_step_memo": "_STEP_MEMO_CAP",
                  "_closure_memo": "_CLOSURE_MEMO_CAP",
                  "_shape_memo": "_SHAPE_MEMO_CAP",
                  "_expand_memo": "_EXPAND_MEMO_CAP"}


def _set_memo_cap(monkeypatch, cap):
    """Capacity of the explorer's memos, the witness step memo and the
    monitor's step memo for explorers, runs and monitors started after
    the call; 0 stores nothing and runs the explorer and the witness
    uninterned, which is the uncached oracle."""

    for const in EXPLORER_MEMOS.values():
        monkeypatch.setattr(scheduler_mod, const, cap)
    monkeypatch.setattr(scheduler_mod, "_INTERN", cap > 0)
    monkeypatch.setattr(runner_mod, "_STEP_MEMO_CAP", cap)
    monkeypatch.setattr(runner_mod, "_INTERN", cap > 0)
    monkeypatch.setattr(monitor_mod, "_MONITOR_MEMO_CAP", cap)


#: The registry probe's output, pinned: every decider's counts, sets,
#: counters and failure records as the probe prints them.
PINNED_PROBE = Path(__file__).with_name("registry_probe.json")


@pytest.mark.parametrize("name", probe_names())
def test_step_memo_is_exact_on_every_decider(monkeypatch, name):
    """Explore (compiled and interpreted), product, refinement and the
    witness in both history modes: identical with the memos on and off,
    and equal to the pinned probe."""

    cached = probe_one(name)
    pinned = json.loads(PINNED_PROBE.read_text())[name]
    assert json.loads(json.dumps(cached, sort_keys=True)) == pinned
    _set_memo_cap(monkeypatch, 0)
    assert probe_one(name) == cached


def _runner(name="hsy_stack", **kw):
    alg = algorithm(name)
    return InstrumentedRunner(alg.instrumented, alg.workload.menu, 2, 1,
                              alg.limits, kw.pop("invariant", alg.invariant),
                              alg.guarantee, **kw)


def _walk_record(runner, seed):
    result = random_walk_instrumented(runner, walks=64, seed=seed)
    return witness_record(result)


@pytest.mark.parametrize("name", ["hsy_stack", RACY])
@pytest.mark.parametrize("seed", [0, 7])
def test_step_memo_keeps_the_seeded_random_walk(monkeypatch, name, seed):
    cached = _walk_record(_runner(name), seed)
    assert cached["ok"] == (name != RACY)
    _set_memo_cap(monkeypatch, 0)
    assert _walk_record(_runner(name), seed) == cached


def _product_walk_record(name, seed):
    alg = algorithm(name)
    program = mgc_program(alg.impl, alg.workload.menu, threads=2,
                          ops_per_thread=1)
    result = random_walk_lin(program, alg.spec, alg.limits, walks=64,
                             seed=seed)
    return {"ok": result.ok, "nodes": result.nodes,
            "bounded": result.bounded, "aborted": result.aborted,
            "histories": sorted(map(repr, result.histories)),
            "counterexample": repr(result.counterexample),
            "reason": result.reason}


@pytest.mark.parametrize("name", ["treiber", RACY])
@pytest.mark.parametrize("seed", [0, 7])
def test_monitor_memo_keeps_the_seeded_product_walk(monkeypatch, name,
                                                    seed):
    cached = _product_walk_record(name, seed)
    assert cached["ok"] == (name != RACY)
    _set_memo_cap(monkeypatch, 0)
    assert _product_walk_record(name, seed) == cached


def test_product_walk_computes_no_sleep_sets(monkeypatch):
    """A walk runs every node awake, so its expansions compute no sleep
    sets: no footprint-independence test runs, and the walk reaches the
    counts it reached while it still computed and dropped them.  The
    exhaustive search keeps its sleep sets."""

    calls = []
    independent = scheduler_mod.footprints_independent

    def counted(*args):
        calls.append(args)
        return independent(*args)

    monkeypatch.setattr(scheduler_mod, "footprints_independent", counted)
    alg = algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu, threads=2,
                          ops_per_thread=1)
    walked = random_walk_lin(program, alg.spec, alg.limits, walks=256,
                             seed=0)
    assert calls == []
    assert walked.ok and not walked.exhaustive
    assert (walked.nodes, len(walked.histories)) == (3052, 142)
    searched = ProductSearch(program, alg.spec, alg.limits).run()
    assert calls and searched.sleep_skipped > 0


@pytest.mark.parametrize("history_complete", [False, True])
def test_step_memo_keeps_every_failure_record(monkeypatch,
                                              history_complete):
    """A wrong invariant fails at many states reached by different
    interleavings of one step: a failing step is never served from the
    memo, so each failure keeps its own record and history."""

    alg = get_algorithm("hsy_stack")

    def wrong(sigma_o, delta):
        theta = alg.phi.of(sigma_o)
        if theta is not None and theta["Stk"]:
            return "the central stack is not empty"
        return alg.invariant(sigma_o, delta)

    def run():
        runner = _runner(invariant=wrong, max_failures=3,
                         history_complete=history_complete)
        return runner, witness_record(runner.run())

    runner, cached = run()
    assert len(cached["failures"]) == 3 and len(runner._step_memo) > 0
    _set_memo_cap(monkeypatch, 0)
    runner, uncached = run()
    assert len(runner._step_memo) == 0
    assert uncached == cached


def test_small_memo_capacity_bounds_the_memos(monkeypatch):
    program = _program("treiber", threads=2, ops=1)
    full = Explorer(program).run()
    witness = witness_record(_runner().run())

    _set_memo_cap(monkeypatch, 8)
    explorer = Explorer(program)
    peak = dict.fromkeys(EXPLORER_MEMOS, 0)
    expander = explorer.expander

    def watched(*args, **kwargs):
        expand = expander(*args, **kwargs)

        def watched_expand(*args, **kwargs):
            out = expand(*args, **kwargs)
            for attr in peak:
                peak[attr] = max(peak[attr], len(getattr(explorer, attr)))
            return out

        return watched_expand

    explorer.expander = watched
    small = explorer.run()
    assert all(0 < n <= 8 for n in peak.values()), peak
    assert (small.nodes, small.histories, small.observables) == \
        (full.nodes, full.histories, full.observables)

    runner = _runner()
    assert witness_record(runner.run()) == witness
    assert 0 < len(runner._step_memo) <= 8


def _witness_components():
    """The thread entries, σ_o and Δ of every configuration an HSY 2x1
    witness run expanded, with the run's node count."""

    runner = _runner()
    result = runner.new_result(expanded_keys=[])
    start = runner.initial_config(result)
    runner.run_from([runner.root(start)], runner.limits.max_nodes, result)
    configs = result.expanded_keys
    return result.nodes, {
        "entries": [e for c in configs for e in c.threads],
        "sigma_o": [c.sigma_o for c in configs],
        "delta": [c.delta for c in configs]}


def _unshared(objs) -> int:
    """How many of ``objs`` equal an earlier one without being it."""

    canonical = {}
    return sum(canonical.setdefault(o, o) is not o for o in objs)


def test_witness_interning_shares_equal_components(monkeypatch):
    nodes, parts = _witness_components()
    assert nodes == 40297
    assert {k: _unshared(v) for k, v in parts.items()} == \
        dict.fromkeys(parts, 0)
    # The oracle really is uninterned: without the table, interleavings
    # converging on equal components build distinct objects.
    _set_memo_cap(monkeypatch, 0)
    nodes, parts = _witness_components()
    assert nodes == 40297
    assert all(_unshared(v) > 0 for v in parts.values())


def _explorer_components():
    """Per search, the σ_c, σ_o, frame locals, frames and thread states
    of every configuration two explorer searches expanded (the HSY 2x1
    Def-3 concrete search and the Treiber 3x1 product), with their node
    counts."""

    alg = algorithm("hsy_stack")
    clients = tuple(printing_client(alg.workload.menu, 1, prefix=f"t{t}")
                    for t in (1, 2))
    explorer = Explorer(Program(alg.impl, clients, (), True), alg.limits)
    explored = explorer.new_result(expanded_keys=[])
    explorer.run_from(explorer.start_nodes(), alg.limits.max_nodes,
                      explored)
    alg = algorithm("treiber")
    product = ProductSearch(_program("treiber", threads=3), alg.spec,
                            alg.limits)
    checked = product.new_result(expanded_keys=[])
    product.run_from(product.start_nodes(), alg.limits.max_nodes, checked)
    assert checked.ok
    runs = []
    for result in (explored, checked):
        configs = [config for config, _label in result.expanded_keys]
        threads = [t for c in configs for t in c.threads]
        frames = [t.frame for t in threads if t.frame is not None]
        runs.append({"sigma_c": [c.sigma_c for c in configs],
                     "sigma_o": [c.sigma_o for c in configs],
                     "locals": [f.locals for f in frames],
                     "frames": frames,
                     "threads": threads})
    return (explored.nodes, checked.nodes), runs


def test_explorer_interning_shares_equal_components(monkeypatch):
    nodes, runs = _explorer_components()
    assert nodes == (23764, 10392)
    for parts in runs:
        assert {k: _unshared(v) for k, v in parts.items()} == \
            dict.fromkeys(parts, 0)
    # Uninterned, interleavings converging on equal components build
    # distinct objects.
    _set_memo_cap(monkeypatch, 0)
    nodes, runs = _explorer_components()
    assert nodes == (23764, 10392)
    for parts in runs:
        assert all(_unshared(v) > 0 for v in parts.values())


def test_monitor_interns_every_theta():
    """The product's Σ monitor hash-conses every θ it builds with the
    explorer's interner: each θ in its memo, in a key's state set or in
    a stored one, is the interner's canonical instance."""

    alg = algorithm("treiber")
    product = ProductSearch(_program("treiber", threads=3), alg.spec,
                            alg.limits)
    assert product.run().ok
    thetas = [theta for (states, _event), stored
              in product.monitor._memo.items()
              for theta, _pending in (*states, *stored)]
    canonical = product.explorer.interner._values
    assert len(thetas) > len(set(thetas)) > 1
    assert all(canonical.get(theta) is theta for theta in thetas)


# ---------------------------------------------------------------------------
# The expansion memo: exact replay, explore client only
# ---------------------------------------------------------------------------


def _refinement_record(monkeypatch, name, threads):
    """Def-3 refinement of ``name`` with printing clients: the verdict,
    and the concrete exploration's observables and counters, plus how
    many of its expansions were computed rather than replayed."""

    alg = algorithm(name)
    clients = tuple(printing_client(alg.workload.menu, 1, prefix=f"t{t}")
                    for t in range(1, threads + 1))
    calls = {"expand": 0, "fresh": 0}
    explored = []
    expander, successors = Explorer.expander, Explorer._successors
    tap = observable_mod.explore

    def counted_expander(self, *args, **kwargs):
        expand = expander(self, *args, **kwargs)

        def counted_expand(*args, **kwargs):
            calls["expand"] += 1
            return expand(*args, **kwargs)

        return counted_expand

    def counted_successors(self, *args):
        calls["fresh"] += 1
        return successors(self, *args)

    def tapped(*args, **kwargs):
        explored.append(tap(*args, **kwargs))
        return explored[-1]

    with monkeypatch.context() as patch:
        patch.setattr(Explorer, "expander", counted_expander)
        patch.setattr(Explorer, "_successors", counted_successors)
        patch.setattr(observable_mod, "explore", tapped)
        refines = check_clients_refinement(alg.impl, alg.spec, clients,
                                           alg.limits,
                                           private_client_vars=True)
    (result,) = explored
    record = {"ok": refines.ok, "missing": refines.missing,
              "bounded": refines.bounded, "observables": result.observables,
              "nodes": result.nodes,
              **{k: getattr(result, k) for k in COUNTERS}}
    return record, calls


@pytest.mark.parametrize("name,threads",
                         [("treiber", 2), ("hsy_stack", 2), (RACY, 3)])
def test_expansion_memo_is_exact_on_refinement(monkeypatch, name, threads):
    replayed, calls = _refinement_record(monkeypatch, name, threads)
    assert replayed["ok"] == (name != RACY)
    # Some configuration was reached under two labels and replayed.
    assert calls["fresh"] < calls["expand"], calls
    monkeypatch.setattr(scheduler_mod, "_EXPAND_MEMO_CAP", 0)
    uncached, calls = _refinement_record(monkeypatch, name, threads)
    assert calls["fresh"] == calls["expand"]
    assert uncached == replayed


def test_product_never_fills_the_expansion_memo():
    alg = get_algorithm("treiber")
    search = ProductSearch(_program("treiber"), alg.spec, alg.limits)
    result = search.run()
    assert result.ok and result.nodes > 0
    assert len(search.explorer._step_memo) > 0
    assert len(search.explorer._expand_memo) == 0


# ---------------------------------------------------------------------------
# The heap-shape memos: every served answer is the direct call's
# ---------------------------------------------------------------------------


@pytest.fixture
def shape_oracle(monkeypatch):
    """Checks every canonical form and owner map any explorer serves
    against a direct, unmemoized call; yields the call counts."""

    counts = {"canonical": 0, "walks": 0, "owner": 0}
    canonical = Explorer._canonical
    owner_map = scheduler_mod.compute_owner
    walk = scheduler_mod.canonicalize_config

    def counted_walk(config, store_cls):
        counts["walks"] += 1
        return walk(config, store_cls)

    def checked_canonical(self, config):
        out, changed = canonical(self, config)
        direct, direct_changed = symmetry_mod.canonicalize_config(
            config, Store)
        assert out == direct and hash(out) == hash(direct)
        assert changed == direct_changed
        counts["canonical"] += 1
        return out, changed

    def checked_owner(config, policy, memo=None):
        owner = owner_map(config, policy, memo)
        assert owner == ownership_mod.compute_owner(config, policy)
        counts["owner"] += 1
        return owner

    monkeypatch.setattr(scheduler_mod, "canonicalize_config", counted_walk)
    monkeypatch.setattr(Explorer, "_canonical", checked_canonical)
    monkeypatch.setattr(scheduler_mod, "compute_owner", checked_owner)
    yield counts
    # Memo-served forms were checked too, not only fresh walks.
    assert counts["walks"] < counts["canonical"], counts
    assert counts["owner"] > 0, counts


@pytest.mark.parametrize("name,threads", [("treiber", 3), ("hsy_stack", 2)])
def test_shape_memos_match_direct_calls_on_product(shape_oracle, name,
                                                   threads):
    alg = get_algorithm(name)
    program = _program(name, threads=threads, ops=1)
    result = check_program_linearizable(program, alg.spec, alg.limits)
    assert result.ok and not result.bounded
    if threads == 3:
        assert result.tsym_merged > 0  # rotated successors are covered


def test_shape_memos_match_direct_calls_on_refinement(shape_oracle):
    alg = get_algorithm("hsy_stack")
    clients = tuple(printing_client(alg.workload.menu, 1, prefix=f"t{t}")
                    for t in (1, 2))
    result = check_clients_refinement(alg.impl, alg.spec, clients,
                                      alg.limits, private_client_vars=True)
    assert result.ok and not result.bounded


# ---------------------------------------------------------------------------
# One canonicalization path under both step semantics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name",
                         ["treiber", "ms_lock_free_queue", "hsy_stack"])
def test_both_semantics_canonicalize_every_successor(monkeypatch, name):
    """The 2x1 product search goes through ``Explorer._canonical``
    equally often under the compiled tables and the interpreter, and
    every configuration either one expands is canonical."""

    calls = {"compiled": 0, "interp": 0}
    canonical = Explorer._canonical

    def counted(self, config):
        calls[self.semantics] += 1
        return canonical(self, config)

    monkeypatch.setattr(Explorer, "_canonical", counted)
    alg = get_algorithm(name)
    for semantics in calls:
        search = ProductSearch(_program(name), alg.spec, alg.limits,
                               semantics=semantics)
        assert search.explorer.semantics == semantics
        assert search.explorer.policy.sym
        result = search.new_result(expanded_keys=[])
        assert search.run_from(search.start_nodes(), alg.limits.max_nodes,
                               result) == []
        assert result.ok and result.nodes == len(result.expanded_keys) > 0
        for config, _states in result.expanded_keys:
            assert symmetry_mod.canonicalize_config(config, Store)[1] \
                is False
    assert calls["compiled"] == calls["interp"] > 0, calls
