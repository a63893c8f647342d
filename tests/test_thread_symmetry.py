"""Thread-identity symmetry (the ``tsym`` layer of ``por+sym+tsym``).

Covers the pieces separately — the rotation algebra, configuration
permutation (:class:`ThreadPermuter`), trace closure
(:func:`close_traces`), static eligibility and policy resolution — and
then end to end: the canonical-identity quotient must reproduce the
exact history/observable sets of the ``por+sym`` search, violations
included, in both the sequential and the parallel engine.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import counter_spec, racy_counter_impl
from repro.algorithms import get_algorithm
from repro.engine import EngineSpec, canonical_digest
from repro.history.object_lin import check_object_linearizable
from repro.memory.store import Store
from repro.reduce import (
    ThreadPermuter,
    canonicalize_config,
    close_traces,
    resolve_policy,
    rotation,
    scan_thread_symmetry,
)
from repro.reduce.symmetry import permute_trace
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import ExplorationResult, Explorer

N = 3  # thread count of the sampled program below


def _program(name: str, threads: int, ops: int):
    alg = get_algorithm(name)
    return mgc_program(alg.impl, alg.workload.menu,
                       threads=threads, ops_per_thread=ops)


def _fresh_result() -> ExplorationResult:
    result = ExplorationResult()
    result.histories.add(())
    result.observables.add(())
    return result


@pytest.fixture(scope="module")
def sampled():
    """Reachable configs/traces of treiber 3x1 (interp, ``por+sym`` so
    the sample is not restricted to the canonical identity space), plus
    a :class:`ThreadPermuter` over the same program."""

    program = _program("treiber", N, 1)
    explorer = Explorer(program, reduce="por+sym", semantics="interp")
    result = _fresh_result()
    result.expanded_keys = []
    explorer.run_from(explorer.start_nodes(), 400, result)
    configs = [key[0] for key in result.expanded_keys]
    traces = sorted(result.histories, key=repr)
    ts = scan_thread_symmetry(program)
    assert ts.ok, ts.reasons
    return ThreadPermuter(program, ts), configs, traces


def _perms(data):
    pi = (0,) + tuple(data.draw(
        st.permutations(list(range(1, N + 1))), label="pi"))
    inv = [0] * (N + 1)
    for i in range(1, N + 1):
        inv[pi[i]] = i
    return pi, tuple(inv)


# ---------------------------------------------------------------------------
# Rotation algebra
# ---------------------------------------------------------------------------


@given(st.data())
def test_rotation_is_a_permutation_fixing_the_pinned_prefix(data):
    n = data.draw(st.integers(2, 6), label="n")
    k = data.draw(st.integers(0, n - 1), label="k")
    t = data.draw(st.integers(k + 1, n), label="t")
    pi = rotation(n, k, t)
    assert sorted(pi[1:]) == list(range(1, n + 1))
    assert all(pi[i] == i for i in range(1, k + 1))
    assert pi[t] == k + 1


# ---------------------------------------------------------------------------
# Configuration permutation
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_permute_config_inverse_round_trip(sampled, data):
    perm, configs, _ = sampled
    config = data.draw(st.sampled_from(configs), label="config")
    pi, inv = _perms(data)
    permuted, changed = perm.permute_config(config, pi)
    assert changed is not None  # in-process ASTs never bail
    back, changed2 = perm.permute_config(permuted, inv)
    assert changed2 is not None
    assert canonical_digest(back) == canonical_digest(config)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_permute_config_composes(sampled, data):
    perm, configs, _ = sampled
    config = data.draw(st.sampled_from(configs), label="config")
    pi, _ = _perms(data)
    sigma, _ = _perms(data)
    composed = (0,) + tuple(sigma[pi[i]] for i in range(1, N + 1))
    via_two, _ = perm.permute_config(
        perm.permute_config(config, pi)[0], sigma)
    via_one, _ = perm.permute_config(config, composed)
    assert canonical_digest(via_two) == canonical_digest(via_one)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_permutation_commutes_with_address_canonicalization(sampled, data):
    """Thread permutation acts on identities, address canonicalization
    on block names — the scheduler rotates first and canonicalizes
    after, which is only sound if the order cannot matter."""

    perm, configs, _ = sampled
    config = data.draw(st.sampled_from(configs), label="config")
    pi, _ = _perms(data)
    permuted, _ = perm.permute_config(config, pi)
    direct, _ = canonicalize_config(permuted, Store)
    pre, _ = canonicalize_config(config, Store)
    pre_permuted, _ = perm.permute_config(pre, pi)
    via_pre, _ = canonicalize_config(pre_permuted, Store)
    assert canonical_digest(direct) == canonical_digest(via_pre)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_address_canonicalization_is_idempotent_on_permuted(sampled, data):
    perm, configs, _ = sampled
    config = data.draw(st.sampled_from(configs), label="config")
    pi, _ = _perms(data)
    permuted, _ = perm.permute_config(config, pi)
    once, _ = canonicalize_config(permuted, Store)
    twice, again = canonicalize_config(once, Store)
    assert not again
    assert canonical_digest(twice) == canonical_digest(once)


# ---------------------------------------------------------------------------
# Trace closure
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_permute_trace_preserves_per_thread_projections(sampled, data):
    _, _, traces = sampled
    trace = data.draw(st.sampled_from(traces), label="trace")
    pi, _ = _perms(data)
    permuted = permute_trace(trace, pi)
    for t in range(1, N + 1):
        original = [replace(e, thread=0) for e in trace if e.thread == t]
        renamed = [replace(e, thread=0) for e in permuted
                   if e.thread == pi[t]]
        assert original == renamed


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_close_traces_idempotent_and_permutation_invariant(sampled, data):
    _, _, traces = sampled
    subset = set(data.draw(
        st.lists(st.sampled_from(traces), max_size=5), label="subset"))
    closed = close_traces(subset, N)
    assert subset <= closed
    assert close_traces(closed, N) == closed
    pi, _ = _perms(data)
    assert {permute_trace(t, pi) for t in closed} == closed


# ---------------------------------------------------------------------------
# Eligibility and policy resolution
# ---------------------------------------------------------------------------


def test_tsym_eligibility_verdicts():
    assert scan_thread_symmetry(_program("treiber", 2, 1)).ok
    assert scan_thread_symmetry(_program("ms_lock_free_queue", 2, 1)).ok
    hsy = scan_thread_symmetry(_program("hsy_stack", 2, 1))
    assert not hsy.ok and hsy.reasons


def test_policy_resolution_tsym_and_sleep():
    eligible = resolve_policy(_program("treiber", 2, 1), "por+sym+tsym")
    assert eligible.tsym and eligible.sleep
    assert eligible.effective == "por+sym+tsym"

    # tsym-ineligible program: tsym drops with a reason, sleep sets stay
    # (they only need the ample rule), effective reports por+sym.
    held = resolve_policy(_program("hsy_stack", 2, 1), "por+sym+tsym")
    assert not held.tsym and held.sleep
    assert held.effective == "por+sym"
    assert any(r.startswith("tsym off:") for r in held.reasons)

    # Neither layer activates below the por+sym+tsym mode.
    plain = resolve_policy(_program("treiber", 2, 1), "por+sym")
    assert not plain.tsym and not plain.sleep


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def test_tsym_quotient_reproduces_por_sym_sets():
    program = _program("treiber", 2, 1)
    full = Explorer(program, reduce="por+sym").run()
    quotient = Explorer(program, reduce="por+sym+tsym").run()
    assert quotient.reduce == "por+sym+tsym"
    assert quotient.histories == full.histories
    assert quotient.observables == full.observables
    assert quotient.nodes < full.nodes
    assert quotient.tsym_merged > 0


def test_budget_one_resume_accounting_is_exact_under_tsym():
    """Spill/resume loops at budget 1 reach the full sets and leave
    every reduction counter non-negative.  That each node is charged
    with exactly the expansion it keeps is pinned on a stub explorer in
    ``tests/test_search_stats.py``."""

    counters = ("por_pruned", "sym_merged", "sleep_skipped", "tsym_merged")
    program = _program("treiber", 2, 1)
    full = Explorer(program, reduce="por+sym+tsym").run()

    explorer = Explorer(program, reduce="por+sym+tsym")
    result = _fresh_result()
    frontier = explorer.start_nodes()
    while frontier:
        frontier = explorer.run_from(frontier, 1, result)
        for name in counters:
            assert getattr(result, name) >= 0, name
    explorer.close_result(result)
    assert result.histories == full.histories
    assert result.observables == full.observables


@pytest.mark.parametrize("engine", [
    "sequential",
    EngineSpec("parallel", workers=2),
], ids=["sequential", "parallel"])
def test_racy_counter_violation_survives_tsym(engine):
    """Reductions must never hide a violation: the Sec. 2.4 racy
    counter stays non-linearizable under the full default stack."""

    result = check_object_linearizable(
        racy_counter_impl(), counter_spec(), [("inc", 0)],
        threads=2, ops_per_thread=1, engine=engine)
    assert not result.ok
    assert result.counterexample is not None
