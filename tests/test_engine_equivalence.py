"""Engine equivalence: parallel == sequential, random-walk ⊆ sequential.

The parallel work-stealing driver must be *exact*: on every registry
algorithm at its seed workload it produces the same Definition-2 verdict
(and boundedness) as the sequential engine, and at the ``explore`` level
the same history and observable-trace sets.  The random-walk engine is an
under-approximation: everything it reports must be contained in the
exhaustive result, and its results must be flagged non-exhaustive.

The state-space reductions (:mod:`repro.reduce` — partial-order
reduction plus address-symmetry canonicalization) claim to preserve the
*exact* history and observable-trace sets; every registry algorithm is
checked reduced-vs-unreduced here.  Node counts and terminal-config
cardinalities are deliberately NOT compared across reduction modes —
shrinking those is the point of the reduction.
"""

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.engine import EngineSpec
from repro.history.object_lin import (
    check_object_linearizable,
    check_program_linearizable,
)
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import explore


def _check(alg, engine):
    w = alg.workload
    return check_object_linearizable(
        alg.impl, alg.spec, w.menu, w.threads, w.ops_per_thread,
        alg.limits, phi=alg.phi, engine=engine)


@pytest.mark.parametrize("name", algorithm_names())
def test_product_verdicts_equivalent(name):
    alg = get_algorithm(name)

    seq = _check(alg, None)
    assert seq.engine == "sequential" and seq.exhaustive

    par = _check(alg, "parallel")
    assert par.engine == "parallel" and par.exhaustive
    assert par.ok == seq.ok
    assert par.bounded == seq.bounded

    rw = _check(alg, EngineSpec("random-walk", walks=64, seed=7))
    assert rw.engine == "random-walk" and not rw.exhaustive
    # Sampling a space the exhaustive engine verified clean can never
    # produce a violation (walks are genuine executions).
    if seq.ok:
        assert rw.ok
    # Note: rw.histories_checked is NOT comparable to the sequential
    # count — the product engine dedups on (config, Σ), so it counts
    # only histories along deduped paths, while a walk may traverse
    # path-variants the deduped search pruned.


#: Small workloads for exact set-level comparison at the explore layer.
SET_LEVEL = ["treiber", "pair_snapshot", "lock_coupling_list"]


@pytest.mark.parametrize("name", SET_LEVEL)
def test_explore_sets_equal_and_walks_contained(name):
    alg = get_algorithm(name)
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)

    seq = explore(program)
    par = explore(program, engine="parallel")
    assert par.histories == seq.histories
    assert par.observables == seq.observables
    assert len(par.terminal_configs) == len(seq.terminal_configs)
    assert par.aborted == seq.aborted
    assert par.bounded == seq.bounded

    for seed in (0, 1):
        rw = explore(program,
                     engine=EngineSpec("random-walk", walks=48, seed=seed))
        assert not rw.exhaustive
        assert rw.histories <= seq.histories
        assert rw.observables <= seq.observables


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", SET_LEVEL)
def test_explore_and_product_walks_stay_inside_explore(name, seed):
    """Both walks advance every successor of the nodes they step
    through, so they record more than the path they take; all of it is
    still in the exhaustive explore's sets, and the product walk's
    verdict is the exhaustive product's."""

    alg = get_algorithm(name)
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    seq = explore(program)
    walk = EngineSpec("random-walk", walks=64, seed=seed)
    rw = explore(program, engine=walk)
    assert rw.histories <= seq.histories
    assert rw.observables <= seq.observables
    product = check_program_linearizable(program, alg.spec, alg.limits,
                                         engine=walk)
    assert product.histories <= seq.histories
    assert product.ok == check_program_linearizable(
        program, alg.spec, alg.limits).ok


def test_random_walk_deterministic_per_seed():
    alg = get_algorithm("pair_snapshot")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    spec = EngineSpec("random-walk", walks=32, seed=42)
    a = explore(program, engine=spec)
    b = explore(program, engine=spec)
    assert a.histories == b.histories
    assert a.observables == b.observables
    assert a.nodes == b.nodes


def test_engine_spec_spellings():
    alg = get_algorithm("pair_snapshot")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    by_string = explore(program, engine="parallel")
    by_spec = explore(program, engine=EngineSpec("parallel", workers=2))
    assert by_string.histories == by_spec.histories
    with pytest.raises(Exception):
        explore(program, engine="warp-drive")


# ---------------------------------------------------------------------------
# Reduction on vs. off
# ---------------------------------------------------------------------------

from repro.engine.api import resolve_engine  # noqa: E402
from repro.reduce import DEFAULT_REDUCE  # noqa: E402

REDUCED = EngineSpec("sequential", reduce="por+sym")
UNREDUCED = EngineSpec("sequential", reduce="none")


@pytest.mark.parametrize("name", algorithm_names())
def test_product_reduced_vs_unreduced(name):
    """Definition-2 verdicts are invariant under the reductions, on
    every registry algorithm at its seed workload."""

    alg = get_algorithm(name)
    red = _check(alg, REDUCED)
    base = _check(alg, UNREDUCED)
    assert base.reduce == "none"
    assert red.ok == base.ok
    assert red.bounded == base.bounded
    assert red.aborted == base.aborted
    # histories_checked is NOT compared: the product engine dedups on
    # (config, Σ) with the history as a mere path label, so the count
    # depends on traversal order in both modes.  The set-level identity
    # is asserted exactly in test_explore_reduced_sets_equal.


#: Algorithms whose 2x1 explore graph is *strictly* smaller reduced:
#: the stack/queue implementations allocate a node per operation, so
#: address symmetry and alloc-prioritization always merge something.
#: The set-based lists and the elimination stack stay set-equal but not
#: necessarily smaller (their 2x1 graphs barely interleave privately).
STRICTLY_REDUCING = frozenset({
    "treiber", "ms_lock_free_queue", "ms_two_lock_queue", "dglm_queue"})


@pytest.mark.parametrize("name", algorithm_names())
def test_explore_reduced_sets_equal(name):
    """History/observable sets are *identical* reduced vs. unreduced."""

    alg = get_algorithm(name)
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    red = explore(program, engine=REDUCED)
    base = explore(program, engine=UNREDUCED)
    assert base.reduce == "none"
    assert red.histories == base.histories
    assert red.observables == base.observables
    assert red.aborted == base.aborted
    assert red.bounded == base.bounded
    assert red.nodes <= base.nodes
    if name in STRICTLY_REDUCING:
        # These allocate per operation under por+sym, so at 2x1 the
        # reduction must demonstrably prune interleavings *and* shrink
        # the node count — a regression guard against the reduction
        # silently degrading to a no-op.
        assert red.reduce == "por+sym"
        assert red.por_pruned + red.sym_merged > 0
        assert red.nodes < base.nodes


def test_parallel_reduced_equals_sequential_reduced():
    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    seq = explore(program, engine=REDUCED)
    par = explore(program, engine=EngineSpec("parallel", reduce="por+sym"))
    assert par.histories == seq.histories
    assert par.observables == seq.observables
    assert par.aborted == seq.aborted
    assert par.bounded == seq.bounded
    # Canonical representatives are deterministic, so even the terminal
    # configurations line up across processes.
    assert len(par.terminal_configs) == len(seq.terminal_configs)


def test_reduce_spellings_and_defaults():
    assert resolve_engine(None).reduce == DEFAULT_REDUCE
    assert resolve_engine("parallel").reduce == DEFAULT_REDUCE
    assert resolve_engine("sequential+noreduce").reduce == "none"
    assert resolve_engine("sequential+por").reduce == "por"
    assert resolve_engine("parallel+noreduce").reduce == "none"
    spec = resolve_engine("sequential+por")
    assert "reduce=por" in spec.describe()
    assert "reduce=" not in resolve_engine(None).describe()
    with pytest.raises(Exception):
        EngineSpec("sequential", reduce="bogus")


def test_parallel_node_attribution_comparable():
    """Parallel ``nodes`` counts *unique* expansions (per-task re-work
    goes to ``reexplored``), so it is comparable to the sequential
    count.  Before the digest-dedup fix the parallel figure included
    every re-expansion and ran 15-70% high."""

    alg = get_algorithm("treiber")

    # Space smaller than the warm-up budget: the driver explores it
    # entirely sequentially, so the counters must match exactly.
    small = mgc_program(alg.impl, alg.workload.menu,
                        threads=2, ops_per_thread=1)
    seq = explore(small, engine=REDUCED)
    par = explore(small, engine=EngineSpec("parallel", reduce="por+sym"))
    assert par.nodes == seq.nodes
    assert par.reexplored == 0

    # Space large enough to engage the pool: unique expansions may
    # drift a little (the cycle proviso's full re-expansions depend on
    # traversal order), but never by the old re-work margin.
    big = mgc_program(alg.impl, alg.workload.menu,
                      threads=2, ops_per_thread=2)
    seq = explore(big, engine=REDUCED)
    par = explore(big, engine=EngineSpec("parallel", reduce="por+sym",
                                         workers=2, spill_nodes=500))
    assert par.histories == seq.histories
    assert abs(par.nodes - seq.nodes) <= max(50, seq.nodes // 20)


def test_parallel_spill_resubmission_keeps_subtrees():
    """A task's spill includes its own not-yet-expanded input nodes
    (the budget can run out before the frontier is drained).  The
    driver used to dedup re-spills against *submitted* keys and drop
    those nodes — losing their entire subtrees.  Force many tiny spill
    cycles and require the full trace sets."""

    alg = get_algorithm("treiber")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=3, ops_per_thread=1)
    seq = explore(program)
    par = explore(program, engine=EngineSpec("parallel", workers=2,
                                             spill_nodes=100))
    assert par.histories == seq.histories
    assert par.observables == seq.observables
    assert par.bounded == seq.bounded


def test_ineligible_program_degrades_silently():
    """CCAS packs pointers into ``2p+1`` arithmetic — outside the
    pure-move fragment — so the reduction must switch itself off and
    explore exactly the unreduced graph."""

    alg = get_algorithm("ccas")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    red = explore(program, engine=REDUCED)
    base = explore(program, engine=UNREDUCED)
    assert red.reduce == "none"
    assert red.por_pruned == 0 and red.sym_merged == 0
    assert red.nodes == base.nodes
    assert red.histories == base.histories
