"""E10 — checker scaling: why thread-local reasoning matters.

The paper's motivation for a *thread-local* logic is that whole-program
state spaces explode.  We measure that explosion directly on our own
checkers:

* the Definition-2 product engine vs the literal definitional pipeline
  (collect histories, backtracking-search each) on growing workloads —
  the speculation monitor collapses interleaving paths; the definitional
  engine is exponentially worse;
* growth in threads vs growth in operations for the product engine;
* the instrumented (proof-witness) runner vs the model checker: carrying
  the proof's Δ is cheaper than searching for linearizations;
* the exploration engines against each other: the parallel work-stealing
  driver must agree with the sequential engine on every Table-1 verdict,
  and the random walk samples an above-seed-bound workload;
* (E12) the state-space reductions: partial-order reduction plus
  address-symmetry canonicalization must shrink the product state space
  by the committed factor at a wall-clock win, with identical verdicts.
"""

import time

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.history import check_object_linearizable
from repro.semantics import Limits

LIMITS = Limits(max_depth=8000, max_nodes=4_000_000)


@pytest.mark.parametrize("threads,ops", [(2, 1), (2, 2), (3, 1)])
def test_product_engine_scaling(benchmark, threads, ops):
    alg = get_algorithm("treiber")
    res = benchmark.pedantic(
        check_object_linearizable,
        args=(alg.impl, alg.spec, alg.workload.menu),
        kwargs=dict(threads=threads, ops_per_thread=ops, limits=LIMITS),
        rounds=1, iterations=1)
    print(f"\n[product {threads}x{ops}] {res.summary()}")
    assert res.ok


@pytest.mark.parametrize("threads,ops", [(2, 1), (2, 2)])
def test_definitional_engine_scaling(benchmark, threads, ops):
    """The literal Def-1/Def-2 pipeline (baseline comparator)."""

    alg = get_algorithm("treiber")
    res = benchmark.pedantic(
        check_object_linearizable,
        args=(alg.impl, alg.spec, alg.workload.menu),
        kwargs=dict(threads=threads, ops_per_thread=ops, limits=LIMITS,
                    definitional=True),
        rounds=1, iterations=1)
    print(f"\n[definitional {threads}x{ops}] {res.summary()}")
    assert res.ok


@pytest.mark.parametrize("threads,ops", [(2, 2), (3, 1)])
def test_instrumented_witness_vs_model_checking(benchmark, threads, ops):
    """The instrumentation is also *cheaper*: its Δ is a single driven
    witness, while the monitor saturates over every speculation."""

    alg = get_algorithm("treiber")

    def both():
        from repro.algorithms.base import Workload

        w = Workload(alg.workload.menu, threads, ops)
        instr = alg.verify_instrumentation(w, LIMITS)
        # reduce="none": the claim compares state counts over the *same*
        # unreduced graph; the reductions shrink lin's side separately
        # (measured in E12 below).
        lin = alg.check_linearizability(w, LIMITS,
                                        engine="sequential+noreduce")
        return instr, lin

    instr, lin = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\n[{threads}x{ops}] instrumented: {instr.nodes} states; "
          f"model checker: {lin.nodes} states")
    assert instr.ok and lin.ok
    assert instr.nodes <= lin.nodes


# ---------------------------------------------------------------------------
# Exploration engines (parallel work stealing, random walk)
# ---------------------------------------------------------------------------

#: Above-seed-bound workload for the random-walk engine.
SPEEDUP_ALG = "pair_snapshot"
SPEEDUP_THREADS = 2
SPEEDUP_OPS = 3


def _lin_verdict(name, engine=None, threads=None, ops=None):
    alg = get_algorithm(name)
    w = alg.workload
    return check_object_linearizable(
        alg.impl, alg.spec, w.menu,
        threads or w.threads, ops or w.ops_per_thread,
        alg.limits, phi=alg.phi, engine=engine)


def test_parallel_verdicts_match_sequential_all_rows(benchmark):
    """The parallel engine reproduces every Table-1 verdict exactly."""

    def run(engine):
        return {name: _lin_verdict(name, engine=engine)
                for name in algorithm_names()}

    sequential = run(None)
    parallel = benchmark.pedantic(run, args=("parallel",),
                                  rounds=1, iterations=1)
    benchmark.extra_info["engine"] = "parallel"
    benchmark.extra_info["bounded"] = any(
        r.bounded for r in parallel.values())
    for name in algorithm_names():
        seq, par = sequential[name], parallel[name]
        assert seq.ok == par.ok, name
        assert seq.bounded == par.bounded, name
        print(f"\n[{name}] sequential={seq.ok} parallel={par.ok}")
    assert all(r.ok for r in parallel.values())


# ---------------------------------------------------------------------------
# E12 — state-space reduction ablation (repro.reduce)
# ---------------------------------------------------------------------------
#
# The partial-order + address-symmetry reductions must (a) preserve the
# Definition-2 verdict exactly and (b) shrink the product state space by
# a substantial factor on the allocating Table-1 structures, at a
# wall-clock *win*, not just a node-count win.  The per-node overhead of
# canonicalization is real (~1.5-2x), so the node ratio must clear it;
# asserting both here keeps either side from regressing silently.

#: (algorithm, threads, ops, minimum node ratio) — thresholds sit well
#: under the measured ratios (treiber 2.40x / ms queue 2.40x at 2x2,
#: ms queue 3.79x at 3x1) so only a genuine regression trips them.
#: 3 threads x 2 ops exceeds the 3M-node bound in *both* modes (the
#: reduced run alone symmetry-merges 2.7M successors before the cap),
#: so the three-thread ratio is asserted at 3x1, the largest
#: three-thread workload that completes within the seed bounds.
ABLATION_CASES = [
    ("treiber", 2, 2, 2.0),
    ("ms_lock_free_queue", 2, 2, 2.0),
    ("ms_lock_free_queue", 3, 1, 3.0),
]


@pytest.mark.parametrize("name,threads,ops,min_ratio", ABLATION_CASES)
def test_reduction_ablation(benchmark, name, threads, ops, min_ratio):
    t0 = time.perf_counter()
    base = _lin_verdict(name, engine="sequential+noreduce",
                        threads=threads, ops=ops)
    base_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    red = benchmark.pedantic(
        _lin_verdict, args=(name,),
        kwargs=dict(engine="sequential", threads=threads, ops=ops),
        rounds=1, iterations=1)
    red_s = time.perf_counter() - t1

    ratio = base.nodes / max(red.nodes, 1)
    speedup = base_s / max(red_s, 1e-9)
    benchmark.extra_info.update(
        reduce=red.reduce, nodes_reduced=red.nodes,
        nodes_unreduced=base.nodes, node_ratio=round(ratio, 2),
        speedup=round(speedup, 2), por_pruned=red.por_pruned,
        sym_merged=red.sym_merged)
    print(f"\n[{name} {threads}x{ops}] reduced {red.nodes} "
          f"({red_s:.1f}s) vs unreduced {base.nodes} "
          f"({base_s:.1f}s): {ratio:.2f}x fewer nodes, "
          f"{speedup:.2f}x faster")
    assert red.ok == base.ok and red.bounded == base.bounded
    assert red.reduce == "por+sym"
    assert ratio >= min_ratio
    # Wall-clock must not regress: the node savings have to beat the
    # canonicalization overhead (measured ~1.35x faster; 1.0 is the
    # do-no-harm floor with slack for noisy CI machines).
    assert speedup >= 1.0


def test_random_walk_engine_above_seed_bounds(benchmark):
    """The sampling fallback on the same above-seed workload: orders of
    magnitude cheaper, reported distinctly (``exhaustive=False``)."""

    res = benchmark.pedantic(
        _lin_verdict, args=(SPEEDUP_ALG,),
        kwargs=dict(engine="random-walk", threads=SPEEDUP_THREADS,
                    ops=SPEEDUP_OPS),
        rounds=1, iterations=1)
    benchmark.extra_info["engine"] = "random-walk"
    benchmark.extra_info["bounded"] = res.bounded
    benchmark.extra_info["exhaustive"] = res.exhaustive
    print(f"\n[{SPEEDUP_ALG} {SPEEDUP_THREADS}x{SPEEDUP_OPS}] "
          f"{res.summary()}")
    assert res.ok and not res.exhaustive


# ---------------------------------------------------------------------------
# E14 — step-semantics ablation (repro.compile)
# ---------------------------------------------------------------------------
#
# The compiled transition tables must be a *pure* speedup: the same
# reachable sets node-for-node (the reductions must make identical
# decisions against either semantics) at a >=2x node rate on the hardest
# three-thread workload.  Measured on the MS lock-free queue at 3x1
# under por+sym: 2.5x at the explore layer, 2.2x at the product layer
# (EXPERIMENTS.md E14); the assertion sits at the committed 2.0x floor.


def test_semantics_ablation(benchmark):
    from repro.semantics.mgc import mgc_program
    from repro.semantics.scheduler import explore

    alg = get_algorithm("ms_lock_free_queue")
    program = mgc_program(alg.impl, alg.workload.menu, 3, 1)
    # Both runs are cut at the same 200k-node frontier, so the rate
    # comparison covers exactly the same work in the same order.
    limits = Limits(max_depth=400, max_nodes=200_000)

    t0 = time.perf_counter()
    interp = explore(program, limits, engine="sequential+interp")
    interp_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    compiled = benchmark.pedantic(
        explore, args=(program, limits),
        kwargs=dict(engine="sequential+compiled"), rounds=1, iterations=1)
    compiled_s = time.perf_counter() - t1

    interp_nps = interp.nodes / max(interp_s, 1e-9)
    compiled_nps = compiled.nodes / max(compiled_s, 1e-9)
    ratio = compiled_nps / max(interp_nps, 1e-9)
    benchmark.extra_info.update(
        semantics=compiled.semantics, reduce=compiled.reduce,
        nodes=compiled.nodes, interp_nps=round(interp_nps),
        compiled_nps=round(compiled_nps), nps_ratio=round(ratio, 2))
    print(f"\n[ms_lock_free_queue 3x1 {compiled.reduce}] "
          f"compiled {compiled.nodes} nodes at {compiled_nps:.0f}/s vs "
          f"interp {interp.nodes} nodes at {interp_nps:.0f}/s: "
          f"{ratio:.2f}x")
    assert compiled.semantics == "compiled" and interp.semantics == "interp"
    assert compiled.reduce == "por+sym" == interp.reduce
    # Differential equality on exactly this workload: same nodes, same
    # reachable sets, same reduction counters.
    assert compiled.nodes == interp.nodes
    assert compiled.histories == interp.histories
    assert compiled.observables == interp.observables
    assert compiled.por_pruned == interp.por_pruned
    assert compiled.sym_merged == interp.sym_merged
    assert ratio >= 2.0
