"""Reduction equivalence and node-count guards at sizes tier-1 does not run.

Marked ``guard`` and deselected by default (``pyproject.toml``); run
them with ``PYTHONPATH=src python -m pytest -m guard -s``.  Each prints
the figures it checks.

* Set equivalence: the reductions never change the explored history,
  observable or abort sets — at the explore layer under ``por+sym`` on
  three rows, and under the full default stack (``por+sym+tsym``) on
  every registry algorithm.
* Node-count baselines: Treiber 3x1 (product, ``por+sym``), HSY 2x1
  (explore, ``por+sym``) and the Treiber 3x1 identity quotient (explore,
  full stack) must stay within 1.2x of their committed counts.
* The compiled transition tables drive the reductions to the decisions
  the interpreter makes, and both semantics send every node through one
  canonicalization path.
"""

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.engine import EngineSpec
from repro.history import check_object_linearizable
from repro.memory.store import Store
from repro.reduce import canonicalize_config
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import Explorer, explore

pytestmark = pytest.mark.guard

REDUCED = EngineSpec("sequential", reduce="por+sym")
UNREDUCED = EngineSpec("sequential", reduce="none")


def _program(name, threads):
    alg = get_algorithm(name)
    return mgc_program(alg.impl, alg.workload.menu,
                       threads=threads, ops_per_thread=1)


@pytest.fixture(scope="module")
def treiber_3x1():
    return _program("treiber", 3)


@pytest.mark.parametrize("name", ["treiber", "ms_lock_free_queue", "ccas"])
def test_explore_sets_equal_under_reduction(name):
    """Set-level equivalence at the explore layer: identical
    history/observable sets with the reductions on."""

    program = _program(name, 2)
    red = explore(program, engine=REDUCED)
    base = explore(program, engine=UNREDUCED)
    assert red.histories == base.histories, name
    assert red.observables == base.observables, name
    assert red.aborted == base.aborted, name
    print(f"{name}: sets equal, reduce={red.reduce}, "
          f"nodes {red.nodes} vs {base.nodes}")


def test_treiber_3x1_product_node_baseline():
    """Treiber at 3 threads x 1 op, the largest three-thread workload
    that completes within the seed bounds (3x2 exceeds the 3M-node cap
    in *both* modes).  Committed baseline: 16,364 expanded product nodes
    reduced (vs 42,792 unreduced, a 2.62x reduction).  A reduced count
    above 1.2x the baseline means the reduction regressed."""

    BASELINE_NODES = 16364
    alg = get_algorithm("treiber")
    rep = check_object_linearizable(
        alg.impl, alg.spec, alg.workload.menu, 3, 1,
        alg.limits, phi=alg.phi, engine=REDUCED)
    print(f"treiber 3x1: nodes={rep.nodes} "
          f"reduce={rep.reduce} ok={rep.ok} bounded={rep.bounded}")
    assert rep.ok and not rep.bounded
    assert rep.reduce == "por+sym", "reduction silently disabled"
    assert rep.nodes <= 1.2 * BASELINE_NODES, (
        f"reduction regressed: {rep.nodes} expanded "
        f"nodes vs committed baseline {BASELINE_NODES}")


def test_hsy_stack_2x1_explore_node_baseline():
    """HSY stack at 2x1: only symmetry-eligible thanks to the
    field-sensitive escape analysis (the coarse scan refuses).
    Committed baseline: 21,743 expanded explore nodes reduced vs 80,854
    unreduced/coarse — guard both the node count and that the analysis
    keeps the program in the fragment."""

    HSY_BASELINE = 21743
    program = _program("hsy_stack", 2)
    red = explore(program, engine=REDUCED)
    base = explore(program, engine=UNREDUCED)
    print(f"hsy_stack 2x1: nodes {red.nodes} vs {base.nodes}, "
          f"reduce={red.reduce}")
    assert red.reduce == "por+sym", (
        "escape analysis no longer admits hsy_stack: "
        f"{red.reduce}, held back by {red.reduce_reasons}")
    assert red.histories == base.histories
    assert red.observables == base.observables
    assert red.nodes < base.nodes, "reduction no longer effective"
    assert red.nodes <= 1.2 * HSY_BASELINE, (
        f"reduction regressed: {red.nodes} expanded nodes vs "
        f"committed baseline {HSY_BASELINE}")


@pytest.mark.parametrize("name", algorithm_names())
def test_tsym_stack_sets_equal_on_every_registry_algorithm(name):
    """Thread-identity symmetry equivalence gate: the full default stack
    (por+sym+tsym — sleep sets + canonical identity space + Sym(n) trace
    closure) must reproduce the unreduced sets on EVERY registry
    algorithm, eligible or not."""

    program = _program(name, 2)
    full = explore(program)  # default engine: por+sym+tsym
    base = explore(program, engine=UNREDUCED)
    assert full.histories == base.histories, name
    assert full.observables == base.observables, name
    assert full.aborted == base.aborted, name
    print(f"{name}: tsym-stack sets equal, "
          f"reduce={full.reduce}, nodes {full.nodes} "
          f"vs {base.nodes}")


def test_treiber_3x1_tsym_quotient_baseline(treiber_3x1):
    """Identity-quotient regression guard: Treiber 3x1 explore under the
    full stack.  Committed baseline: 15,936 expanded nodes (vs 94,230
    under por+sym — a 5.91x quotient, close to the ideal 3! = 6).  MS
    lock-free 3x2 still exceeds the 3M-node cap in every mode
    (EXPERIMENTS.md E15), so no baseline is pinned there yet."""

    TSYM_BASELINE = 15936
    full = explore(treiber_3x1)
    print(f"treiber 3x1 tsym quotient: nodes={full.nodes} "
          f"reduce={full.reduce} tsym_merged={full.tsym_merged}")
    assert full.reduce == "por+sym+tsym", (
        "identity symmetry silently disabled: "
        f"{full.reduce}, held back by {full.reduce_reasons}")
    assert full.tsym_merged > 0, "no rotations performed"
    assert full.nodes <= 1.2 * TSYM_BASELINE, (
        f"identity quotient regressed: {full.nodes} expanded "
        f"nodes vs committed baseline {TSYM_BASELINE}")


def test_treiber_3x1_interp_and_compiled_decide_alike(treiber_3x1):
    """Interp-vs-compiled node-count equality gate: the compiled
    transition tables must drive the reductions to *identical* decisions
    — Treiber at 3 threads x 1 op, both semantics, same node count, same
    reachable sets, same counters (the sleep-set and identity-rotation
    counters included)."""

    interp = explore(treiber_3x1, engine="sequential+interp")
    compiled = explore(treiber_3x1, engine="sequential+compiled")
    print(f"treiber 3x1 semantics gate: compiled {compiled.nodes} "
          f"nodes vs interp {interp.nodes}")
    assert compiled.semantics == "compiled", (
        f"tables degraded: {compiled.semantics_reasons}")
    assert compiled.nodes == interp.nodes, "node counts diverged"
    assert compiled.histories == interp.histories
    assert compiled.observables == interp.observables
    assert compiled.por_pruned == interp.por_pruned
    assert compiled.sym_merged == interp.sym_merged
    assert compiled.sleep_skipped == interp.sleep_skipped
    assert compiled.tsym_merged == interp.tsym_merged


def test_treiber_3x1_one_canonicalization_path(treiber_3x1, monkeypatch):
    """Both explorers send every start node and successor through
    ``Explorer._canonical`` (equal call counts), and every configuration
    either one expands is already canonical."""

    canon_calls = {"compiled": 0, "interp": 0}
    canonical = Explorer._canonical

    def counted_canonical(self, config):
        canon_calls[self.semantics] += 1
        return canonical(self, config)

    monkeypatch.setattr(Explorer, "_canonical", counted_canonical)
    for semantics in canon_calls:
        explorer = Explorer(treiber_3x1, semantics=semantics)
        assert explorer.semantics == semantics
        run = explorer.new_result(expanded_keys=[])
        explorer.run_from(explorer.start_nodes(),
                          explorer.limits.max_nodes, run)
        assert run.nodes == len(run.expanded_keys) > 0
        assert not any(canonicalize_config(config, Store)[1]
                       for config, _label in run.expanded_keys), (
            f"{semantics}: a non-canonical configuration expanded")
    print(f"treiber 3x1 _canonical calls: {canon_calls}")
    assert canon_calls["compiled"] == canon_calls["interp"] > 0
