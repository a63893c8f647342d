"""Work-stealing parallel exploration across worker processes.

The driver partitions the search frontier into *subtree tasks* and
distributes them over a ``multiprocessing`` pool:

1. the parent expands the search sequentially for a small warm-up budget,
   producing a first spilled frontier;
2. frontier nodes are batched into tasks on a shared pool queue; idle
   workers pull the next task — task-level work stealing;
3. a worker explores its subtree with the *same* ``run_from`` loop the
   sequential engine uses; when it exceeds its per-task node budget it
   returns the unexplored remainder of its stack (a *spill*), which the
   parent deduplicates against a shared seen-set of canonical state
   digests (:mod:`repro.engine.canonical` — statement identity does not
   survive pickling, so structural hashing is what makes cross-process
   deduplication possible) and re-enqueues;
4. partial results stream back and are merged monotonically; verdict
   problems (the Definition-2 product engine, the instrumented runner)
   short-circuit the whole pool on the first violation.

Workers inherit the problem (program, specification closures, invariant
callables — none of which need to be picklable) through ``fork``; only
search nodes and partial results cross process boundaries.  On platforms
without ``fork``, or when only one worker is available, the driver
transparently degrades to the sequential engine.

Exactness: per-task seen-sets are subsets of the global sequential
seen-set, so workers may re-explore shared interior states — wasted work,
never wrong answers.  The history/observable/verdict outputs are
identical to the sequential engine whenever exploration completes within
bounds; only diagnostic node counts may differ.
"""

from __future__ import annotations

import multiprocessing
import queue

#: Sequential warm-up budget before going parallel: enough to generate a
#: healthy first frontier, small enough to not serialise the run.
WARMUP_NODES = 2_000

#: Upper bound on nodes per dispatched task batch.
MAX_BATCH = 64

_WORKER_PROBLEM = None


def _init_worker(problem) -> None:
    global _WORKER_PROBLEM
    _WORKER_PROBLEM = problem


def _run_task(nodes, budget):
    return _WORKER_PROBLEM.run_task(nodes, budget)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class ParallelDriver:
    """Generic frontier-partitioning driver over a *problem* object.

    A problem encapsulates one search (plain exploration, the product
    engine, the instrumented runner) behind five hooks:

    * ``roots()`` — initial frontier nodes;
    * ``run_task(nodes, budget)`` — explore; return ``(partial, spill)``;
    * ``merge(acc, partial)`` — fold a partial result into the
      accumulator;
    * ``dedup_key(node)`` — canonical digest for the shared seen-set;
    * ``should_stop(acc)`` — verdict short-circuit;
    * ``node_count(acc)`` / ``max_nodes`` — global node-cap bookkeeping;
    * ``mark_bounded(acc)`` — record that the cap cut the search.

    A problem may also expose an optional ``finalize(acc)`` hook, which
    :func:`run_parallel` invokes once after the driver returns (e.g. the
    Sym(n) orbit closure of trace sets under thread-identity symmetry).
    """

    def __init__(self, problem, workers: int, spill_nodes: int):
        self.problem = problem
        self.workers = max(workers, 1)
        self.spill_nodes = max(spill_nodes, 100)

    # -- sequential fallback -------------------------------------------------

    def _finish_sequentially(self, acc, frontier) -> None:
        problem = self.problem
        while frontier and not problem.should_stop(acc):
            remaining = problem.max_nodes - problem.node_count(acc)
            if remaining <= 0:
                problem.mark_bounded(acc)
                return
            partial, spill = problem.run_task(frontier, remaining)
            problem.merge(acc, partial)
            frontier = spill
        if frontier:
            problem.mark_bounded(acc)

    # -- the driver ----------------------------------------------------------

    def run(self):
        problem = self.problem
        acc = problem.new_accumulator()
        frontier = problem.roots()

        if self.workers <= 1 or not fork_available():
            self._finish_sequentially(acc, frontier)
            return acc

        # Warm up sequentially to build a frontier worth distributing.
        partial, spill = problem.run_task(frontier,
                                          min(WARMUP_NODES,
                                              problem.max_nodes))
        problem.merge(acc, partial)
        if not spill or problem.should_stop(acc):
            if spill and problem.node_count(acc) >= problem.max_nodes:
                problem.mark_bounded(acc)
            elif spill:
                self._finish_sequentially(acc, spill)
            return acc

        # Re-spill filtering.  A task's spill includes nodes of its *own*
        # input batch it never got to expand (the budget ran out first),
        # so filtering re-spills against "was this key ever submitted"
        # silently dropped those nodes' entire subtrees.  Problems that
        # track expansions (``expanded_digests``) filter against "was
        # this node actually expanded" instead — a scheduled-but-spilled
        # node comes back until some task expands it.  Problems without
        # the tracking keep the legacy submitted-key filter.
        expanded = getattr(problem, "expanded_digests", None)
        seen = {problem.dedup_key(node) for node in spill}
        results: "queue.SimpleQueue" = queue.SimpleQueue()
        pending = 0
        capped = False

        ctx = multiprocessing.get_context("fork")
        pool = ctx.Pool(self.workers, initializer=_init_worker,
                        initargs=(problem,))
        try:
            def submit(batch: list) -> None:
                nonlocal pending
                pool.apply_async(_run_task, (batch, self.spill_nodes),
                                 callback=results.put,
                                 error_callback=results.put)
                pending += 1

            batch_cap = max(1, min(MAX_BATCH,
                                   len(spill) // (2 * self.workers) or 1))
            for i in range(0, len(spill), batch_cap):
                submit(spill[i:i + batch_cap])

            while pending:
                outcome = results.get()
                pending -= 1
                if isinstance(outcome, BaseException):
                    raise outcome
                partial, spilled = outcome
                problem.merge(acc, partial)
                if problem.should_stop(acc):
                    break
                if problem.node_count(acc) >= problem.max_nodes:
                    capped = True
                    break
                fresh = []
                for node in spilled:
                    key = problem.dedup_key(node)
                    if expanded is not None:
                        # Merge ran above, so the finished task's own
                        # expansions are already in the set.  A node can
                        # be resubmitted while still unexpanded (two
                        # tasks spilled it concurrently) — duplicate
                        # work the reexplored counter reports, never a
                        # lost subtree.
                        if key not in expanded:
                            fresh.append(node)
                    elif key not in seen:
                        seen.add(key)
                        fresh.append(node)
                for i in range(0, len(fresh), MAX_BATCH):
                    submit(fresh[i:i + MAX_BATCH])
        finally:
            pool.terminate()
            pool.join()
        if capped:
            problem.mark_bounded(acc)
        return acc


# ---------------------------------------------------------------------------
# Problem instances
# ---------------------------------------------------------------------------


class ExploreProblem:
    """Plain interleaving exploration (:class:`repro.semantics.scheduler.Explorer`)."""

    def __init__(self, program, limits, reduce=None, ownership="field",
                 semantics=None):
        from ..semantics.scheduler import Explorer

        self.explorer = Explorer(program, limits, reduce=reduce,
                                 ownership=ownership, semantics=semantics)
        self.max_nodes = self.explorer.limits.max_nodes
        # Canonical-digest view of terminal configs: Config equality is
        # statement-identity-based and does not survive pickling, so the
        # parent dedups terminals structurally to keep cardinalities
        # equal to the sequential engine's.  (Under reduction, workers
        # explore *canonical* representatives — the canonicalization walk
        # is deterministic, so every worker picks the same one and the
        # digests still line up with the sequential engine's.)
        self._terminal_digests = set()
        # Structural digests of every expanded node, across all tasks.
        # Per-task seen-sets cannot share interior states, so tasks
        # re-expand nodes other tasks already did; counting those into
        # ``nodes`` made exhaustive parallel runs report more nodes than
        # the sequential engine for the same state space.  The parent
        # attributes each expansion once (``nodes``) and counts repeats
        # separately (``reexplored``).
        self.expanded_digests = set()

    def new_accumulator(self):
        from ..semantics.scheduler import ExplorationResult

        acc = ExplorationResult(engine="parallel")
        acc.reduce = self.explorer.policy.effective
        acc.reduce_reasons = self.explorer.policy.reasons
        acc.semantics = self.explorer.semantics
        acc.semantics_reasons = self.explorer.semantics_reasons
        acc.histories.add(())
        acc.observables.add(())
        return acc

    def roots(self):
        return self.explorer.start_nodes()

    def run_task(self, nodes, budget):
        from ..semantics.scheduler import ExplorationResult

        from .canonical import canonical_digest

        partial = ExplorationResult()
        partial.expanded_keys = []
        spill = self.explorer.run_from(list(nodes), budget, partial)
        # Digest in the worker (structural, so the keys survive pickling
        # and agree across workers); ship digests, not configurations.
        partial.expanded_keys = [canonical_digest(k)
                                 for k in partial.expanded_keys]
        return partial, spill

    def merge(self, acc, partial) -> None:
        from .canonical import canonical_digest

        acc.histories |= partial.histories
        acc.observables |= partial.observables
        acc.aborted = acc.aborted or partial.aborted
        acc.bounded = acc.bounded or partial.bounded
        if partial.expanded_keys is None:
            acc.nodes += partial.nodes
        else:
            expanded = self.expanded_digests
            for digest in partial.expanded_keys:
                if digest in expanded:
                    acc.reexplored += 1
                else:
                    expanded.add(digest)
                    acc.nodes += 1
        acc.por_pruned += partial.por_pruned
        acc.sym_merged += partial.sym_merged
        acc.sleep_skipped += partial.sleep_skipped
        acc.tsym_merged += partial.tsym_merged
        acc.reexplored += partial.reexplored
        acc.dedup_hits += partial.dedup_hits
        acc.dedup_lookups += partial.dedup_lookups
        acc.elapsed += partial.elapsed
        fresh = [d for d in partial.diagnostics
                 if d not in acc.diagnostics]
        if fresh:
            acc.diagnostics = acc.diagnostics + tuple(fresh)
        for config in partial.terminal_configs:
            digest = canonical_digest(config)
            if digest not in self._terminal_digests:
                self._terminal_digests.add(digest)
                acc.terminal_configs.add(config)

    def dedup_key(self, node) -> bytes:
        from .canonical import canonical_digest

        config, hist, obs, _depth = node
        return canonical_digest((config, hist, obs))

    def should_stop(self, acc) -> bool:
        return False

    def node_count(self, acc) -> int:
        return acc.nodes

    def mark_bounded(self, acc) -> None:
        acc.bounded = True

    def finalize(self, acc) -> None:
        # Close the collected trace sets under Sym(n) when exploring in
        # canonical thread-identity space (mirrors ``Explorer.run``).
        self.explorer.close_result(acc)


class ProductLinProblem:
    """The Definition-2 product engine (configurations × monitor)."""

    def __init__(self, program, spec, limits, theta=None, reduce=None,
                 ownership="field", semantics=None):
        from ..history.monitor import SpecMonitor
        from ..semantics.scheduler import Explorer, Limits

        self.limits = limits or Limits()
        self.monitor = SpecMonitor(spec)
        self.explorer = Explorer(program, reduce=reduce,
                                 ownership=ownership, semantics=semantics)
        self.states0 = self.monitor.initial(theta)
        self.max_nodes = self.limits.max_nodes
        self._distinct_histories = {()}
        # Cross-task expansion dedup; see ExploreProblem.
        self.expanded_digests = set()

    def new_accumulator(self):
        from ..history.object_lin import ObjectLinResult

        acc = ObjectLinResult(ok=True, engine="parallel")
        acc.reduce = self.explorer.policy.effective
        acc.reduce_reasons = self.explorer.policy.reasons
        acc.semantics = self.explorer.semantics
        acc.semantics_reasons = self.explorer.semantics_reasons
        return acc

    def roots(self):
        from ..history.object_lin import product_start_nodes

        return product_start_nodes(self.explorer, self.states0)

    def run_task(self, nodes, budget):
        from ..history.object_lin import ObjectLinResult, product_run_from

        from .canonical import canonical_digest

        partial = ObjectLinResult(ok=True)
        partial.expanded_keys = []
        distinct = set()
        spill = product_run_from(self.explorer, self.monitor, self.limits,
                                 list(nodes), budget, partial, distinct)
        partial.expanded_keys = [canonical_digest(k)
                                 for k in partial.expanded_keys]
        return (partial, distinct), spill

    def merge(self, acc, partial_and_histories) -> None:
        partial, distinct = partial_and_histories
        self._distinct_histories |= distinct
        if partial.expanded_keys is None:
            acc.nodes_explored += partial.nodes_explored
        else:
            expanded = self.expanded_digests
            for digest in partial.expanded_keys:
                if digest in expanded:
                    acc.reexplored += 1
                else:
                    expanded.add(digest)
                    acc.nodes_explored += 1
        acc.bounded = acc.bounded or partial.bounded
        acc.aborted = acc.aborted or partial.aborted
        acc.por_pruned += partial.por_pruned
        acc.sym_merged += partial.sym_merged
        acc.sleep_skipped += partial.sleep_skipped
        acc.tsym_merged += partial.tsym_merged
        acc.reexplored += partial.reexplored
        acc.dedup_hits += partial.dedup_hits
        acc.dedup_lookups += partial.dedup_lookups
        acc.elapsed += partial.elapsed
        fresh = [d for d in partial.diagnostics
                 if d not in acc.diagnostics]
        if fresh:
            acc.diagnostics = acc.diagnostics + tuple(fresh)
        if not partial.ok and acc.ok:
            acc.ok = False
            acc.counterexample = partial.counterexample
            acc.reason = partial.reason
        acc.histories_checked = len(self._distinct_histories)

    def dedup_key(self, node) -> bytes:
        from .canonical import canonical_digest

        config, states, _hist, _depth = node
        return canonical_digest((config, states))

    def should_stop(self, acc) -> bool:
        return not acc.ok

    def node_count(self, acc) -> int:
        return acc.nodes_explored

    def mark_bounded(self, acc) -> None:
        acc.bounded = True


class InstrumentedProblem:
    """The instrumented-obligation runner (Fig. 11 obligations)."""

    def __init__(self, runner, start):
        self.runner = runner
        self.start = start
        self.max_nodes = runner.limits.max_nodes
        # Structural digests of every expanded node, across all tasks:
        # lets the parent re-submit a spilled node until some task has
        # expanded it (see ExploreProblem), and attributes each expansion
        # once in ``nodes``.
        self.expanded_digests = set()

    def new_accumulator(self):
        acc = self.runner.new_result(engine="parallel")
        acc.histories.add(())
        return acc

    def roots(self):
        return [(self.start, (), 0)]

    def run_task(self, nodes, budget):
        from ..instrument.runner import InstrumentedRunResult
        from .canonical import canonical_digest

        partial = InstrumentedRunResult(expanded_keys=[])
        spill = self.runner.run_from(list(nodes), budget, partial)
        partial.expanded_keys = [canonical_digest(k)
                                 for k in partial.expanded_keys]
        return partial, spill

    def merge(self, acc, partial) -> None:
        acc.failures.extend(partial.failures)
        expanded = self.expanded_digests
        for digest in partial.expanded_keys:
            if digest not in expanded:
                expanded.add(digest)
                acc.nodes += 1
        acc.bounded = acc.bounded or partial.bounded
        acc.histories |= partial.histories
        acc.ok = not acc.failures

    def dedup_key(self, node) -> bytes:
        from .canonical import canonical_digest

        config, hist, _depth = node
        return canonical_digest(self.runner.node_key(config, hist))

    def should_stop(self, acc) -> bool:
        return len(acc.failures) >= self.runner.max_failures

    def node_count(self, acc) -> int:
        return acc.nodes

    def mark_bounded(self, acc) -> None:
        acc.bounded = True


def run_parallel(problem, workers: int, spill_nodes: int):
    """Run ``problem`` under the driver; returns the merged accumulator."""

    acc = ParallelDriver(problem, workers, spill_nodes).run()
    finalize = getattr(problem, "finalize", None)
    if finalize is not None:
        finalize(acc)
    return acc
