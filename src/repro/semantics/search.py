"""The bounded reachability search every decider runs.

Def-2 linearizability searches configuration × Σ, Def-3 refinement
searches configuration × history × trace (and the abstract program),
and the Fig-11 witness searches configuration × Δ.  All of them are the
same depth-first search; :func:`search` is that search, written once,
and :func:`walk` samples it.  A decider hands either one the same hooks:

* ``expand(config, label, sleep, full)`` returns the node's successors
  as an :class:`Expansion` value.  ``sleep`` is the node's sleep set and
  ``full`` asks for no reduction at all; a decider without reductions
  ignores both and counts nothing.  The explorer's reductions and its
  expansion memo stay behind the hook
  (:meth:`~repro.semantics.scheduler.Explorer.expander`);
* ``advance(next_config, label, event)`` says how a successor's event
  advances the node's *label* (the part of a node beyond the
  configuration: history and trace, monitor state set, ...) and gives
  the successor's dedup key.

One loop, :func:`_drive`, judges every node of both: the sleep-wake and
cycle-proviso re-expansions, the charging of the expansion a node keeps
and the noting of every expansion's cuts, the depth rule (see
:class:`~repro.semantics.scheduler.Limits`), early stop, and the
collector pause: the cyclic collector is off while the loop runs and
back in its entry state on every exit.  Search state forms no reference
cycles, so a collection there frees nothing and only walks the growing
heap (``tests/test_search_stats.py`` checks that no decider's run leaves
cyclic garbage).

A search node is ``(config, label, depth, key)``; the stack also carries
the node's sleep set, which a spilled frontier drops again (waking a
resumed node entirely is always sound).
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, fields
from time import perf_counter
from typing import (
    Callable,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

#: A search node: (configuration, label, depth, dedup key).
Node = Tuple[object, object, int, object]

#: The empty sleep set (shared: most nodes sleep nobody).
NO_SLEEP: FrozenSet[int] = frozenset()


@dataclass
class SearchStats:
    """What a search reports about itself, on every decider's result.

    :func:`search` fills the counters in; the decider sets the
    provenance (which engine, reduction and step semantics ran).  The
    result types of explore, the Def-2 product, the Fig-11 witness, the
    abstract explorer and Def-3 refinement subclass this record and add
    only their own verdict fields.
    """

    #: Expanded search nodes (unique expansions under the parallel
    #: driver, so parallel and sequential runs report comparable counts).
    nodes: int = 0
    #: True when a bound (depth, node budget, a cut transition) cut the
    #: search: the verdict then holds up to the bound only.
    bounded: bool = False
    #: Human-readable diagnostics (e.g. an atomic-loop fuel exhaustion
    #: cutting a transition); non-empty implies ``bounded``.
    diagnostics: Tuple[str, ...] = ()
    #: Which engine produced this result ("sequential", "parallel",
    #: "random-walk"); a non-exhaustive engine's result must never be
    #: read as an exhaustive verdict.
    engine: str = "sequential"
    exhaustive: bool = True
    #: The reduction mode actually in force ("none" / "por" / "por+sym"
    #: after eligibility filtering — see :mod:`repro.reduce`), and why
    #: the eligibility scan withheld reductions (empty when nothing was).
    reduce: str = "none"
    reduce_reasons: Tuple[str, ...] = ()
    #: The step semantics actually used: ``"compiled"`` (transition
    #: tables, see :mod:`repro.compile`) or ``"interp"`` (AST walker),
    #: and why a requested ``"compiled"`` degraded (empty when nothing
    #: degraded).
    semantics: str = "interp"
    semantics_reasons: Tuple[str, ...] = ()
    #: Counters.  ``por_pruned`` counts successor edges partial-order
    #: reduction skipped; ``sym_merged`` counts successors redirected to
    #: a canonical address-permutation representative; ``sleep_skipped``
    #: counts thread expansions skipped by sleep-set POR;
    #: ``tsym_merged`` counts successors rotated to the canonical
    #: thread-identity representative; ``reexplored`` counts nodes the
    #: parallel driver expanded more than once because per-task
    #: seen-sets cannot share interior states; the dedup pair gives the
    #: seen-set hit rate; ``elapsed`` is search wall-clock.
    por_pruned: int = 0
    sym_merged: int = 0
    sleep_skipped: int = 0
    tsym_merged: int = 0
    reexplored: int = 0
    dedup_hits: int = 0
    dedup_lookups: int = 0
    elapsed: float = 0.0
    #: When a caller binds a list here before the search, every
    #: expansion appends its dedup key; the parallel driver digests
    #: these (structurally, so the count survives pickling) for
    #: cross-task expansion dedup.  ``None`` disables the collection.
    expanded_keys: Optional[List] = None

    @property
    def nodes_per_sec(self) -> float:
        return self.nodes / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def dedup_hit_rate(self) -> float:
        if self.dedup_lookups <= 0:
            return 0.0
        return self.dedup_hits / self.dedup_lookups

    def charge(self, expansion: "Expansion") -> None:
        """Add a kept expansion's reduction counts to this record."""

        self.por_pruned += expansion.pruned
        self.sym_merged += expansion.sym_merged
        self.sleep_skipped += expansion.slept
        self.tsym_merged += expansion.tsym_merged

    def add_counters(self, other: "SearchStats") -> None:
        """Add ``other``'s counters to this record's (``nodes`` is not
        a counter here: the parallel merge attributes expansions itself)."""

        self.por_pruned += other.por_pruned
        self.sym_merged += other.sym_merged
        self.sleep_skipped += other.sleep_skipped
        self.tsym_merged += other.tsym_merged
        self.reexplored += other.reexplored
        self.dedup_hits += other.dedup_hits
        self.dedup_lookups += other.dedup_lookups
        self.elapsed += other.elapsed


class Expansion(NamedTuple):
    """One node's expansion, as the ``expand`` hook hands it to the
    search.

    It describes the expansion that produced it and nothing else, so a
    memo can replay it and a run charges exactly the expansions it keeps
    (:meth:`SearchStats.charge`).
    """

    #: ``(next_config, event)`` pairs; ``next_config`` is ``None`` for
    #: an aborted step.
    successors: tuple
    #: The successors' sleep sets, aligned with ``successors`` (``None``
    #: with sleep sets off).
    sleeps: Optional[tuple]
    #: Successor edges POR skipped (non-zero exactly when POR expanded
    #: one thread only), and threads skipped asleep; either makes the
    #: cycle proviso apply.
    pruned: int
    slept: int
    #: Successors redirected to a canonical address-permutation
    #: representative, and successors rotated to a different canonical
    #: thread-identity representative.
    sym_merged: int
    tsym_merged: int
    #: One diagnostic per transition the expansion cut (atomic-loop fuel).
    cuts: Tuple[str, ...]


def stats_of(record: SearchStats) -> dict:
    """``record``'s :class:`SearchStats` fields as keywords: a decider
    that wraps another's run (definitional Def-2, Def-3 refinement)
    reports that run's record as its own."""

    return {f.name: getattr(record, f.name) for f in fields(SearchStats)}


class BoundedCache(dict):
    """A dict that empties itself once it holds ``cap`` entries.

    The search's clients memoize pure functions of a node (ownership
    maps, canonical representatives, a thread's successors) in these.
    Clearing wholesale beats an LRU here: keys repeat in bursts while a
    region of the state space is explored, and the bound keeps a long
    run from hoarding memory.  ``cap <= 0`` stores nothing.
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def put(self, key, value):
        """Store ``value`` under ``key`` (clearing first when full) and
        return it."""

        if len(self) >= self.cap:
            self.clear()
        if self.cap > 0:
            self[key] = value
        return value


class StopSearch(Exception):
    """Raised by a client's ``advance`` to end the search at once (a
    decider found its violation); the search then returns no spill."""


def note_diagnostics(result: SearchStats, messages: Sequence[str]) -> None:
    """Append the ``messages`` not yet in ``result.diagnostics``.  A
    diagnostic reports a cut transition, so ``result`` is then bounded."""

    if messages:
        result.bounded = True
    fresh = [d for d in messages if d not in result.diagnostics]
    if fresh:
        result.diagnostics = result.diagnostics + tuple(fresh)


def _drive(nodes: Iterator[tuple], stack: List[tuple], seen: Optional[dict],
           result: SearchStats, advance: Callable, expand: Callable,
           max_depth: int, terminal: Optional[Callable],
           cut: Optional[Callable], done: Optional[Callable]) -> None:
    """Judge every ``(config, label, depth, key, sleep)`` node ``nodes``
    yields: the loop :func:`search` and :func:`walk` share.

    Each successor ``advance`` keeps goes on ``stack`` with its sleep
    set, unless the ``seen`` dict (``None`` in a walk) covers it.
    ``result`` gets ``nodes``, ``bounded``, ``diagnostics``, the
    reduction and dedup counters and ``elapsed``.
    """

    expanded = hits = lookups = 0
    # The expansion of the node in flight, charged when the node is done
    # with it.
    exp = None
    started = perf_counter()
    collecting = gc.isenabled()
    gc.disable()

    try:
        for config, label, depth, _key, sleep in nodes:
            expanded += 1
            exp = expand(config, label, sleep, False)
            if exp.cuts:
                note_diagnostics(result, exp.cuts)
            successors = exp.successors
            if not successors and exp.slept:
                # Every runnable thread was asleep.  Their futures are
                # covered by earlier siblings, but recording the node as
                # terminal would be wrong (it is not quiescent) —
                # re-expand ignoring sleep.
                exp = expand(config, label, NO_SLEEP, False)
                if exp.cuts:
                    note_diagnostics(result, exp.cuts)
                successors = exp.successors
            if not successors:
                # Quiescent or deadlocked.
                if terminal is not None:
                    terminal(config)
            elif depth >= max_depth:
                # The depth rule: a node at the cap is expanded only to
                # tell a terminal node from a cut one.
                result.bounded = True
                if cut is not None:
                    cut()
            else:
                depth += 1
                while True:
                    fresh = 0
                    sleeps = exp.sleeps
                    for sidx, (next_config, event) in enumerate(successors):
                        step = advance(next_config, label, event)
                        if step is None:
                            continue
                        next_label, next_key = step
                        ns = sleeps[sidx] if sleeps is not None else NO_SLEEP
                        if seen is not None:
                            lookups += 1
                            stored = seen.get(next_key)
                            if stored is not None:
                                if stored <= ns:
                                    hits += 1
                                    continue
                                # Seen before, but with threads asleep
                                # that are awake now: re-explore with the
                                # intersection so no future is lost.
                                ns = stored & ns
                            seen[next_key] = ns
                        stack.append((next_config, next_label, depth,
                                      next_key, ns))
                        fresh += 1
                    if fresh or not (exp.pruned or exp.slept):
                        break
                    # Cycle proviso: the prioritized (or non-slept)
                    # threads' successors all dedup into already-seen
                    # nodes, so following only them could starve the
                    # other threads' futures (a cycle of invisible
                    # private steps).  Re-expand the node without any
                    # reduction; the pruned successors stay deduplicated.
                    exp = expand(config, label, NO_SLEEP, True)
                    if exp.cuts:
                        note_diagnostics(result, exp.cuts)
                    successors = exp.successors
            result.charge(exp)
            exp = None
            if done is not None and done():
                return
    except StopSearch:
        if exp is not None:
            result.charge(exp)
    finally:
        if collecting:
            gc.enable()
        result.nodes += expanded
        result.dedup_hits += hits
        result.dedup_lookups += lookups
        result.elapsed += perf_counter() - started


def search(frontier: Sequence[Node], node_budget: int, result: SearchStats,
           advance: Callable, max_depth: int, *, expand: Callable,
           terminal: Optional[Callable] = None,
           cut: Optional[Callable] = None,
           done: Optional[Callable] = None) -> List[Node]:
    """Expand up to ``node_budget`` nodes from ``frontier``.

    Mutates ``result`` in place (see :func:`_drive`; ``expanded_keys``
    too when it is a list) and returns the spilled frontier: the nodes
    left unexpanded when the budget ran out, ``[]`` when the subtree was
    exhausted or the search stopped early.  A node is charged against
    the budget only when it is expanded, so ``result.nodes`` counts
    expansions exactly across spill/resume cycles.

    ``advance`` returns ``(next_label, next_key)``, or ``None`` to drop
    the successor, and may raise :class:`StopSearch`.
    ``terminal(config)`` sees every node without successors; ``cut()``
    runs when a node at the depth cap had successors, which are
    dropped; ``done()`` is asked after every node whether to stop.
    """

    keys = result.expanded_keys
    # Under sleep sets the seen-dict remembers the smallest sleep set
    # each key was pushed with (Godefroid's variant): a revisit with a
    # superset sleep is covered by the earlier visit, anything else
    # re-explores with the intersection.
    seen = {}
    stack: List[tuple] = []
    for node in frontier:
        seen[node[3]] = NO_SLEEP
        stack.append((*node, NO_SLEEP))
    spill: List[Node] = []

    def nodes():
        for _ in range(node_budget):
            if not stack:
                return
            node = stack.pop()
            if keys is not None:
                keys.append(node[3])
            yield node
        spill.extend(node[:4] for node in stack)

    _drive(nodes(), stack, seen, result, advance, expand, max_depth,
           terminal, cut, done)
    return spill


def walk(starts: Sequence[Node], walks: int, seed: int, result: SearchStats,
         advance: Callable, max_depth: int, *, expand: Callable,
         terminal: Optional[Callable] = None,
         cut: Optional[Callable] = None,
         done: Optional[Callable] = None) -> None:
    """Sample ``walks`` executions from ``starts``: :func:`search` with a
    stack of one.

    Walk ``i`` starts from ``starts[i % len(starts)]``, so every start is
    walked and a single start draws no randomness.  Each node is judged
    awake by the search's own loop, with its hooks; the walk then steps
    to one successor ``advance`` kept, picked uniformly by
    ``random.Random(seed)``, until a node keeps none.  ``done()`` or
    :class:`StopSearch` ends all walks.  No seen-set is kept.  The same
    seed, walk count and source tree reproduce the same result.

    Every walk is a path of the search graph, and ``advance`` sees only
    successors of nodes on it, so every history or trace a walk records
    is in the exhaustive search's (prefix-closed) sets: a walk
    *under*-approximates, and any violation it finds is a real
    counterexample.  A walk of the reduced graph reaches no history the
    unreduced one does not.  What a walk cannot do is prove absence:
    its result carries ``exhaustive=False`` and is reported as "no
    violation found (sampled)", never as a verified bound.
    """

    rng = random.Random(seed)
    kept: List[tuple] = []

    def nodes():
        for i in range(walks if starts else 0):
            config, label, depth, key = starts[i % len(starts)]
            while True:
                kept.clear()
                # A walk runs awake: its expand hooks compute no sleep
                # sets, and it drops any a step carries.
                yield config, label, depth, key, NO_SLEEP
                if not kept:
                    break
                config, label, depth, key, _sleep = kept[
                    rng.randrange(len(kept))]

    _drive(nodes(), kept, None, result, advance, expand, max_depth,
           terminal, cut, done)
