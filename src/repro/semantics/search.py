"""The bounded reachability search every decider runs.

Def-2 linearizability searches configuration × Σ, Def-3 refinement
searches configuration × history × trace (and the abstract program),
and the Fig-11 witness searches configuration × Δ.  All of them are the
same depth-first search; :func:`search` is that search, written once.
It owns

* the stack and the node budget, charged exactly on expansion;
* the seen-dict and, under sleep-set POR, the sleep sets it stores;
* the cycle proviso and the rollback of the reduction counters;
* the depth rule (see :class:`~repro.semantics.scheduler.Limits`);
* spill/resume: the nodes left when the budget runs out are returned;
* diagnostics, elapsed time and the dedup counters on the result, and
  the ``expanded_keys`` collection the parallel driver digests;
* early stop;
* the replay of repeated expansions: a client whose labels reach one
  configuration many times (explore, keyed on history and trace) hands
  in an ``expand_memo``, and a node whose configuration and reduction
  context were expanded before replays the stored successors, sleep
  sets and counter deltas.  The Def-2 product passes none: a memo
  there cost peak memory and saved no time when it was sized.

A client supplies how a successor's event advances its *label* (the
part of a node beyond the configuration: history and trace, monitor
state set, ...) and the successor's dedup key, both from one
``advance`` call.

A search node is ``(config, label, depth, key)``; the stack also carries
the node's sleep set, which a spilled frontier drops again (waking a
resumed node entirely is always sound).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, FrozenSet, List, Optional, Sequence, Tuple

#: A search node: (configuration, label, depth, dedup key).
Node = Tuple[object, object, int, object]

#: The empty sleep set (shared: most nodes sleep nobody).
NO_SLEEP: FrozenSet[int] = frozenset()


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


def note_diagnostics(result, messages: Sequence[str]) -> None:
    """Append the ``messages`` not yet in ``result.diagnostics``."""

    fresh = [d for d in messages if d not in result.diagnostics]
    if fresh:
        result.diagnostics = result.diagnostics + tuple(fresh)


def search(frontier: Sequence[Node], node_budget: int, result,
           advance: Callable, max_depth: int, *,
           explorer=None,
           pinned: Optional[Callable] = None,
           expand: Optional[Callable] = None,
           terminal: Optional[Callable] = None,
           cut: Optional[Callable] = None,
           done: Optional[Callable] = None,
           diagnostics: Optional[List[str]] = None,
           expand_memo: Optional[BoundedCache] = None) -> List[Node]:
    """Expand up to ``node_budget`` nodes from ``frontier``.

    Mutates ``result`` in place — ``nodes``, ``bounded``,
    ``diagnostics``, ``dedup_hits``/``dedup_lookups``, ``elapsed``,
    ``expanded_keys`` when it is a list, and the reduction counters when
    an ``explorer`` is given — and returns the spilled frontier: the
    nodes left unexpanded when the budget ran out, ``[]`` when the
    subtree was exhausted or the search stopped early.  A node is charged
    against the budget only when it is expanded, so ``result.nodes``
    counts expansions exactly across spill/resume cycles.

    ``advance(next_config, label, event)`` is called for every successor
    (``next_config`` is ``None`` when the step aborted) and returns
    ``(next_label, next_key)``, or ``None`` to drop the successor; it
    may raise :class:`StopSearch`.

    Successors come from ``explorer._expand`` when an
    :class:`~repro.semantics.scheduler.Explorer` is given — with its
    sleep sets, thread-identity rotation (``pinned(label)`` names the
    threads whose identity an event already fixed) and the cycle
    proviso — and from ``expand(config, label)`` otherwise.
    ``terminal(config)`` sees every node without successors;
    ``cut()`` runs when a node at the depth cap had successors, which
    are dropped; ``done()`` is asked after every node whether to stop.
    Transition cuts the expander appends to ``diagnostics`` (the
    explorer's own list by default) mark the result bounded.
    ``expand_memo`` is handed to every ``explorer._expand`` call (see
    :meth:`~repro.semantics.scheduler.Explorer._expand`).
    """

    if explorer is not None:
        tsym = explorer._tsym
        diagnostics = explorer.diagnostics
        pruned0, merged0 = explorer.por_pruned, explorer.sym_merged
        slept0, tmerged0 = explorer.sleep_skipped, explorer.tsym_merged
    else:
        tsym = None
    diag0 = len(diagnostics) if diagnostics is not None else 0
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
    expanded = 0
    hits = lookups = 0
    started = perf_counter()

    try:
        while stack:
            if expanded >= node_budget:
                return [n[:4] for n in stack]
            config, label, depth, key, sleep = stack.pop()
            expanded += 1
            if keys is not None:
                keys.append(key)
            succ_sleeps = None
            reduced = False
            if explorer is None:
                successors = expand(config, label)
            else:
                tsym_k = None
                if tsym is not None:
                    threads = pinned(label)
                    k = len(threads)
                    # Rotate only while the canonical-pinning invariant
                    # (event-emitting threads are exactly 1..k) holds — a
                    # permutation bail on an ancestor may have broken it,
                    # and rotating then would rename a pinned identity.
                    if not threads or max(threads) == k:
                        tsym_k = k
                sym_snap = explorer.sym_merged
                tsym_snap = explorer.tsym_merged
                successors = explorer._expand(config, sleep=sleep,
                                              tsym_k=tsym_k,
                                              memo=expand_memo)
                succ_sleeps = explorer._succ_sleeps
                reduced = explorer.last_expand_reduced
                if not successors and explorer._last_slept:
                    # Every runnable thread was asleep.  Their futures are
                    # covered by earlier siblings, but recording the node
                    # as terminal would be wrong (it is not quiescent) —
                    # re-expand ignoring sleep, rolling the skips back.
                    explorer.sleep_skipped -= explorer._last_slept
                    explorer.sym_merged = sym_snap
                    explorer.tsym_merged = tsym_snap
                    successors = explorer._expand(config, tsym_k=tsym_k,
                                                  memo=expand_memo)
                    succ_sleeps = explorer._succ_sleeps
                    reduced = explorer.last_expand_reduced
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
                while True:
                    fresh = 0
                    for sidx, (next_config, event) in enumerate(successors):
                        step = advance(next_config, label, event)
                        if step is None:
                            continue
                        next_label, next_key = step
                        ns = (succ_sleeps[sidx]
                              if succ_sleeps is not None else NO_SLEEP)
                        lookups += 1
                        stored = seen.get(next_key)
                        if stored is not None:
                            if stored <= ns:
                                hits += 1
                                continue
                            # Seen before, but with threads asleep that
                            # are awake now: re-explore with the
                            # intersection so no future is lost.
                            ns = stored & ns
                        seen[next_key] = ns
                        stack.append((next_config, next_label, depth + 1,
                                      next_key, ns))
                        fresh += 1
                    if fresh == 0 and (reduced or (
                            explorer is not None and explorer._last_slept)):
                        # Cycle proviso: the prioritized (or non-slept)
                        # threads' successors all dedup into already-seen
                        # nodes, so following only them could starve the
                        # other threads' futures (a cycle of invisible
                        # private steps).  Re-expand the node without any
                        # reduction, rolling back this node's accounting
                        # first so the re-expansion is charged exactly
                        # once; the pruned successors stay deduplicated.
                        explorer.por_pruned -= explorer._last_pruned
                        explorer.sleep_skipped -= explorer._last_slept
                        explorer.sym_merged = sym_snap
                        explorer.tsym_merged = tsym_snap
                        successors = explorer._expand(
                            config, full=True, tsym_k=tsym_k,
                            memo=expand_memo)
                        succ_sleeps = explorer._succ_sleeps
                        reduced = False
                        continue
                    break
            if done is not None and done():
                return []
        return []
    except StopSearch:
        return []
    finally:
        result.nodes += expanded
        result.dedup_hits += hits
        result.dedup_lookups += lookups
        result.elapsed += perf_counter() - started
        if explorer is not None:
            result.por_pruned += explorer.por_pruned - pruned0
            result.sym_merged += explorer.sym_merged - merged0
            result.sleep_skipped += explorer.sleep_skipped - slept0
            result.tsym_merged += explorer.tsym_merged - tmerged0
        if diagnostics is not None and len(diagnostics) > diag0:
            # A transition was cut (e.g. atomic-loop fuel): the search
            # is bounded, and the cut is surfaced.
            result.bounded = True
            note_diagnostics(result, diagnostics[diag0:])
