"""On-the-fly linearizability monitoring by speculation.

The Def-1 checker in :mod:`repro.history.linearize` decides one history
at a time by backtracking search.  For whole-object checking we instead
run a *forward* monitor that — like the paper's speculation sets Δ —
tracks **all** abstract possibilities simultaneously:

A monitor state is a set of ``(θ, U)`` pairs where ``θ`` is an abstract
object and ``U`` maps each thread with an open call to either

* ``("op", f, n)``  — invoked, not yet linearized, or
* ``("end", ret)`` — linearized with return value ``ret``.

Consuming an event:

* invocation ``(t, f, n)``: add ``t ↦ ("op", f, n)`` to every pair, then
  take the *linearization closure* — any pending operation may take
  effect at any moment, so we saturate under firing γ's;
* return ``(t, v)``: keep the pairs where ``t ↦ ("end", v)``; drop ``t``.

The history seen so far is linearizable iff the state set is non-empty.
This determinized forward search is equivalent to the backward search of
Def. 1 (it keeps every speculation alive), which our tests confirm by
cross-checking the two implementations on random histories.

A step is a pure function of ``(states, event)``, and a product search
meets the same pair many times (different interleavings reach the same
Σ and emit the same event).  Each monitor therefore memoizes
:meth:`SpecMonitor.step` on that pair in a
:class:`~repro.semantics.search.BoundedCache`: a miss runs the closure,
a hit returns the stored state set.  Equal results are then one object,
so the product's ``(configuration, states)`` dedup keys compare by
identity.  ``_MONITOR_MEMO_CAP`` sizes the memo of monitors built after
it is set; 0 stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from ..semantics.events import Event, InvokeEvent, ObjAbortEvent, ReturnEvent
from ..semantics.search import BoundedCache
from ..spec.absobj import AbsObj
from ..spec.gamma import OSpec

#: ``U`` entries: ("op", method, arg) before the LP, ("end", ret) after.
PendingOp = Tuple
PendingMap = Tuple[Tuple[int, PendingOp], ...]  # sorted (tid, op) pairs
MonitorState = Tuple[AbsObj, PendingMap]
StateSet = FrozenSet[MonitorState]

#: Capacity of each monitor's ``(states, event)`` step memo.
_MONITOR_MEMO_CAP = 1 << 15


def _with_thread(pending: PendingMap, tid: int, op: PendingOp) -> PendingMap:
    items = [kv for kv in pending if kv[0] != tid] + [(tid, op)]
    return tuple(sorted(items))


def _without_thread(pending: PendingMap, tid: int) -> PendingMap:
    return tuple(kv for kv in pending if kv[0] != tid)


def _lookup(pending: PendingMap, tid: int) -> Optional[PendingOp]:
    for t, op in pending:
        if t == tid:
            return op
    return None


class SpecMonitor:
    """Forward linearizability monitor for a specification Γ."""

    def __init__(self, spec: OSpec):
        self.spec = spec
        self._memo = BoundedCache(_MONITOR_MEMO_CAP)

    def initial(self, theta: Optional[AbsObj] = None) -> StateSet:
        if theta is None:
            theta = self.spec.initial
        return frozenset({(theta, ())})

    def closure(self, states: StateSet) -> StateSet:
        """Saturate under "some pending operation linearizes now"."""

        seen = set(states)
        frontier = list(states)
        while frontier:
            theta, pending = frontier.pop()
            for tid, op in pending:
                if op[0] != "op":
                    continue
                _, method, arg = op
                gamma = self.spec.method(method)
                for ret, theta2 in gamma.results(arg, theta):
                    nxt = (theta2, _with_thread(pending, tid, ("end", ret)))
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
        return frozenset(seen)

    def step(self, states: StateSet, event: Event) -> StateSet:
        """Consume one object event; empty result = violation."""

        key = (states, event)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo.put(key, self._step(states, event))
        return hit

    def _step(self, states: StateSet, event: Event) -> StateSet:
        if isinstance(event, InvokeEvent):
            if event.method not in self.spec:
                return frozenset()
            added = frozenset(
                (theta, _with_thread(pending, event.thread,
                                     ("op", event.method, event.arg)))
                for theta, pending in states
            )
            return self.closure(added)
        if isinstance(event, ReturnEvent):
            kept = frozenset(
                (theta, _without_thread(pending, event.thread))
                for theta, pending in states
                if _lookup(pending, event.thread) == ("end", event.value)
            )
            # Re-saturate: surviving pending operations may linearize at
            # any moment after this return.
            return self.closure(kept)
        if isinstance(event, ObjAbortEvent):
            # A linearizable object never faults.
            return frozenset()
        return states

    def run(self, history: Sequence[Event],
            theta: Optional[AbsObj] = None) -> StateSet:
        """Consume a whole history; non-empty result = linearizable."""

        states = self.initial(theta)
        for event in history:
            states = self.step(states, event)
            if not states:
                return states
        return states

    def accepts(self, history: Sequence[Event],
                theta: Optional[AbsObj] = None) -> bool:
        return bool(self.run(history, theta))
