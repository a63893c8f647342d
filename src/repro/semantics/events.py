"""Events and traces (Fig. 4).

An event ``e`` is one of

* ``(t, f, n)``       — method invocation           (:class:`InvokeEvent`)
* ``(t, ok, n)``      — method return               (:class:`ReturnEvent`)
* ``(t, obj, abort)`` — fault in object code        (:class:`ObjAbortEvent`)
* ``(t, out, n)``     — client output               (:class:`OutputEvent`)
* ``(t, clt, abort)`` — fault in client code        (:class:`CltAbortEvent`)

The first two are *object events*; outputs and client faults are
*observable external events*; an object fault belongs to both classes.
A history is a trace of object events; an observable trace keeps only
observable events (Sec. 3.2, 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple


class Event:
    """Base class of events."""

    __slots__ = ()
    thread: int

    @property
    def is_object_event(self) -> bool:
        return isinstance(self, (InvokeEvent, ReturnEvent, ObjAbortEvent))

    @property
    def is_observable(self) -> bool:
        return isinstance(self, (OutputEvent, CltAbortEvent, ObjAbortEvent))

    @property
    def is_invocation(self) -> bool:
        """The paper's ``is_inv(e)``."""
        return isinstance(self, InvokeEvent)

    @property
    def is_response(self) -> bool:
        """The paper's ``is_res(e)`` — a return or an object fault."""
        return isinstance(self, (ReturnEvent, ObjAbortEvent))


@dataclass(frozen=True)
class InvokeEvent(Event):
    """``(t, f, n)`` — thread ``t`` invokes method ``f`` with argument ``n``."""

    thread: int
    method: str
    arg: int

    def __str__(self) -> str:
        return f"({self.thread}, {self.method}, {self.arg})"


@dataclass(frozen=True)
class ReturnEvent(Event):
    """``(t, ok, n)`` — thread ``t``'s method returns value ``n``."""

    thread: int
    value: int

    def __str__(self) -> str:
        return f"({self.thread}, ok, {self.value})"


@dataclass(frozen=True)
class ObjAbortEvent(Event):
    """``(t, obj, abort)`` — the object code faulted."""

    thread: int

    def __str__(self) -> str:
        return f"({self.thread}, obj, abort)"


@dataclass(frozen=True)
class OutputEvent(Event):
    """``(t, out, n)`` — client printed ``n``."""

    thread: int
    value: int

    def __str__(self) -> str:
        return f"({self.thread}, out, {self.value})"


@dataclass(frozen=True)
class CltAbortEvent(Event):
    """``(t, clt, abort)`` — the client code faulted."""

    thread: int

    def __str__(self) -> str:
        return f"({self.thread}, clt, abort)"


Trace = Tuple[Event, ...]


def history_of(trace: Iterable[Event]) -> Trace:
    """Project a trace onto its object events (a *history*, Sec. 3.2)."""

    return tuple(e for e in trace if e.is_object_event)


def observable_of(trace: Iterable[Event]) -> Trace:
    """Project a trace onto its observable external events (Sec. 3.3)."""

    return tuple(e for e in trace if e.is_observable)


def thread_sub(trace: Iterable[Event], thread: int) -> Trace:
    """``H|_t`` — the sub-trace of events by ``thread``."""

    return tuple(e for e in trace if e.thread == thread)


def trace_order(trace: Trace) -> Tuple[int, Tuple[str, ...]]:
    """A total order on traces that hashing cannot change: by length,
    then by the events' rendered fields.

    A set of traces iterates in hash order, and an invocation's hash
    follows its method name's, which ``PYTHONHASHSEED`` varies; a trace
    picked from a set (a counterexample, an unmatched trace) is picked
    in this order instead.
    """

    return len(trace), tuple(map(repr, trace))


def format_trace(trace: Iterable[Event]) -> str:
    return " :: ".join(str(e) for e in trace) or "ε"
