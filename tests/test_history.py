"""Tests for histories, Def. 1 linearizability and the forward monitor.

Includes the classic Herlihy & Wing queue examples and a hypothesis
cross-check that the backtracking Def-1 checker and the speculation
monitor agree on random histories.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.history import (
    completions,
    find_linearization,
    is_complete,
    is_linearizable_history,
    is_sequential,
    is_well_formed,
    linearization_order,
    operations_of,
    pending_invocations,
)
from repro.history.monitor import SpecMonitor
from repro.semantics import InvokeEvent, ObjAbortEvent, ReturnEvent
from repro.spec import OSpec, abs_obj, deterministic


def I(t, f, n):  # noqa: E743
    return InvokeEvent(t, f, n)


def R(t, n):
    return ReturnEvent(t, n)


def queue_spec():
    def enq(v, th):
        return (0, th.set("Q", th["Q"] + (v,)))

    def deq(_, th):
        q = th["Q"]
        if not q:
            return (-1, th)
        return (q[0], th.set("Q", q[1:]))

    return OSpec({"enq": deterministic("enq", enq),
                  "deq": deterministic("deq", deq)}, abs_obj(Q=()))


def register_spec():
    def read(_, th):
        return (th["x"], th)

    def write(v, th):
        return (0, th.set("x", v))

    return OSpec({"read": deterministic("read", read),
                  "write": deterministic("write", write)}, abs_obj(x=0))


class TestWellFormedness:
    def test_empty_sequential(self):
        assert is_sequential(())

    def test_sequential_pairs(self):
        h = (I(1, "enq", 1), R(1, 0), I(1, "deq", 0), R(1, 1))
        assert is_sequential(h)
        assert is_complete(h)

    def test_trailing_pending_ok(self):
        assert is_sequential((I(1, "enq", 1), R(1, 0), I(1, "enq", 2)))

    def test_response_first_not_sequential(self):
        assert not is_sequential((R(1, 0),))

    def test_two_invocations_not_sequential(self):
        assert not is_sequential((I(1, "enq", 1), I(1, "enq", 2)))

    def test_well_formed_interleaved(self):
        h = (I(1, "enq", 1), I(2, "enq", 2), R(2, 0), R(1, 0))
        assert is_well_formed(h)
        assert is_complete(h)

    def test_pending_invocations(self):
        h = (I(1, "enq", 1), I(2, "deq", 0), R(1, 0))
        assert pending_invocations(h) == (I(2, "deq", 0),)

    def test_operations_of(self):
        h = (I(1, "enq", 1), I(2, "deq", 0), R(1, 0))
        ops = operations_of(h)
        assert len(ops) == 2
        assert ops[0].ret == 0 and not ops[0].pending
        assert ops[1].pending

    def test_operations_abort(self):
        h = (I(1, "enq", 1), ObjAbortEvent(1))
        (op,) = operations_of(h)
        assert op.aborted

    def test_completions_drop_or_complete(self):
        h = (I(1, "enq", 1),)
        outs = set(completions(h, [0]))
        assert () in outs                      # dropped
        assert (I(1, "enq", 1), R(1, 0)) in outs  # completed


class TestDef1Queue:
    """Herlihy & Wing's classic examples."""

    def test_overlapping_enqs_both_orders(self):
        spec = queue_spec()
        h = (I(1, "enq", 1), I(2, "enq", 2), R(1, 0), R(2, 0),
             I(1, "deq", 0), R(1, 2))
        assert is_linearizable_history(h, spec)

    def test_dequeue_order_violation(self):
        spec = queue_spec()
        # enq(1) completes before enq(2) starts, yet deq returns 2 first.
        h = (I(1, "enq", 1), R(1, 0), I(1, "enq", 2), R(1, 0),
             I(2, "deq", 0), R(2, 2))
        assert not is_linearizable_history(h, spec)

    def test_pending_enqueue_can_take_effect(self):
        spec = queue_spec()
        # enq(1) never returns, but deq already sees 1: the pending call
        # must be completed (Herlihy-Wing completions).
        h = (I(1, "enq", 1), I(2, "deq", 0), R(2, 1))
        assert is_linearizable_history(h, spec)

    def test_empty_dequeue(self):
        spec = queue_spec()
        h = (I(1, "deq", 0), R(1, -1), I(1, "enq", 5), R(1, 0))
        assert is_linearizable_history(h, spec)

    def test_wrong_value(self):
        spec = queue_spec()
        h = (I(1, "enq", 1), R(1, 0), I(1, "deq", 0), R(1, 9))
        assert not is_linearizable_history(h, spec)

    def test_abort_never_linearizable(self):
        spec = queue_spec()
        h = (I(1, "enq", 1), ObjAbortEvent(1))
        res = find_linearization(h, spec)
        assert not res.ok and "fault" in res.reason

    def test_unknown_method(self):
        spec = queue_spec()
        res = find_linearization((I(1, "mystery", 0),), spec)
        assert not res.ok

    def test_witness_order_respects_realtime(self):
        spec = queue_spec()
        h = (I(1, "enq", 1), R(1, 0), I(2, "enq", 2), R(2, 0))
        order = linearization_order(h, spec)
        assert [op.arg for op in order] == [1, 2]


class TestDef1Register:
    def test_stale_read_not_linearizable(self):
        spec = register_spec()
        h = (I(1, "write", 1), R(1, 0), I(2, "read", 0), R(2, 0))
        assert not is_linearizable_history(h, spec)

    def test_concurrent_read_may_see_either(self):
        spec = register_spec()
        base = (I(1, "write", 1), I(2, "read", 0))
        assert is_linearizable_history(base + (R(2, 0), R(1, 0)), spec)
        assert is_linearizable_history(base + (R(2, 1), R(1, 0)), spec)


class TestMonitor:
    def test_accepts_simple(self):
        spec = queue_spec()
        mon = SpecMonitor(spec)
        h = (I(1, "enq", 1), R(1, 0), I(1, "deq", 0), R(1, 1))
        assert mon.accepts(h)

    def test_rejects_violation(self):
        spec = queue_spec()
        mon = SpecMonitor(spec)
        h = (I(1, "enq", 1), R(1, 0), I(1, "deq", 0), R(1, 7))
        assert not mon.accepts(h)

    def test_rejects_abort(self):
        mon = SpecMonitor(queue_spec())
        assert not mon.accepts((I(1, "enq", 1), ObjAbortEvent(1)))

    def test_stepwise_nonempty_prefixes(self):
        mon = SpecMonitor(queue_spec())
        states = mon.initial()
        for e in (I(1, "enq", 1), I(2, "deq", 0), R(2, 1), R(1, 0)):
            states = mon.step(states, e)
            assert states


# -- random cross-check: monitor == Def-1 search ----------------------------

@st.composite
def random_histories(draw):
    """Well-formed (possibly incomplete) register histories."""

    events = []
    open_calls = {}
    n_threads = draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 8))):
        t = draw(st.integers(1, n_threads))
        if t in open_calls:
            ret = draw(st.integers(0, 2))
            events.append(R(t, ret if open_calls[t] == "read" else 0))
            del open_calls[t]
        else:
            method = draw(st.sampled_from(["read", "write"]))
            arg = draw(st.integers(1, 2)) if method == "write" else 0
            events.append(I(t, method, arg))
            open_calls[t] = method
    return tuple(events)


@settings(max_examples=300, deadline=None)
@given(random_histories())
def test_monitor_agrees_with_def1_search(history):
    spec = register_spec()
    assert SpecMonitor(spec).accepts(history) == \
        is_linearizable_history(history, spec)


@settings(max_examples=200, deadline=None)
@given(random_histories())
def test_monitor_memo_is_exact(history):
    """A memoized monitor runs every history to the uncached monitor's
    state set, and a repeated ``(Σ, event)`` returns the stored object."""

    spec = register_spec()
    memoized = SpecMonitor(spec)
    uncached = SpecMonitor(spec)
    uncached._memo.cap = 0
    assert memoized.run(history) == uncached.run(history)
    assert not uncached._memo
    states = memoized.initial()
    for event in history:
        nxt = memoized.step(states, event)
        assert memoized.step(states, event) is nxt
        assert nxt == uncached.step(states, event)
        if not nxt:
            break
        states = nxt
