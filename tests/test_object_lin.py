"""Tests for bounded Definition-2 checking (both engines)."""

import pytest

from repro.history import check_object_linearizable
from repro.history.object_lin import maximal_histories
from repro.lang.builders import assign
from repro.lang.program import MethodDef, ObjectImpl
from repro.semantics import Limits, ObjAbortEvent

from helpers import (
    atomic_counter_impl,
    counter_spec,
    racy_counter_impl,
    register_impl,
    register_spec,
)

LIMITS = Limits(max_depth=2000, max_nodes=500_000)


class TestProductEngine:
    def test_register_linearizable(self):
        res = check_object_linearizable(
            register_impl(), register_spec(),
            [("read", 0), ("write", 1), ("write", 2)],
            threads=2, ops_per_thread=2, limits=LIMITS)
        assert res.ok and not res.bounded

    def test_atomic_counter_linearizable(self):
        res = check_object_linearizable(
            atomic_counter_impl(), counter_spec(), [("inc", 0)],
            threads=3, ops_per_thread=1, limits=LIMITS)
        assert res.ok

    def test_racy_counter_not_linearizable(self):
        res = check_object_linearizable(
            racy_counter_impl(), counter_spec(), [("inc", 0)],
            threads=2, ops_per_thread=1, limits=LIMITS)
        assert not res.ok
        assert res.counterexample is not None
        # the counterexample is the double-increment race
        rets = [e.value for e in res.counterexample if hasattr(e, "value")]
        assert rets == [1, 1]


class TestDefinitionalEngine:
    def test_agrees_on_register(self):
        res = check_object_linearizable(
            register_impl(), register_spec(), [("read", 0), ("write", 1)],
            threads=2, ops_per_thread=1, limits=LIMITS, definitional=True)
        assert res.ok

    def test_agrees_on_racy_counter(self):
        res = check_object_linearizable(
            racy_counter_impl(), counter_spec(), [("inc", 0)],
            threads=2, ops_per_thread=1, limits=LIMITS, definitional=True)
        assert not res.ok


class TestObjectFault:
    """An object fault is a violation of its own, reported the same way
    whichever engine finds it (the monitor alone would read the abort
    as an empty Σ and blame the history)."""

    @staticmethod
    def _faulty_inc():
        # ``y`` is neither a local nor an object variable: every ``inc``
        # faults inside the method.
        return ObjectImpl({"inc": MethodDef("inc", "x", (), assign("y", 1))})

    @pytest.mark.parametrize("engine", ["sequential", "random-walk"])
    def test_product_engines_report_the_abort(self, engine):
        res = check_object_linearizable(
            self._faulty_inc(), counter_spec(), [("inc", 0)],
            threads=2, ops_per_thread=1, limits=LIMITS, engine=engine)
        assert not res.ok and res.aborted
        assert res.reason == "object code aborted"
        assert isinstance(res.counterexample[-1], ObjAbortEvent)
        assert res.counterexample in res.histories

    def test_definitional_engine_reports_the_abort(self):
        res = check_object_linearizable(
            self._faulty_inc(), counter_spec(), [("inc", 0)],
            threads=2, ops_per_thread=1, limits=LIMITS, definitional=True)
        assert not res.ok and res.aborted


class TestRefMapSideCondition:
    def test_wrong_initial_object_rejected(self):
        from repro.spec import RefMap, abs_obj

        phi = RefMap("const", lambda sigma: abs_obj(x=99))
        res = check_object_linearizable(
            register_impl(), register_spec(), [("read", 0)],
            threads=1, ops_per_thread=1, limits=LIMITS, phi=phi)
        assert not res.ok and "differs" in res.reason

    def test_malformed_initial_object_rejected(self):
        from repro.spec import RefMap

        phi = RefMap("undef", lambda sigma: None)
        res = check_object_linearizable(
            register_impl(), register_spec(), [("read", 0)],
            threads=1, ops_per_thread=1, limits=LIMITS, phi=phi)
        assert not res.ok and "undefined" in res.reason

    def test_correct_refmap_accepted(self):
        from repro.spec import RefMap, abs_obj

        phi = RefMap("id", lambda sigma: abs_obj(x=sigma["x"]))
        res = check_object_linearizable(
            register_impl(), register_spec(), [("write", 1)],
            threads=1, ops_per_thread=1, limits=LIMITS, phi=phi)
        assert res.ok


class TestMaximalHistories:
    def test_prefixes_removed(self):
        from repro.semantics import InvokeEvent, ReturnEvent

        h1 = (InvokeEvent(1, "f", 0),)
        h2 = h1 + (ReturnEvent(1, 0),)
        assert maximal_histories({(), h1, h2}) == (h2,)

    def test_incomparable_kept(self):
        from repro.semantics import InvokeEvent

        h1 = (InvokeEvent(1, "f", 0),)
        h2 = (InvokeEvent(2, "g", 1),)
        assert set(maximal_histories({(), h1, h2})) == {h1, h2}
