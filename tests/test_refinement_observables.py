"""Tests for observable-trace extraction and prefix closure."""

import pytest

from repro.lang import Call, Const, Print, Var, seq
from repro.refinement import abstract_observables, concrete_observables
from repro.semantics import Limits, OutputEvent

from helpers import atomic_counter_impl, counter_spec, register_impl, register_spec


class TestConcreteObservables:
    def test_prefix_closed(self):
        clients = (seq(Call("r", "inc", Const(0)), Print(Var("r")),
                       Call("s", "inc", Const(0)), Print(Var("s"))),)
        obs = concrete_observables(atomic_counter_impl(), clients)
        for trace in obs.observables:
            assert trace[:-1] in obs.observables or trace == ()

    def test_silent_client_has_empty_trace_only(self):
        clients = (Call("r", "inc", Const(0)),)
        obs = concrete_observables(atomic_counter_impl(), clients)
        assert obs.observables == {()}

    def test_output_values(self):
        clients = (seq(Call("r", "read", Const(0)), Print(Var("r"))),)
        obs = concrete_observables(register_impl(), clients)
        assert (OutputEvent(1, 0),) in obs.observables


class TestAbstractObservables:
    def test_matches_concrete_for_atomic_object(self):
        clients = (seq(Call("r", "inc", Const(0)), Print(Var("r"))),
                   seq(Call("s", "inc", Const(0)), Print(Var("s"))))
        conc = concrete_observables(atomic_counter_impl(), clients)
        abst = abstract_observables(counter_spec(), clients)
        assert conc.observables == abst.observables

    def test_abstract_is_much_smaller(self):
        clients = (seq(Call("r", "inc", Const(0)), Print(Var("r"))),
                   seq(Call("s", "inc", Const(0)), Print(Var("s"))))
        conc = concrete_observables(atomic_counter_impl(), clients)
        abst = abstract_observables(counter_spec(), clients)
        assert abst.nodes < conc.nodes

    def test_bounded_flag(self):
        clients = (seq(Call("r", "inc", Const(0)), Print(Var("r"))),)
        obs = abstract_observables(counter_spec(), clients,
                                   Limits(max_depth=1, max_nodes=2))
        assert obs.bounded
