"""Interp-vs-compiled differential suite and hot-path bugfix regressions.

The compiled transition-table semantics (:mod:`repro.compile`) claims
*observational equality* with the AST-walking interpreter: the same
reachable history and observable-trace sets, the same node counts under
every reduction mode (the reductions must make identical decisions), the
same verdicts, aborts and bounds.  That claim is checked here on every
registry algorithm at its seed workload and on hypothesis-generated
parser programs.

The file also pins a latent hot-path bug fixed alongside the compiler:
exhausting ``ATOMIC_LOOP_FUEL`` raises :class:`AtomicLoopDivergence`
(a ``SemanticsError`` that is also a ``BoundExceeded``) and surfaces as
an exploration diagnostic instead of silently truncating the state
space — in both semantics modes and in the abstract explorer, whether
or not the explorer replays repeated expansions, and on every run of
one explorer, product search or abstract explorer.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.refinement.observable as observable_mod
import repro.semantics.scheduler as scheduler_mod
from repro.algorithms import algorithm_names, get_algorithm
from repro.engine import EngineSpec, resolve_engine
from repro.errors import (
    AtomicLoopDivergence,
    BoundExceeded,
    ReproError,
    SemanticsError,
)
from repro.algorithms.counter_nonatomic import instrumented_racy_counter
from repro.assertions.patterns import ThreadDone, commit_p, pattern
from repro.history.object_lin import ProductSearch, check_object_linearizable
from repro.instrument import (
    InstrumentedMethod,
    InstrumentedObject,
    InstrumentedRunner,
    commit,
    lin,
    linself,
)
from repro.instrument.commands import LinSelf
from repro.lang import Assign, MethodDef, ObjectImpl, Print, Var, seq
from repro.lang.builders import (
    add,
    assign,
    atomic,
    eq,
    if_,
    ret,
    while_true,
)
from repro.lang.parser import parse_method
from repro.refinement.contextual import check_clients_refinement
from repro.semantics.abstract import AbstractExplorer, AbstractProgram
from repro.semantics.mgc import mgc_program, printing_client
from repro.semantics.scheduler import Explorer, Limits, explore
from repro.spec import OSpec, abs_obj, deterministic

from .helpers import counter_spec

INTERP = "sequential+interp"
COMPILED = "sequential+compiled"


def _control_free(config):
    """A control-representation-independent view of a configuration.

    Quiescent configurations compare equal across semantics verbatim
    (every finished control is the empty tuple in both modes), but a
    *stuck* thread — e.g. one whose atomic block hit the loop fuel —
    holds its pending control, which is a statement tuple under the
    interpreter and a pc tuple under the tables.  Those terminal
    configurations are compared on everything except the control
    encoding: both stores, and each thread's progress and frame data.
    """

    return (config.sigma_c, config.sigma_o,
            tuple((t.finished,
                   None if t.frame is None else
                   (t.frame.locals, t.frame.retvar, t.frame.method))
                  for t in config.threads))


def _assert_explorations_equal(interp, compiled):
    """Full reachable-set equality between the two semantics.

    Node counts and reduction counters must match because the
    reductions are required to make identical decisions step for step.
    """

    assert interp.semantics == "interp"
    assert compiled.semantics == "compiled"
    assert compiled.semantics_reasons == ()
    assert compiled.histories == interp.histories
    assert compiled.observables == interp.observables
    assert ({c for c in compiled.terminal_configs if c.quiescent}
            == {c for c in interp.terminal_configs if c.quiescent})
    assert (Counter(map(_control_free, compiled.terminal_configs))
            == Counter(map(_control_free, interp.terminal_configs)))
    assert compiled.diagnostics == interp.diagnostics or \
        set(compiled.diagnostics) == set(interp.diagnostics)
    assert compiled.nodes == interp.nodes
    assert compiled.aborted == interp.aborted
    assert compiled.bounded == interp.bounded
    assert compiled.reduce == interp.reduce
    assert compiled.por_pruned == interp.por_pruned
    assert compiled.sym_merged == interp.sym_merged


# ---------------------------------------------------------------------------
# Differential equality on every registry algorithm
# ---------------------------------------------------------------------------

#: Workload for the all-algorithm sweeps.  Seed workloads take minutes
#: per algorithm at the raw ``explore`` level; two threads × one op
#: exercises every method, every interleaving shape and every reduction
#: decision while keeping the whole sweep in tier-1 time.  Seed-workload
#: equality is spot-checked on one representative below and enforced at
#: 3×1 by the CI reduction-guard job.
_DIFF_THREADS = 2
_DIFF_OPS = 1


@pytest.mark.parametrize("name", algorithm_names())
def test_registry_reachable_sets_equal(name):
    alg = get_algorithm(name)
    program = mgc_program(alg.impl, alg.workload.menu,
                          _DIFF_THREADS, _DIFF_OPS)

    interp = explore(program, alg.limits, engine=INTERP)
    compiled = explore(program, alg.limits, engine=COMPILED)
    _assert_explorations_equal(interp, compiled)


def test_seed_workload_reachable_sets_equal():
    alg = get_algorithm("treiber")
    w = alg.workload
    program = mgc_program(alg.impl, w.menu, w.threads, w.ops_per_thread)

    interp = explore(program, alg.limits, engine=INTERP)
    compiled = explore(program, alg.limits, engine=COMPILED)
    _assert_explorations_equal(interp, compiled)


@pytest.mark.parametrize("name", algorithm_names())
def test_registry_verdicts_equal(name):
    alg = get_algorithm(name)

    results = {}
    for engine in (INTERP, COMPILED):
        results[engine] = check_object_linearizable(
            alg.impl, alg.spec, alg.workload.menu, _DIFF_THREADS, _DIFF_OPS,
            alg.limits, phi=alg.phi, engine=engine)

    interp, compiled = results[INTERP], results[COMPILED]
    assert interp.semantics == "interp"
    assert compiled.semantics == "compiled"
    assert compiled.ok == interp.ok
    assert compiled.bounded == interp.bounded
    assert compiled.aborted == interp.aborted
    assert compiled.histories_checked == interp.histories_checked
    assert compiled.nodes == interp.nodes
    assert compiled.counterexample == interp.counterexample


# ---------------------------------------------------------------------------
# Differential equality on hypothesis-generated parser programs
# ---------------------------------------------------------------------------

_EXPRS = ("0", "1", "2", "v", "t", "x", "t + 1", "x + v", "x - t")
_CONDS = ("x = 0", "t < v", "x <= 1", "!(t = x)", "t < 1 || x = v")

_simple = st.sampled_from([f"{lhs} := {e};" for lhs in ("t", "x")
                           for e in _EXPRS])


def _wrap(kind_body):
    kind, (cond, body) = kind_body
    if kind == "if":
        return f"if ({cond}) {{ {body} }} else {{ x := x + 1; }}"
    # The loop variable strictly decreases toward the guard, so every
    # generated loop terminates without relying on the depth bound.
    return f"t := 2; while (0 < t) {{ t := t - 1; {body} }}"


# Atomic blocks may not nest, so they draw from a non-recursive body
# strategy: straight-line statements plus the canned loop.  A body that
# resets the loop variable diverges and exhausts the atomic fuel — a
# case the differential suite deliberately keeps reachable (both modes
# must cut the same transition and report the same diagnostic).
_loop = st.lists(_simple, min_size=1, max_size=2).map(
    lambda body: "t := 2; while (0 < t) { t := t - 1; %s }" % " ".join(body))
_atomic = st.lists(_simple | _loop, min_size=1, max_size=3).map(
    lambda body: "< %s >" % " ".join(body))

_stmts = st.recursive(
    _simple | _atomic,
    lambda inner: st.tuples(
        st.sampled_from(["if", "while"]),
        st.tuples(st.sampled_from(_CONDS),
                  st.lists(inner, min_size=1, max_size=3).map(" ".join)),
    ).map(_wrap),
    max_leaves=6,
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_stmts, min_size=1, max_size=4), st.sampled_from([1, 3]))
def test_generated_programs_reachable_sets_equal(stmts, arg):
    source = "m(v) { local t; t := 0; %s return t + x; }" % " ".join(stmts)
    impl = ObjectImpl({"m": parse_method(source)}, {"x": 0}, name="gen")
    program = mgc_program(impl, (("m", arg),), threads=2, ops_per_thread=1)
    limits = Limits(max_depth=120, max_nodes=40_000)

    interp = explore(program, limits, engine=INTERP)
    compiled = explore(program, limits, engine=COMPILED)
    _assert_explorations_equal(interp, compiled)


# ---------------------------------------------------------------------------
# Engine selection: spellings, env override, degradation
# ---------------------------------------------------------------------------


def test_semantics_engine_spellings():
    assert resolve_engine(None).semantics == "compiled"
    assert resolve_engine("sequential").semantics == "compiled"
    assert resolve_engine(INTERP).semantics == "interp"
    assert resolve_engine(COMPILED).semantics == "compiled"
    spec = resolve_engine("parallel+interp")
    assert spec.kind == "parallel"
    assert spec.semantics == "interp"
    assert "semantics=interp" in spec.describe()
    assert "semantics=" not in resolve_engine("sequential").describe()


def test_unknown_semantics_rejected():
    with pytest.raises(ReproError, match="semantics"):
        EngineSpec(semantics="tables")


def test_uncompilable_program_degrades_to_interp():
    # ``linself`` is an instrumentation command outside the compiled
    # fragment; its mere presence in the implementation must degrade the
    # whole run to the interpreter (with the reason surfaced), even when
    # the workload never calls the offending method.
    bad = MethodDef("bad", "u", (), seq(LinSelf(), ret(0)))
    good = MethodDef("good", "u", (), seq(assign("x", 1), ret(0)))
    impl = ObjectImpl({"bad": bad, "good": good}, {"x": 0}, name="mixed")
    program = mgc_program(impl, (("good", 0),), threads=2, ops_per_thread=1)

    degraded = explore(program, engine=COMPILED)
    assert degraded.semantics == "interp"
    assert degraded.semantics_reasons
    assert "compiled fragment" in degraded.semantics_reasons[0]

    interp = explore(program, engine=INTERP)
    assert interp.semantics_reasons == ()
    assert degraded.histories == interp.histories
    assert degraded.nodes == interp.nodes


# ---------------------------------------------------------------------------
# Bugfix regression: atomic-loop fuel exhaustion is loud
# ---------------------------------------------------------------------------


def _divergent_impl():
    spin = MethodDef("spin", "u", ("t",),
                     seq(atomic(while_true(assign("t", 1))), ret(0)))
    return ObjectImpl({"spin": spin}, {"x": 0}, name="spinner")


def test_atomic_loop_divergence_is_semantics_and_bound_error():
    assert issubclass(AtomicLoopDivergence, SemanticsError)
    assert issubclass(AtomicLoopDivergence, BoundExceeded)


@pytest.mark.parametrize("semantics", ["interp", "compiled"])
def test_fuel_exhaustion_surfaces_as_diagnostic(semantics):
    impl = _divergent_impl()
    program = mgc_program(impl, (("spin", 0),), threads=1, ops_per_thread=1)
    result = Explorer(program, semantics=semantics).run()
    assert result.semantics == semantics
    assert result.diagnostics
    assert "fuel" in result.diagnostics[0]
    assert result.bounded  # the cut means the space was NOT exhausted
    # The divergent atomic block contributes no transition at all: the
    # run stops at the invocation, with no completed history.
    assert all(len(h) <= 1 for h in result.histories)


_SPIN_MENU = (("spin", 0),)


def _spin_spec():
    return OSpec({"spin": deterministic("spin", lambda _, th: (0, th))},
                 abs_obj(x=0), name="spinner")


def _divergent_runs(monkeypatch):
    """The divergent object explored directly and through Def-3
    refinement, at two threads (so diverging nodes repeat under
    different labels): diagnostics, bounds and trace sets."""

    impl = _divergent_impl()
    explored = explore(mgc_program(impl, _SPIN_MENU, threads=2,
                                   ops_per_thread=1))
    concrete = []
    tap = observable_mod.explore

    def tapped(*args, **kwargs):
        concrete.append(tap(*args, **kwargs))
        return concrete[-1]

    monkeypatch.setattr(observable_mod, "explore", tapped)
    clients = tuple(printing_client(_SPIN_MENU, 1, prefix=f"t{t}")
                    for t in (1, 2))
    refines = check_clients_refinement(impl, _spin_spec(), clients,
                                       private_client_vars=True)
    monkeypatch.setattr(observable_mod, "explore", tap)
    (concrete,) = concrete
    return [(r.diagnostics, r.bounded, r.nodes, r.histories, r.observables)
            for r in (explored, concrete)] + [
        (refines.ok, refines.bounded, refines.missing,
         refines.concrete_traces)]


def test_fuel_diagnostics_survive_expansion_replay(monkeypatch):
    replayed = _divergent_runs(monkeypatch)
    for diagnostics, bounded, *_ in replayed[:2]:
        assert diagnostics and "fuel" in diagnostics[0] and bounded
    assert replayed[2][:2] == (True, True)
    monkeypatch.setattr(scheduler_mod, "_EXPAND_MEMO_CAP", 0)
    assert _divergent_runs(monkeypatch) == replayed


def test_refinement_cut_by_fuel_carries_the_diagnostic():
    """A refinement whose concrete side the atomic-loop fuel cut says
    why it is bounded, as the exploration it ran does."""

    clients = tuple(printing_client(_SPIN_MENU, 1, prefix=f"t{t}")
                    for t in (1, 2))
    refines = check_clients_refinement(_divergent_impl(), _spin_spec(),
                                       clients, private_client_vars=True)
    assert refines.bounded
    assert refines.diagnostics and "fuel" in refines.diagnostics[0]


def test_memo_replays_an_expansion_with_its_cut():
    """An expansion is a value: the memo stores one that cut a
    transition, and a hit carries the cut as the fresh one did."""

    explorer = Explorer(mgc_program(_divergent_impl(), _SPIN_MENU,
                                    threads=1, ops_per_thread=1))
    memo = explorer._expand_memo
    expand = explorer.expander(memo=memo)
    start = explorer.start_nodes()[0][0]
    ((invoked, event),) = expand(start, None).successors
    assert event.is_invocation and len(memo) == 1
    fresh = expand(invoked, None)
    assert fresh.successors == () and len(fresh.cuts) == 1
    assert "fuel" in fresh.cuts[0] and len(memo) == 2
    assert expand(invoked, None) is fresh


def _abstract_spinner():
    client = atomic(assign("g", 1), while_true(assign("g", 1)))
    return AbstractProgram(counter_spec(), (client,),
                           initial_client_memory=(("g", 0),))


def test_fuel_exhaustion_surfaces_in_abstract_explorer():
    result = AbstractExplorer(_abstract_spinner()).run()
    assert result.diagnostics
    assert "fuel" in result.diagnostics[0]
    assert result.bounded


def _spinner_searches():
    """A second ``run()`` on one searcher must report the cut it meets
    as the first did: nothing of a run is kept on the searcher."""

    program = mgc_program(_divergent_impl(), _SPIN_MENU, threads=1,
                          ops_per_thread=1)
    return {
        "explore": Explorer(program),
        "product": ProductSearch(program, _spin_spec()),
        "abstract": AbstractExplorer(_abstract_spinner()),
    }


@pytest.mark.parametrize("searcher", sorted(_spinner_searches()))
def test_second_run_reports_the_fuel_cut(searcher):
    search = _spinner_searches()[searcher]
    first, second = search.run(), search.run()
    for result in (first, second):
        assert result.bounded
        assert len(result.diagnostics) == 1
        assert "fuel" in result.diagnostics[0]
    assert second.diagnostics == first.diagnostics
    assert second.nodes == first.nodes


# ---------------------------------------------------------------------------
# The Fig-11 witness runner on the transition tables
# ---------------------------------------------------------------------------

#: The registry rows plus the two machine-instrumented entries.
_WITNESS_NAMES = algorithm_names(include_synthesized=True)


def _witness(iobj, menu, engine, limits=None, invariant=None,
             guarantee=None, threads=_DIFF_THREADS, ops=_DIFF_OPS):
    return InstrumentedRunner(iobj, menu, threads, ops, limits, invariant,
                              guarantee, history_complete=True,
                              engine=engine).run()


def _assert_witnesses_equal(interp, compiled):
    assert interp.semantics == "interp"
    assert compiled.semantics == "compiled"
    assert compiled.semantics_reasons == ()
    assert compiled.ok == interp.ok
    assert compiled.bounded == interp.bounded
    assert compiled.nodes == interp.nodes
    assert compiled.histories == interp.histories
    assert ([(f.kind, f.message, f.history) for f in compiled.failures]
            == [(f.kind, f.message, f.history) for f in interp.failures])


@pytest.mark.parametrize("name", _WITNESS_NAMES)
def test_registry_witness_equal(name):
    alg = get_algorithm(name)
    runs = {engine: _witness(alg.instrumented, alg.workload.menu, engine,
                             alg.limits, alg.invariant, alg.guarantee)
            for engine in (INTERP, COMPILED)}
    _assert_witnesses_equal(runs[INTERP], runs[COMPILED])
    assert runs[COMPILED].ok, runs[COMPILED].summary()


def test_racy_counter_witness_equal_and_fails_at_return():
    iobj = instrumented_racy_counter()
    runs = {engine: _witness(iobj, [("inc", 0)], engine)
            for engine in (INTERP, COMPILED)}
    _assert_witnesses_equal(runs[INTERP], runs[COMPILED])
    assert not runs[COMPILED].ok
    assert runs[COMPILED].failures[0].kind == "return"


def _one_method(body, locals_=("t",)):
    imeth = InstrumentedMethod("inc", "u", locals_, body)
    return InstrumentedObject("probe", {"inc": imeth}, counter_spec(),
                              {"x": 0})


#: One instrumented method per failure record a compiled abort maps to.
_FAILING_BODIES = {
    "aux-stuck-lin": (seq(atomic(assign("x", 1), lin(7)), ret(1)),
                      "aux-stuck"),
    "aux-stuck-commit": (seq(commit(commit_p(pattern(ThreadDone(Var("cid"), 9)))),
                             ret(1)),
                         "aux-stuck"),
    "fault-block": (seq(assign("t", "nope"), ret(1)), "fault"),
    "fault-lin-target": (seq(lin("nope"), ret(1)), "fault"),
    "fault-condition": (seq(if_(eq("nope", 0), linself()), ret(1)),
                        "fault"),
    "fault-return": (seq(linself(), ret("nope")), "fault"),
    "noret": (seq(atomic(assign("x", 1), linself())), "noret"),
    "bound": (seq(atomic(assign("t", 1), while_true(assign("t", 1))),
                  ret(1)),
              "bound"),
}


@pytest.mark.parametrize("case", sorted(_FAILING_BODIES))
def test_compiled_abort_maps_to_interp_failure_record(case):
    body, kind = _FAILING_BODIES[case]
    iobj = _one_method(body)
    runs = {engine: _witness(iobj, [("inc", 0)], engine, threads=1)
            for engine in (INTERP, COMPILED)}
    _assert_witnesses_equal(runs[INTERP], runs[COMPILED])
    assert runs[COMPILED].failures[0].kind == kind


def test_print_inside_instrumented_method_raises_as_interpreted():
    # Methods may not print (Sec. 3.1).  The tables abort there and the
    # interpreter's re-run of the step raises, as it does uncompiled.
    iobj = _one_method(seq(linself(), Print(Var("u")), ret(1)))
    messages = []
    for engine in (INTERP, COMPILED):
        with pytest.raises(SemanticsError) as err:
            _witness(iobj, [("inc", 0)], engine, threads=1)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "print(u)" in messages[0]


@pytest.mark.parametrize("name", ["ms_lock_free_queue", "lazy_list"])
def test_parallel_and_random_walk_witness_agree(name):
    alg = get_algorithm(name)
    args = (alg.instrumented, alg.workload.menu)
    kw = dict(limits=alg.limits, invariant=alg.invariant,
              guarantee=alg.guarantee)
    seq_run = _witness(*args, COMPILED, **kw)
    # A small spill budget makes the workers hand subtrees back and forth.
    par = _witness(*args, EngineSpec("parallel", workers=2, spill_nodes=100),
                   **kw)
    walk = _witness(*args, EngineSpec("random-walk", seed=7, walks=32), **kw)
    assert par.semantics == walk.semantics == "compiled"
    assert par.ok and walk.ok and seq_run.ok
    assert par.histories == seq_run.histories
    assert par.nodes == seq_run.nodes
    assert walk.histories <= seq_run.histories and not walk.exhaustive


def test_parallel_and_random_walk_witness_refuse_racy_counter():
    iobj = instrumented_racy_counter()
    for engine in (EngineSpec("parallel", workers=2),
                   EngineSpec("random-walk", seed=1)):
        result = _witness(iobj, [("inc", 0)], engine)
        assert result.semantics == "compiled"
        assert not result.ok
        assert result.failures[0].kind == "return"


class _TracedAssign(Assign):
    """An assignment subclass: the interpreter runs it as an ``Assign``,
    the compiler does not know it."""


def test_user_statement_subclass_degrades_witness_to_interp():
    body = seq(atomic(_TracedAssign("t", Var("x")),
                      assign("x", add("t", 1)), linself()),
               ret(add("t", 1)))
    iobj = _one_method(body)
    degraded = _witness(iobj, [("inc", 0)], COMPILED)
    assert degraded.semantics == "interp"
    assert degraded.semantics_reasons
    assert "compiled fragment" in degraded.semantics_reasons[0]
    interp = _witness(iobj, [("inc", 0)], INTERP)
    assert degraded.ok and interp.ok
    assert degraded.nodes == interp.nodes
    assert degraded.histories == interp.histories


def test_obligations_checked_once_per_distinct_transition():
    alg = get_algorithm("treiber")
    states, steps = [], []

    def invariant(sigma_o, delta):
        states.append((sigma_o, delta))
        return alg.invariant(sigma_o, delta)

    def guarantee(before, after, tid):
        steps.append((before, after, tid))
        return alg.guarantee(before, after, tid)

    result = _witness(alg.instrumented, alg.workload.menu, COMPILED,
                      alg.limits, invariant, guarantee)
    assert result.ok
    assert len(steps) == len(set(steps)) > 0
    # A shared state is re-checked only as the target of a new step.
    assert len(set(states)) <= len(states) <= len(steps) + 1
