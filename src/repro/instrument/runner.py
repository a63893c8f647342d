"""Exhaustive checking of instrumented objects.

An :class:`InstrumentedObject` packages the concrete methods *with their
auxiliary instrumentation* (Fig. 1), the specification Γ, and the
refinement mapping φ.  The :class:`InstrumentedRunner` explores every
interleaving of a most-general client over the *instrumented* semantics
(Fig. 11) and checks, on every reachable state, the operational
obligations that the paper's logic discharges deductively:

1. **No stuck auxiliary commands** — ``linself``/``lin(E)`` always finds a
   pending operation, ``commit(p)`` never filters Δ to ∅, abstract
   operations are never blocked.
2. **Return consistency** — at ``return E`` every speculation agrees that
   the current thread's operation has ended with value ``[[E]]`` (the
   second rule of Fig. 11; the RET rule of Fig. 10).
3. **No faults** — object code never aborts (Def. 5, condition 1(b)).
4. **Domain exactness** of Δ (Fig. 7) is preserved.
5. Optionally, a **linking invariant** ``I`` over ``(σ_o, Δ)`` holds at
   every shared state, and every atomic step satisfies the **guarantee**
   ``G`` (the boundary obligations of the ATOM/ATOM-R rules).

A successful run is a constructive witness that every concrete history in
the explored space has a legal linearization — the Δ evolution *is* the
linearization witness, driven by the instrumentation instead of by
search.  This is the operational content of Theorem 8 on the bounded
state space.

By default the runner steps through the transition tables of
:func:`repro.compile.compile_instrumented` (thread controls are
``(pc,)``), lowered once per object.  ``EngineSpec(semantics="interp")``
— or an object outside the compiled fragment, recorded in the result's
``semantics_reasons`` — runs the Fig-11 interpreter instead
(:func:`~repro.semantics.thread.run_block` with
:func:`~repro.instrument.semantics.instrumented_handler`), which is also
the differential oracle for the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import BoundExceeded, CompileUnsupported, InstrumentationError
from ..lang.ast import Atomic, If, Noret, Return, Seq, Stmt, While
from ..lang.program import MethodDef, ObjectImpl
from ..memory.store import Store
from ..reduce.intern import Interner
from ..semantics.eval import EvalError, eval_bool_in, eval_in
from ..semantics.events import InvokeEvent, ReturnEvent, Trace
from ..semantics.mgc import CallMenu
from ..semantics.scheduler import Limits
from ..semantics.search import BoundedCache, Node, SearchStats, search
from ..semantics.thread import (
    Env,
    Fault,
    Frame,
    ThreadState,
    expand_until_visible,
    push_control,
    run_block,
)
from ..spec.gamma import OSpec
from ..spec.refmap import RefMap
from .erase import check_erasure
from .semantics import AuxStuck, InstrCtx, instrumented_handler
from .state import (
    Delta,
    delta_add_thread,
    delta_remove_thread,
    dom_exact,
    end_of,
    op_of,
    singleton_delta,
)

#: A view of the shared relational state ``(σ_o, Δ)`` for I and G checks.
SharedView = Tuple[Store, Delta]

#: ``I(σ_o, Δ)`` — return True, or False / a reason string on violation.
#: Must be pure: a deterministic function of its arguments, without side
#: effects.  The runner checks it only on the target of a shared
#: transition not already checked in the run (see :data:`Guarantee`).
Invariant = Callable[[Store, Delta], object]

#: ``G(before, after, tid)`` — True iff the step is allowed.  Must be
#: pure, like :data:`Invariant`: each distinct ``(before, after, tid)``
#: transition is checked once per run.
Guarantee = Callable[[SharedView, SharedView, int], bool]

_NORET = Noret()
_EMPTY = Store()
_IDLE = ThreadState((), None)
#: The thread-local successor of a step that aborted without an event.
_ABORTED = (None, None, None, None)

#: Entries held by a runner's step memo (see
#: :meth:`InstrumentedRunner._expand`).
_STEP_MEMO_CAP = 1 << 15

#: Whether a run hash-conses the thread entries, σ_o and Δ its step
#: rules produce (see :meth:`InstrumentedRunner.initial_config`); off,
#: the run is the uninterned oracle.
_INTERN = True


def _same(obj):
    return obj


@dataclass(frozen=True)
class InstrumentedMethod:
    """A method body carrying its auxiliary instrumentation."""

    name: str
    param: str
    locals: Tuple[str, ...]
    body: Stmt


class InstrumentedObject:
    """Instrumented implementation + specification + refinement mapping."""

    def __init__(self, name: str,
                 methods: Mapping[str, InstrumentedMethod],
                 spec: OSpec,
                 initial_memory: Optional[Mapping] = None,
                 phi: Optional[RefMap] = None):
        self.name = name
        self.methods: Dict[str, InstrumentedMethod] = dict(methods)
        self.spec = spec
        self.initial_memory = dict(initial_memory or {})
        self.phi = phi
        for mname in self.methods:
            if mname not in spec:
                raise InstrumentationError(
                    f"instrumented method {mname!r} has no abstract "
                    f"operation in Γ")

    def erased_impl(self) -> ObjectImpl:
        """``Er`` applied methodwise — the plain concrete object."""

        from .erase import erase

        methods = {
            m.name: MethodDef(m.name, m.param, m.locals, erase(m.body))
            for m in self.methods.values()
        }
        return ObjectImpl(methods, self.initial_memory, name=self.name)

    def check_erasure_against(self, impl: ObjectImpl) -> List[str]:
        """``Er(C̃) = C`` for every method of ``impl``."""

        problems = []
        for mname, mdef in impl.methods.items():
            if mname not in self.methods:
                problems.append(f"method {mname!r} is not instrumented")
                continue
            msg = check_erasure(self.methods[mname].body, mdef, mname)
            if msg:
                problems.append(msg)
        return problems


@dataclass(frozen=True)
class IConfig:
    """Configuration of the instrumented machine."""

    threads: Tuple[Tuple[ThreadState, int], ...]  # (state, ops_left)
    sigma_o: Store
    delta: Delta


@dataclass
class FailureRecord:
    kind: str
    message: str
    history: Trace

    def __str__(self) -> str:
        from ..semantics.events import format_trace

        return f"[{self.kind}] {self.message} (history: {format_trace(self.history)})"


@dataclass
class InstrumentedRunResult(SearchStats):
    """Outcome of a Fig-11 witness run.

    A random-walk run only samples the state space, so its "VERIFIED"
    means "no obligation violated on the sampled paths" and is reported
    as such.  A bound hit inside a step is a ``bound`` failure here, not
    a diagnostic.
    """

    ok: bool = True
    failures: List[FailureRecord] = field(default_factory=list)
    histories: Set[Trace] = field(default_factory=set)

    def summary(self) -> str:
        if self.exhaustive:
            status = "VERIFIED" if self.ok else "FAILED"
        else:
            status = "NO FAILURE FOUND (sampled)" if self.ok else "FAILED"
        extra = " (bounded)" if self.bounded else ""
        msg = (f"{status}{extra}: {self.nodes} instrumented states, "
               f"{len(self.histories)} histories")
        if self.failures:
            msg += f"; first failure: {self.failures[0]}"
        return msg


class InstrumentedRunner:
    """Explore an instrumented object under a most-general client."""

    def __init__(self, iobj: InstrumentedObject, menu: CallMenu,
                 threads: int = 2, ops_per_thread: int = 2,
                 limits: Optional[Limits] = None,
                 invariant: Optional[Invariant] = None,
                 guarantee: Optional[Guarantee] = None,
                 max_failures: int = 1,
                 history_complete: bool = False,
                 engine=None):
        self.iobj = iobj
        self.menu = list(menu)
        for method, _arg in self.menu:
            if method not in iobj.methods:
                raise InstrumentationError(
                    f"workload calls unknown method {method!r}")
        self.n_threads = threads
        self.ops = ops_per_thread
        self.limits = limits or Limits()
        self.invariant = invariant
        self.guarantee = guarantee
        self.max_failures = max_failures
        # When set, search nodes are deduplicated on (config, history) so
        # that result.histories is the complete prefix-closed history set
        # (needed by the instrumentation-preserves-behaviour experiment);
        # by default histories are diagnostic only.
        self.history_complete = history_complete
        self.engine = engine
        #: Shared transitions ``(before, after, tid)`` whose obligations
        #: held, for the current run (see :meth:`_check_shared`).
        self._checked: Set[tuple] = set()
        #: Thread-local successors whose obligations held, for the
        #: current run (see :meth:`_expand`).
        self._step_memo = BoundedCache(_STEP_MEMO_CAP)
        #: The current run's canonical instance of a thread entry, σ_o
        #: or Δ (the identity when interning is off).
        self._intern: Callable = _same

        # Lowered once per object, like the Explorer's programs.  The
        # tables are closures: parallel workers inherit them through
        # ``fork`` and only the int controls of search nodes cross
        # process boundaries.  Imported lazily: repro.compile builds on
        # repro.analysis, which builds on this module.
        from ..compile import (
            SEMANTICS_COMPILED,
            SEMANTICS_INTERP,
            compile_instrumented,
            compiled_expand_until_visible,
        )
        from ..engine.api import resolve_engine

        self.compiled = None
        self.semantics_reasons: Tuple[str, ...] = ()
        if resolve_engine(engine).semantics == SEMANTICS_COMPILED:
            try:
                self.compiled = compile_instrumented(iobj)
            except CompileUnsupported as exc:
                self.semantics_reasons = (str(exc),)
        self.semantics = (SEMANTICS_COMPILED if self.compiled is not None
                          else SEMANTICS_INTERP)
        self._compiled_visible = compiled_expand_until_visible

    def new_result(self, **fields) -> InstrumentedRunResult:
        """An empty result carrying this runner's semantics provenance
        (the empty history is always reached)."""

        result = InstrumentedRunResult(
            semantics=self.semantics,
            semantics_reasons=self.semantics_reasons, **fields)
        result.histories.add(())
        return result

    # -- obligations ---------------------------------------------------------

    def _check_shared(self, result: InstrumentedRunResult,
                      before: Optional[SharedView], after: SharedView,
                      tid: int, hist: Trace) -> bool:
        # Every check below is a function of (before, after, tid) alone
        # (I and G are pure), so a transition that passed once passes
        # again; failures are re-checked so each gets its record.
        key = (before, after, tid)
        if key in self._checked:
            return True
        if not self._check_shared_once(result, before, after, tid, hist):
            return False
        self._checked.add(key)
        return True

    def _check_shared_once(self, result: InstrumentedRunResult,
                           before: Optional[SharedView], after: SharedView,
                           tid: int, hist: Trace) -> bool:
        sigma_o, delta = after
        if not delta:
            result.failures.append(FailureRecord(
                "empty-delta", "speculation set Δ became empty", hist))
            return False
        if not dom_exact(delta):
            result.failures.append(FailureRecord(
                "dom-exact", f"Δ lost domain-exactness: {delta!r}", hist))
            return False
        if self.invariant is not None:
            verdict = self.invariant(sigma_o, delta)
            if verdict is not True and verdict is not None:
                reason = verdict if isinstance(verdict, str) else \
                    "linking invariant I violated"
                result.failures.append(FailureRecord(
                    "invariant", reason, hist))
                return False
        if self.guarantee is not None and before is not None:
            if not self.guarantee(before, after, tid):
                result.failures.append(FailureRecord(
                    "guarantee", f"step of thread {tid} violates G "
                    f"({before!r} -> {after!r})", hist))
                return False
        return True

    # -- exploration ---------------------------------------------------------

    def initial_config(self, result: InstrumentedRunResult
                       ) -> Optional[IConfig]:
        """The start configuration, or ``None`` when an initial-state
        obligation (``φ(σ_o) = θ``, ``I`` on the initial Δ) already fails
        — the failure is recorded in ``result``.  Every engine starts a
        run here, so this also empties the set of checked transitions
        and the step memo, and starts a fresh intern table: every
        thread entry, σ_o and Δ a step rule produces is replaced by its
        canonical instance before it reaches a check key, the step memo
        or a configuration, so equal components reached along different
        interleavings are one object and the seen-set, step-memo and
        checked-transition lookups compare them by identity.  Keys stay
        structural (the parallel driver digests them across
        processes)."""

        self._checked = set()
        self._step_memo = BoundedCache(_STEP_MEMO_CAP)
        intern = self._intern = Interner().value if _INTERN else _same
        spec = self.iobj.spec
        if self.iobj.phi is not None:
            theta = self.iobj.phi.of(Store(self.iobj.initial_memory))
            if theta != spec.initial:
                result.failures.append(FailureRecord(
                    "refmap", f"φ(σ_o) = {theta!r} differs from Γ's initial "
                              f"abstract object {spec.initial!r}", ()))
                return None
        sigma_o = intern(Store(self.iobj.initial_memory))
        delta0 = intern(singleton_delta(Store(), spec.initial))
        start = IConfig(tuple(intern((_IDLE, self.ops))
                              for _ in range(self.n_threads)),
                        sigma_o, delta0)
        if not self._check_shared(result, None, (sigma_o, delta0), 0, ()):
            return None
        return start

    def node_key(self, config: IConfig, hist: Trace):
        """The search-node dedup key (config, plus the history when the
        complete prefix-closed history set is requested)."""

        return (config, hist) if self.history_complete else config

    def root(self, start: IConfig) -> Node:
        """The search node of the start configuration (label: the
        history so far)."""

        return (start, (), 0, self.node_key(start, ()))

    def run(self) -> InstrumentedRunResult:
        from ..engine.api import resolve_engine
        from ..engine.dispatch import dispatch_instrumented

        return dispatch_instrumented(self, resolve_engine(self.engine))

    def run_sequential(self) -> InstrumentedRunResult:
        """The exact sequential search (the sequential engine)."""

        result = self.new_result()
        start = self.initial_config(result)
        if start is None:
            result.ok = False
            return result
        if self.run_from([self.root(start)], self.limits.max_nodes, result):
            result.bounded = True
        result.ok = not result.failures
        return result

    def run_from(self, frontier: Sequence[Node], node_budget: int,
                 result: InstrumentedRunResult) -> List[Node]:
        """Expand up to ``node_budget`` nodes from ``frontier``.

        Mutates ``result`` in place; returns the spilled frontier when
        the budget runs out, ``[]`` when the subtree is exhausted or
        ``max_failures`` failures were collected.  The parallel engine
        distributes these calls across worker processes; the search is
        :func:`~repro.semantics.search.search`.
        """

        return search(frontier, node_budget, result,
                      max_depth=self.limits.max_depth, **self.hooks(result))

    def hooks(self, result: InstrumentedRunResult) -> dict:
        """The search hooks of a run into ``result``, shared by
        :meth:`run_from` and the random walk
        (:func:`~repro.semantics.search.walk`): the label is the node's
        history, failures past the depth cap are dropped, and
        ``max_failures`` failures end the run."""

        key = self.node_key
        failures = result.failures
        recorded = 0

        def expand(config, hist):
            nonlocal recorded
            recorded = len(failures)
            return self._expand(config, hist, result)

        def cut():
            # The dropped transitions lie beyond the depth cap, and so
            # do any failures their obligations recorded.
            del failures[recorded:]

        def advance(nxt, hist, event):
            if event is not None:
                hist = hist + (event,)
                result.histories.add(hist)
            if nxt is None:
                return None
            return hist, key(nxt, hist)

        return {"advance": advance, "expand": expand, "cut": cut,
                "done": lambda: len(failures) >= self.max_failures}

    def _expand(self, config: IConfig, hist: Trace,
                result: InstrumentedRunResult):
        threads = config.threads
        sigma_o, delta = config.sigma_o, config.delta
        memo = self._step_memo
        failures = result.failures
        out = []
        for idx, (tstate, ops_left) in enumerate(threads):
            finished = tstate.finished
            if finished and ops_left <= 0:
                continue
            tid = idx + 1
            # A thread's successors are a function of its own entry and
            # the shared (σ_o, Δ) alone (steps and I/G are pure), so they
            # are memoized on exactly that.  Only a step whose
            # obligations all passed is stored — a hit stands for checks
            # that already held, as in :meth:`_check_shared`; a failing
            # step is re-run, so each failure keeps its own record.
            key = (tid, tstate, ops_left, sigma_o, delta)
            local = memo.get(key)
            if local is None:
                recorded = len(failures)
                if finished:
                    local = self._invoke(tid, ops_left, sigma_o, delta,
                                         hist, result)
                elif self.compiled is None:
                    local = self._step(tid, tstate, ops_left, sigma_o,
                                       delta, hist, result)
                else:
                    local = self._step_compiled(tid, tstate, ops_left,
                                                sigma_o, delta, hist, result)
                if len(failures) == recorded and all(
                        entry is not None for entry, _, _, _ in local):
                    memo.put(key, local)
            for entry, sigma2, delta2, event in local:
                out.append((None if entry is None else IConfig(
                    threads[:idx] + (entry,) + threads[idx + 1:],
                    sigma2, delta2), event))
        return out

    # The step rules below return thread-local successors ``(entry, σ_o',
    # Δ', event)``, where ``entry`` is the thread's new ``(state,
    # ops_left)``, or ``None`` when the step aborted (after recording
    # its failure).

    def _visible(self, tstate: ThreadState, sigma_o: Store):
        """The thread states ``tstate`` reaches by invisible steps."""

        if self.compiled is not None:
            return self._compiled_visible(self.compiled, tstate, _EMPTY)
        return expand_until_visible(tstate, _EMPTY, sigma_o)

    def _invoke(self, tid: int, ops_left: int, sigma_o: Store,
                delta: Delta, hist: Trace, result: InstrumentedRunResult):
        intern = self._intern
        out = []
        for method, arg in self.menu:
            mdef = self.iobj.methods[method]
            locals_init = Store({mdef.param: arg, "cid": tid,
                                 **{v: 0 for v in mdef.locals}})
            frame = Frame(locals=locals_init, retvar="", caller_control=(),
                          method=method)
            if self.compiled is not None:
                control = self.compiled.method_entries[method]
            else:
                control = push_control(mdef.body, (_NORET,))
            delta2 = intern(delta_add_thread(delta, tid, op_of(method, arg)))
            event = InvokeEvent(tid, method, arg)
            if not self._check_shared(result, (sigma_o, delta),
                                      (sigma_o, delta2), tid,
                                      hist + (event,)):
                out.append((None, None, None, event))
                continue
            for ts, _sc in self._visible(ThreadState(control, frame),
                                         sigma_o):
                out.append((intern((ts, ops_left - 1)), sigma_o, delta2,
                            event))
        return out

    def _step(self, tid: int, tstate: ThreadState, ops_left: int,
              sigma_o: Store, delta: Delta, hist: Trace,
              result: InstrumentedRunResult):
        """One transition of thread ``tid``, interpreted."""

        stmt = tstate.control[0]
        rest = tstate.control[1:]
        frame = tstate.frame

        if isinstance(stmt, Seq):
            return self._step(tid, ThreadState(push_control(stmt, rest),
                                               frame),
                              ops_left, sigma_o, delta, hist, result)
        if isinstance(stmt, Return):
            try:
                value = eval_in(stmt.expr, frame.locals, sigma_o)
            except EvalError as exc:
                result.failures.append(FailureRecord(
                    "fault", f"return expression fault in {frame.method}: "
                             f"{exc}", hist))
                return [_ABORTED]
            return self._return(tid, ops_left, frame,
                                ReturnEvent(tid, value), sigma_o, delta,
                                hist, result)
        if isinstance(stmt, Noret):
            result.failures.append(FailureRecord(
                "noret", f"method {frame.method} of thread {tid} terminated "
                         "without return", hist))
            return [_ABORTED]
        before = (sigma_o, delta)
        if isinstance(stmt, (If, While)):
            try:
                taken = eval_bool_in(stmt.cond, frame.locals, sigma_o)
            except EvalError as exc:
                result.failures.append(FailureRecord(
                    "fault", f"condition fault in {frame.method}: {exc}",
                    hist))
                return [_ABORTED]
            if isinstance(stmt, If):
                control = push_control(stmt.then if taken else stmt.els, rest)
            elif taken:
                control = push_control(stmt.body, (stmt,) + rest)
            else:
                control = rest
            return self._finish_step(tid, ThreadState(control, frame),
                                     ops_left, before, sigma_o, delta, hist,
                                     result)

        # Atomic blocks, primitives and auxiliary commands: one visible
        # transition through the sequential executor with the Fig. 11
        # handler.
        body = stmt.body if isinstance(stmt, Atomic) else stmt
        env = Env(locals=frame.locals, sigma_c=_EMPTY, sigma_o=sigma_o,
                  extra=InstrCtx(delta, tid, self.iobj.spec))
        try:
            finals = run_block(body, env, handler=instrumented_handler)
        except AuxStuck as exc:
            result.failures.append(FailureRecord(
                "aux-stuck", f"{frame.method} (thread {tid}): {exc}", hist))
            return [_ABORTED]
        except Fault as exc:
            result.failures.append(FailureRecord(
                "fault", f"{frame.method} (thread {tid}) faults: {exc}",
                hist))
            return [_ABORTED]
        except BoundExceeded as exc:
            result.failures.append(FailureRecord(
                "bound", str(exc), hist))
            return [_ABORTED]
        out = []
        for fin in finals:
            frame2 = Frame(fin.locals, frame.retvar, frame.caller_control,
                           frame.method)
            out.extend(self._finish_step(
                tid, ThreadState(rest, frame2), ops_left, before,
                fin.sigma_o, fin.extra.delta, hist, result))
        return out

    def _step_compiled(self, tid: int, tstate: ThreadState, ops_left: int,
                       sigma_o: Store, delta: Delta, hist: Trace,
                       result: InstrumentedRunResult):
        """One transition of thread ``tid`` through the tables of
        :func:`compile_instrumented`: the step gets the auxiliary state
        ``(Δ, tid)`` in its σ_c slot and returns the updated pair in each
        outcome's σ_c."""

        pc = tstate.control[0]
        frame = tstate.frame
        try:
            outcomes = self.compiled.steps[pc](
                tid, frame, (delta, tid), sigma_o, False, None)
        except BoundExceeded:
            return self._failed_step(tid, pc, frame, ops_left, sigma_o,
                                     delta, hist, result)
        before = (sigma_o, delta)
        out = []
        for oc in outcomes:
            if oc.thread_state is None:
                return self._failed_step(tid, pc, frame, ops_left, sigma_o,
                                         delta, hist, result)
            if oc.event is not None:  # the only event a method emits
                return self._return(tid, ops_left, frame, oc.event,
                                    sigma_o, delta, hist, result)
            out.extend(self._finish_step(
                tid, oc.thread_state, ops_left, before, oc.sigma_o,
                oc.sigma_c[0], hist, result))
        return out

    def _failed_step(self, tid: int, pc: int, frame: Frame, ops_left: int,
                     sigma_o: Store, delta: Delta, hist: Trace,
                     result: InstrumentedRunResult):
        """A compiled step at ``pc`` aborted: the interpreter re-runs it
        from the same control, and its failure record is the one kept."""

        recorded = len(result.failures)
        out = self._step(tid, ThreadState(self.compiled.controls[pc], frame),
                         ops_left, sigma_o, delta, hist, result)
        assert len(result.failures) > recorded, (
            f"compiled step at pc {pc} aborted, the interpreter did not")
        return out

    def _return(self, tid: int, ops_left: int, frame: Frame,
                event: ReturnEvent, sigma_o: Store, delta: Delta,
                hist: Trace, result: InstrumentedRunResult):
        """The ``return E`` rule: every speculation must have ended the
        thread's operation with ``[[E]]``; then its entry leaves Δ."""

        value = event.value
        new_hist = hist + (event,)
        bad = [pair for pair in delta if pair[0].get(tid) != end_of(value)]
        if bad:
            result.failures.append(FailureRecord(
                "return", f"thread {tid} returns {value} from "
                f"{frame.method} but {len(bad)} speculation(s) disagree "
                f"(e.g. {bad[0][0].get(tid)!r})", new_hist))
            return [(None, None, None, event)]
        intern = self._intern
        delta2 = intern(delta_remove_thread(delta, tid))
        if not self._check_shared(result, (sigma_o, delta),
                                  (sigma_o, delta2), tid, new_hist):
            return [(None, None, None, event)]
        return [(intern((_IDLE, ops_left)), sigma_o, delta2, event)]

    def _finish_step(self, tid: int, tstate: ThreadState, ops_left: int,
                     before: SharedView, sigma_o: Store, delta: Delta,
                     hist: Trace, result: InstrumentedRunResult):
        intern = self._intern
        # A step that touches neither σ_o nor Δ hands back the (already
        # canonical) objects of ``before``.
        if sigma_o is not before[0]:
            sigma_o = intern(sigma_o)
        if delta is not before[1]:
            delta = intern(delta)
        if not self._check_shared(result, before, (sigma_o, delta), tid,
                                  hist):
            return [_ABORTED]
        return [(intern((ts, ops_left)), sigma_o, delta, None)
                for ts, _sc in self._visible(tstate, sigma_o)]


def verify_instrumented(iobj: InstrumentedObject, menu: CallMenu,
                        threads: int = 2, ops_per_thread: int = 2,
                        limits: Optional[Limits] = None,
                        invariant: Optional[Invariant] = None,
                        guarantee: Optional[Guarantee] = None,
                        history_complete: bool = False,
                        engine=None) -> InstrumentedRunResult:
    """Convenience wrapper around :class:`InstrumentedRunner`."""

    runner = InstrumentedRunner(iobj, menu, threads, ops_per_thread,
                                limits, invariant, guarantee,
                                history_complete=history_complete,
                                engine=engine)
    return runner.run()
