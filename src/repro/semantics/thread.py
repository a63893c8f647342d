"""Thread-local small-step operational semantics (Fig. 5).

The state of one thread is a :class:`ThreadState`: a *control* (the tuple
of statements left to execute — the execution context ``E`` of the paper,
kept flattened) plus an optional :class:`Frame` when the thread is inside
a method call (the paper's call stack ``κ = (σ_l, x, C)``).

A transition of a thread either

* produces a successor machine configuration and possibly an event, or
* *aborts* (the paper's ``(t, obj, abort)`` / ``(t, clt, abort)``), or
* is impossible (the thread is blocked on ``assume`` or finished).

The sequential executor :func:`run_block` is shared with the instrumented
semantics (:mod:`repro.instrument.semantics`), which supplies a *handler*
for the auxiliary commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from ..errors import AtomicLoopDivergence, EvalError, SemanticsError
from ..lang.ast import (
    Alloc,
    Assign,
    Assume,
    Atomic,
    Call,
    Dispose,
    If,
    Load,
    NondetChoice,
    Noret,
    Print,
    Return,
    Seq,
    Skip,
    Stmt,
    Store as StoreStmt,
    While,
)
from ..lang.program import MethodDef, ObjectImpl
from ..memory.heap import QUARANTINE_KEY, allocate, dispose
from ..memory.store import Store
from ..reduce.footprint import Footprint
from .eval import eval_bool_in, eval_in
from .events import (
    CltAbortEvent,
    Event,
    InvokeEvent,
    ObjAbortEvent,
    OutputEvent,
    ReturnEvent,
)

Control = Tuple[Stmt, ...]

#: Singleton runtime marker: statements are identity-hashed, so the noret
#: appended at each call must be one shared node for states to merge.
_NORET = Noret()

#: Iteration budget for loops *inside* atomic blocks (none of the paper's
#: algorithms loop inside an atomic block; this guards against divergence).
ATOMIC_LOOP_FUEL = 256


class Fault(Exception):
    """Internal signal: the executing code faulted (becomes an abort event)."""


@dataclass(frozen=True)
class Env:
    """Sequential execution environment.

    ``locals`` is the method-local store σ_l, or ``None`` when executing
    client code.  ``extra`` carries the speculation set Δ for instrumented
    executions and is ``None`` in the plain semantics.  ``fp``, when set,
    is a mutable :class:`repro.reduce.footprint.Footprint` accumulating
    the shared reads/writes of the current thread step, and ``alloc`` is
    an ``(base, stride)`` override routing method-code allocations to the
    sparse aligned regime of the address-symmetry reduction; both are
    ``None`` in unreduced exploration and in the instrumented semantics.
    """

    locals: Optional[Store]
    sigma_c: Store
    sigma_o: Store
    extra: object = None
    fp: object = field(default=None, compare=False)
    alloc: Optional[Tuple[int, int]] = field(default=None, compare=False)

    @property
    def in_method(self) -> bool:
        return self.locals is not None

    def read_stores(self) -> Tuple[Optional[Store], ...]:
        if self.in_method:
            return (self.locals, self.sigma_o)
        return (self.sigma_c,)

    def data_store(self) -> Store:
        """The memory heap operations act on (σ_o in methods, σ_c in clients)."""
        return self.sigma_o if self.in_method else self.sigma_c

    def with_data(self, store: Store) -> "Env":
        if self.in_method:
            return replace(self, sigma_o=store)
        return replace(self, sigma_c=store)

    def write_var(self, name: str, value: int) -> "Env":
        if self.in_method:
            if self.locals is not None and name in self.locals:
                return replace(self, locals=self.locals.set(name, value))
            if name in self.sigma_o:
                return replace(self, sigma_o=self.sigma_o.set(name, value))
            # Implicit method-local: first write binds in σ_l.
            return replace(self, locals=self.locals.set(name, value))
        return replace(self, sigma_c=self.sigma_c.set(name, value))


#: A handler lets the instrumented semantics interpret its auxiliary
#: commands; returning ``None`` means "not mine, use the default rules".
Handler = Callable[[Stmt, Env], Optional[List[Env]]]


def exec_prim(stmt: Stmt, env: Env) -> List[Env]:
    """Execute a primitive statement; returns successor environments.

    Raises :class:`Fault` on runtime errors; returns ``[]`` when blocked
    (a false ``assume``).
    """

    fp = env.fp
    try:
        if isinstance(stmt, Skip):
            return [env]
        if isinstance(stmt, Assign):
            if fp is not None:
                fp.read_expr(stmt.expr, env)
                fp.write_var(stmt.var, env)
            value = eval_in(stmt.expr, *env.read_stores())
            return [env.write_var(stmt.var, value)]
        if isinstance(stmt, Load):
            addr = eval_in(stmt.addr, *env.read_stores())
            data = env.data_store()
            if fp is not None:
                fp.read_expr(stmt.addr, env)
                fp.read_cell(addr, env)
                fp.write_var(stmt.var, env)
            if not isinstance(addr, int) or addr not in data:
                raise Fault(f"load from unallocated address {addr}")
            return [env.write_var(stmt.var, data[addr])]
        if isinstance(stmt, StoreStmt):
            addr = eval_in(stmt.addr, *env.read_stores())
            value = eval_in(stmt.expr, *env.read_stores())
            data = env.data_store()
            if fp is not None:
                fp.read_expr(stmt.addr, env)
                fp.read_expr(stmt.expr, env)
                fp.write_cell(addr, env)
            if not isinstance(addr, int) or addr not in data:
                raise Fault(f"store to unallocated address {addr}")
            return [env.with_data(data.set(addr, value))]
        if isinstance(stmt, Alloc):
            if fp is not None:
                for e in stmt.inits:
                    fp.read_expr(e, env)
                fp.write_var(stmt.var, env)
                fp.mark_alloc()
            values = tuple(eval_in(e, *env.read_stores()) for e in stmt.inits)
            if env.alloc is not None and env.in_method:
                data, addr = allocate(env.data_store(), values,
                                      base=env.alloc[0], stride=env.alloc[1])
            else:
                data, addr = allocate(env.data_store(), values)
            return [env.with_data(data).write_var(stmt.var, addr)]
        if isinstance(stmt, Dispose):
            addr = eval_in(stmt.addr, *env.read_stores())
            if fp is not None:
                fp.read_expr(stmt.addr, env)
                fp.write_cell(addr, env)
                fp.mark_alloc()  # allocator state changes: never a mover
            try:
                data = dispose(env.data_store(), addr)
            except SemanticsError as exc:
                raise Fault(str(exc))
            if env.alloc is not None and env.in_method \
                    and isinstance(addr, int) and addr >= env.alloc[0]:
                # Sparse regime: quarantine the freed block so the
                # allocator never reuses an address a stale pointer may
                # still carry (see repro.memory.heap.QUARANTINE_KEY).
                base, stride = env.alloc
                bit = 1 << ((addr - base) // stride)
                mask = data[QUARANTINE_KEY] if QUARANTINE_KEY in data else 0
                data = data.set(QUARANTINE_KEY, mask | bit)
            return [env.with_data(data)]
        if isinstance(stmt, Assume):
            if fp is not None:
                fp.read_vars(stmt.cond.free_vars(), env)
            if eval_bool_in(stmt.cond, *env.read_stores()):
                return [env]
            return []
        if isinstance(stmt, NondetChoice):
            if fp is not None:
                for choice in stmt.choices:
                    fp.read_expr(choice, env)
                fp.write_var(stmt.var, env)
            outs = []
            for choice in stmt.choices:
                value = eval_in(choice, *env.read_stores())
                outs.append(env.write_var(stmt.var, value))
            return outs
    except EvalError as exc:
        raise Fault(str(exc))
    raise SemanticsError(f"exec_prim: not a primitive statement: {stmt!r}")


def run_block(stmt: Stmt, env: Env, handler: Optional[Handler] = None,
              fuel: int = ATOMIC_LOOP_FUEL) -> List[Env]:
    """Run ``stmt`` to completion sequentially (for atomic blocks ``<C>``).

    Nondeterminism fans out; blocked branches (false ``assume``) are
    pruned.  Faults propagate as :class:`Fault`.
    """

    if handler is not None:
        handled = handler(stmt, env)
        if handled is not None:
            return handled
    if isinstance(stmt, Seq):
        envs = [env]
        for sub in stmt.stmts:
            nxt: List[Env] = []
            for e in envs:
                nxt.extend(run_block(sub, e, handler, fuel))
            envs = nxt
            if not envs:
                return []
        return envs
    if isinstance(stmt, If):
        if env.fp is not None:
            env.fp.read_vars(stmt.cond.free_vars(), env)
        try:
            branch_of = lambda e: stmt.then if eval_bool_in(
                stmt.cond, *e.read_stores()) else stmt.els
            return run_block(branch_of(env), env, handler, fuel)
        except EvalError as exc:
            raise Fault(str(exc))
    if isinstance(stmt, While):
        if fuel <= 0:
            raise AtomicLoopDivergence(
                "loop inside atomic block exceeded fuel")
        if env.fp is not None:
            env.fp.read_vars(stmt.cond.free_vars(), env)
        try:
            taken = eval_bool_in(stmt.cond, *env.read_stores())
        except EvalError as exc:
            raise Fault(str(exc))
        if not taken:
            return [env]
        outs: List[Env] = []
        for e in run_block(stmt.body, env, handler, fuel - 1):
            outs.extend(run_block(stmt, e, handler, fuel - 1))
        return outs
    if isinstance(stmt, Atomic):
        # Nested atomics are rejected at construction; tolerate by flattening.
        return run_block(stmt.body, env, handler, fuel)
    if isinstance(stmt, (Return, Noret, Call, Print)):
        raise SemanticsError(f"{stmt} may not occur inside an atomic block")
    return exec_prim(stmt, env)


# ---------------------------------------------------------------------------
# Thread-level transitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Frame:
    """The call stack ``κ = (σ_l, x, C)`` of Fig. 4.

    Hash-consed: the hash is computed once and cached (exploration
    hashes every frame many times), and equality short-circuits on
    identity and on cached-hash mismatch before walking fields.  The
    address-valued locals are cached the same way, by
    :func:`repro.reduce.symmetry.frame_addresses`.
    """

    locals: Store
    retvar: str
    caller_control: Control
    method: str

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Frame:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.method == other.method
                and self.retvar == other.retvar
                and self.caller_control == other.caller_control
                and self.locals == other.locals)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.locals, self.retvar, self.caller_control,
                      self.method))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, eq=False)
class ThreadState:
    control: Control
    frame: Optional[Frame] = None

    @property
    def finished(self) -> bool:
        return not self.control and self.frame is None

    @property
    def in_method(self) -> bool:
        return self.frame is not None

    @property
    def has_pending_call(self) -> bool:
        """True when a method was invoked but has not responded yet."""
        return self.frame is not None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ThreadState:
            return NotImplemented
        if hash(self) != hash(other):
            return False
        return (self.control == other.control
                and self.frame == other.frame)

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.control, self.frame))
            object.__setattr__(self, "_hash", h)
        return h


def push_control(stmt: Stmt, rest: Control) -> Control:
    """Prepend ``stmt`` onto ``rest``, flattening sequences."""

    if isinstance(stmt, Seq):
        out: List[Stmt] = []
        for s in stmt.stmts:
            out.append(s)
        return tuple(out) + rest
    return (stmt,) + rest


@dataclass(frozen=True)
class StepOutcome:
    """One possible result of a thread transition.

    ``footprint`` (only populated when the caller asked for footprints)
    is the shared read/write footprint of the step — shared between the
    outcomes of one ``thread_step`` call, i.e. the union over all
    nondeterministic branches, which is exactly the conservative shape
    partial-order reduction needs.
    """

    thread_state: Optional[ThreadState]  # None when the execution aborted
    sigma_c: Store
    sigma_o: Store
    event: Optional[Event] = None
    footprint: object = field(default=None, compare=False)

    @property
    def aborted(self) -> bool:
        return self.thread_state is None


def initial_thread(client_code: Stmt) -> ThreadState:
    return ThreadState(control=push_control(client_code, ()))


def _method_env(frame: Frame, sigma_c: Store, sigma_o: Store,
                fp=None, alloc=None) -> Env:
    return Env(locals=frame.locals, sigma_c=sigma_c, sigma_o=sigma_o,
               fp=fp, alloc=alloc)


def _client_env(sigma_c: Store, sigma_o: Store, fp=None) -> Env:
    return Env(locals=None, sigma_c=sigma_c, sigma_o=sigma_o, fp=fp)


#: Budget for eagerly executed thread-local steps between visible actions.
COMPRESSION_FUEL = 4096


def expand_until_visible(tstate: ThreadState, sigma_c: Store, sigma_o: Store,
                         private_client_vars: bool = False
                         ) -> List[Tuple[ThreadState, Store]]:
    """Eagerly execute *invisible* steps of a thread until a visible head.

    A step is invisible when it touches only state private to the thread:
    inside a method, the local store σ_l (assignments between locals,
    branch/loop conditions over locals, nondeterministic choices over
    locals); in client code — only when ``private_client_vars`` holds,
    i.e. the program promises that each client thread uses a disjoint set
    of client variables (true for the generated most-general clients) —
    the client-variable operations of that thread.

    Invisible steps commute with every action of every other thread, so
    executing them eagerly preserves the reachable visible behaviours and
    event traces (a standard partial-order argument) while collapsing
    exploration states.  Nondeterministic invisible steps fan out, hence
    the list result; each result pairs the thread state (now at a visible
    statement, blocked, or finished) with the possibly-updated σ_c.
    """

    results: List[Tuple[ThreadState, Store]] = []
    seen = set()
    work: List[Tuple[Control, Optional[Frame], Store, int]] = [
        (tstate.control, tstate.frame, sigma_c, COMPRESSION_FUEL)]

    def emit(control: Control, frame: Optional[Frame], sc: Store) -> None:
        key = (control, frame, sc)
        if key not in seen:
            seen.add(key)
            results.append((ThreadState(control, frame), sc))

    while work:
        control, frame, sc, fuel = work.pop()
        if not control or fuel <= 0:
            emit(control, frame, sc)
            continue
        stmt = control[0]
        rest = control[1:]
        if isinstance(stmt, Seq):
            work.append((push_control(stmt, rest), frame, sc, fuel - 1))
            continue
        if isinstance(stmt, Skip):
            work.append((rest, frame, sc, fuel - 1))
            continue

        in_method = frame is not None
        if in_method:
            private = frame.locals
        elif private_client_vars:
            private = sc
        else:
            emit(control, frame, sc)
            continue

        def is_private_var(name: str) -> bool:
            if in_method:
                # Locals, or an implicit local (not an object variable).
                return name in frame.locals or name not in sigma_o
            return True  # all client vars are private under the flag

        def set_private(name: str, value: int):
            if in_method:
                return Frame(frame.locals.set(name, value), frame.retvar,
                             frame.caller_control, frame.method), sc
            return frame, sc.set(name, value)

        if isinstance(stmt, Assign) and is_private_var(stmt.var) \
                and stmt.expr.free_vars() <= frozenset(private):
            try:
                value = eval_in(stmt.expr, private)
            except EvalError:
                emit(control, frame, sc)  # visible step reports the abort
                continue
            frame2, sc2 = set_private(stmt.var, value)
            work.append((rest, frame2, sc2, fuel - 1))
            continue
        if isinstance(stmt, NondetChoice) and is_private_var(stmt.var) \
                and all(c.free_vars() <= frozenset(private)
                        for c in stmt.choices):
            ok = True
            branches = []
            for choice in stmt.choices:
                try:
                    value = eval_in(choice, private)
                except EvalError:
                    ok = False
                    break
                frame2, sc2 = set_private(stmt.var, value)
                branches.append((rest, frame2, sc2, fuel - 1))
            if not ok:
                emit(control, frame, sc)
                continue
            work.extend(branches)
            continue
        if isinstance(stmt, (If, While)) \
                and stmt.cond.free_vars() <= frozenset(private):
            try:
                taken = eval_bool_in(stmt.cond, private)
            except EvalError:
                emit(control, frame, sc)
                continue
            if isinstance(stmt, If):
                nxt = push_control(stmt.then if taken else stmt.els, rest)
            elif taken:
                nxt = push_control(stmt.body, (stmt,) + rest)
            else:
                nxt = rest
            work.append((nxt, frame, sc, fuel - 1))
            continue
        emit(control, frame, sc)
    return results




def thread_step(tstate: ThreadState, tid: int, sigma_c: Store,
                sigma_o: Store, impl: ObjectImpl,
                footprints: bool = False,
                alloc: Optional[Tuple[int, int]] = None
                ) -> List[StepOutcome]:
    """All transitions of thread ``tid`` from the given configuration.

    Returns ``[]`` when the thread is finished or blocked.  With
    ``footprints`` the shared read/write footprint of the step is
    attached to every outcome (for partial-order reduction); ``alloc``
    routes method-code allocations through the sparse aligned allocator
    of the address-symmetry reduction.
    """

    if not tstate.control:
        return []
    stmt = tstate.control[0]
    rest = tstate.control[1:]
    in_method = tstate.in_method
    abort_event: Event = (
        ObjAbortEvent(tid) if in_method else CltAbortEvent(tid)
    )
    fp = Footprint() if footprints else None

    def abort() -> List[StepOutcome]:
        return [StepOutcome(None, sigma_c, sigma_o, abort_event)]

    # --- control-flow statements ------------------------------------------
    if isinstance(stmt, Seq):
        # Normalisation; flatten and execute the head of the expansion.
        return thread_step(
            ThreadState(push_control(stmt, rest), tstate.frame),
            tid, sigma_c, sigma_o, impl, footprints, alloc,
        )
    if isinstance(stmt, If):
        env = (_method_env(tstate.frame, sigma_c, sigma_o, fp) if in_method
               else _client_env(sigma_c, sigma_o, fp))
        if fp is not None:
            fp.read_vars(stmt.cond.free_vars(), env)
        try:
            taken = eval_bool_in(stmt.cond, *env.read_stores())
        except EvalError:
            return abort()
        branch = stmt.then if taken else stmt.els
        return [StepOutcome(
            ThreadState(push_control(branch, rest), tstate.frame),
            sigma_c, sigma_o, footprint=fp)]
    if isinstance(stmt, While):
        env = (_method_env(tstate.frame, sigma_c, sigma_o, fp) if in_method
               else _client_env(sigma_c, sigma_o, fp))
        if fp is not None:
            fp.read_vars(stmt.cond.free_vars(), env)
        try:
            taken = eval_bool_in(stmt.cond, *env.read_stores())
        except EvalError:
            return abort()
        if taken:
            control = push_control(stmt.body, (stmt,) + rest)
        else:
            control = rest
        return [StepOutcome(ThreadState(control, tstate.frame), sigma_c,
                            sigma_o, footprint=fp)]

    # --- method call / return ----------------------------------------------
    if isinstance(stmt, Call):
        if in_method:
            return abort()  # nested calls are not allowed (Sec. 3.1)
        try:
            arg = eval_in(stmt.arg, sigma_c)
        except EvalError:
            return abort()
        mdef: MethodDef = impl.method(stmt.method)
        # ``cid`` is a reserved method-local bound to the executing thread
        # id (the paper's ``cid``, used by descriptor-based algorithms).
        locals_init = Store({mdef.param: arg, "cid": tid,
                             **{v: 0 for v in mdef.locals}})
        frame = Frame(locals=locals_init, retvar=stmt.var,
                      caller_control=rest, method=stmt.method)
        control = push_control(mdef.body, (_NORET,))
        return [StepOutcome(
            ThreadState(control, frame), sigma_c, sigma_o,
            InvokeEvent(tid, stmt.method, arg))]
    if isinstance(stmt, Return):
        if not in_method:
            return abort()
        frame = tstate.frame
        try:
            value = eval_in(stmt.expr, frame.locals, sigma_o)
        except EvalError:
            return abort()
        new_sigma_c = sigma_c
        if frame.retvar:
            new_sigma_c = sigma_c.set(frame.retvar, value)
        return [StepOutcome(
            ThreadState(frame.caller_control, None),
            new_sigma_c, sigma_o, ReturnEvent(tid, value))]
    if isinstance(stmt, Noret):
        return abort()

    # --- observable output ---------------------------------------------------
    if isinstance(stmt, Print):
        if in_method:
            return abort()  # methods may not emit external events
        try:
            value = eval_in(stmt.expr, sigma_c)
        except EvalError:
            return abort()
        return [StepOutcome(
            ThreadState(rest, tstate.frame), sigma_c, sigma_o,
            OutputEvent(tid, value))]

    # --- atomic blocks and primitives ---------------------------------------
    env = (_method_env(tstate.frame, sigma_c, sigma_o, fp, alloc)
           if in_method else _client_env(sigma_c, sigma_o, fp))
    body = stmt.body if isinstance(stmt, Atomic) else stmt
    try:
        finals = run_block(body, env)
    except Fault:
        return abort()
    outcomes = []
    for fin in finals:
        frame = tstate.frame
        if frame is not None:
            frame = Frame(fin.locals, frame.retvar, frame.caller_control,
                          frame.method)
        outcomes.append(StepOutcome(
            ThreadState(rest, frame), fin.sigma_c, fin.sigma_o,
            footprint=fp))
    return outcomes
