"""Lowering programs to flat per-pc transition tables.

The interpreter (:mod:`repro.semantics.thread`) re-walks the Fig. 5 AST
on every explored transition: ``isinstance`` dispatch over the control
head, store-chain lookups per variable, a fresh ``Env`` per step.  This
module compiles all of that away once per program:

* Every reachable *control* (the flattened statement tuple the
  interpreter uses as ``E``) is interned to a small integer pc; a
  compiled thread's control is ``(pc,)`` — or ``()`` when finished —
  so controls stay tuples (hashing, pickling, :class:`Config` equality
  and the reduction interner all keep working) while
  ``canonicalize_config`` and the seen-set hash ints instead of
  identity-hashed statement tuples.
* Each pc maps to one *step* closure producing the
  :class:`~repro.semantics.thread.StepOutcome` list directly: loop
  back-edges and branch targets are resolved to pcs at compile time,
  and atomic regions are fused into a single compound closure chain
  (the per-method control structure is cross-checked against the
  per-method CFGs of :mod:`repro.analysis.cfg` — whose assume edges and
  atomic region ids delimit exactly the fragment lowered here — before
  any table is built).
* Each pc also maps to an optional *compression* closure implementing
  the invisible-step eager execution of ``expand_until_visible``, with
  the privacy classification (declared local / object variable /
  implicit local / client variable) done statically.
* Footprints for partial-order reduction come from precomputed
  templates; steps whose footprint is state-independent share one
  pre-built :class:`~repro.reduce.footprint.Footprint`.

The compiled semantics is *observationally identical* to the
interpreter — same reachable configurations (up to the control
representation), same histories, observables, abort/blocked behaviour,
footprints, compression fuel accounting, and the same
:class:`AtomicLoopDivergence` cut — which the differential suite in
``tests/test_compiled_semantics.py`` and the CI reduction guard assert.

:func:`compile_instrumented` lowers an instrumented object (Fig. 11)
through the same pass.  The auxiliary commands of
:mod:`repro.instrument.commands` (``linself``, ``lin(E)``,
``trylinself``, ``trylin(E)``, ``trylin_ro``, ``commit(p)``, ghost
code) become block primitives over the speculation set Δ, calling the
Δ transitions of :mod:`repro.instrument.state` as they are.  An
instrumented object has no client code, so the σ_c slot of the state
triples and of the step interface carries the auxiliary state
``(Δ, tid)`` instead: Δ travels through fused atomic blocks next to the
CAS that linearizes.  A stuck auxiliary command aborts the step like any
other fault (:class:`~repro.instrument.semantics.AuxStuck`); the
instrumented runner re-runs an aborted step on the interpreter, which
writes its failure record.

Constructs outside the fragment (the instrumentation commands in a plain
program, user-defined statement subclasses) raise
:class:`CompileUnsupported` during lowering; engines catch it and
degrade to the interpreter.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.cfg import ASSUME, build_cfg
from ..assertions.patterns import commit_filter
from ..errors import (
    AtomicLoopDivergence,
    CompileUnsupported,
    EvalError,
    InstrumentationError,
    SemanticsError,
)
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
from ..instrument.commands import (
    AUX_STMTS,
    Commit,
    Ghost,
    LinSelf,
    TryLin,
    TryLinReadOnly,
    TryLinSelf,
)
from ..instrument.semantics import AuxStuck
from ..instrument.state import delta_lin, delta_trylin, delta_trylin_readonly
from ..lang.program import Program
from ..memory.heap import QUARANTINE_KEY, allocate, dispose
from ..memory.store import Store
from ..reduce.footprint import Footprint
from ..semantics.eval import lookup_in
from ..semantics.events import (
    CltAbortEvent,
    InvokeEvent,
    ObjAbortEvent,
    OutputEvent,
    ReturnEvent,
)
from ..semantics.thread import (
    ATOMIC_LOOP_FUEL,
    COMPRESSION_FUEL,
    _NORET,
    Fault,
    Frame,
    StepOutcome,
    ThreadState,
    push_control,
)
from .exprs import (
    compile_bool,
    compile_expr,
    read_client_var,
    read_declared_local,
    read_maybe_local,
    read_object_var,
    read_private,
)

# ---------------------------------------------------------------------------
# Semantics modes (the EngineSpec.semantics vocabulary)
# ---------------------------------------------------------------------------

SEMANTICS_INTERP = "interp"
SEMANTICS_COMPILED = "compiled"
SEMANTICS_MODES = (SEMANTICS_INTERP, SEMANTICS_COMPILED)

#: Default for every engine: compiled tables, degrading automatically to
#: the interpreter for programs outside the compiled fragment.
DEFAULT_SEMANTICS = SEMANTICS_COMPILED


def validate_semantics(mode: str) -> str:
    if mode not in SEMANTICS_MODES:
        raise ValueError(
            f"unknown semantics mode {mode!r}; expected one of "
            f"{', '.join(SEMANTICS_MODES)}")
    return mode


# ---------------------------------------------------------------------------
# Support scan
# ---------------------------------------------------------------------------

#: Statement types that may label a CFG edge inside the compiled
#: fragment (exact types: instrumentation commands and other subclasses
#: must degrade, their semantics is not the plain one).
_LEAF_TYPES = frozenset({
    Skip, Assign, Load, StoreStmt, Alloc, Dispose, Assume, NondetChoice,
    Print, Return, Noret, Call,
})

#: Statement heads dispatched through the fused-block path.
_PRIM_HEAD_TYPES = frozenset({
    Skip, Assign, Load, StoreStmt, Alloc, Dispose, Assume, NondetChoice,
})

#: Statements the sequential executor rejects inside atomic blocks; the
#: interpreter crashes on them at runtime, so lowering refuses up front
#: (degrading to the interpreter preserves the crash behaviour).
_ATOMIC_BANNED = (Return, Noret, Call, Print)


class _Ctx:
    """Static name-resolution context: one per method plus one for
    client code.  Mirrors :class:`repro.semantics.thread.Env` resolution
    (σ_l before σ_o in methods; σ_c in clients) with the method-local
    set split statically into declared locals (always bound), object
    variables (σ_o's string domain is fixed) and implicit locals
    (runtime-checked)."""

    __slots__ = ("in_method", "declared", "obj_vars", "label")

    def __init__(self, in_method: bool, declared: frozenset,
                 obj_vars: frozenset, label: str):
        self.in_method = in_method
        self.declared = declared
        self.obj_vars = obj_vars
        self.label = label

    def resolver(self, name: str):
        if self.in_method:
            if name in self.declared:
                return read_declared_local(name)
            if name in self.obj_vars:
                return read_object_var(name)
            return read_maybe_local(name)
        return read_client_var(name)

    def read_template(self, names) -> frozenset:
        """The statically-resolved shared read locations of ``names``
        (mirrors :meth:`Footprint.read_var`: method locals are private,
        unbound implicit locals fault elsewhere)."""

        if self.in_method:
            return frozenset(
                ("o", n) for n in names
                if n not in self.declared and n in self.obj_vars)
        return frozenset(("c", n) for n in names)

    def write_location(self, name: str):
        """The shared write location of assigning ``name``, or ``None``
        for a private (method-local) write."""

        if self.in_method:
            if name not in self.declared and name in self.obj_vars:
                return ("o", name)
            return None
        return ("c", name)

    def writes_object_var(self, name: str) -> bool:
        return (self.in_method and name not in self.declared
                and name in self.obj_vars)


def _make_writer(ctx: _Ctx, name: str):
    """``(st, value) -> st'`` mirroring ``Env.write_var`` statically.

    ``st`` is the ``(locals, sigma_c, sigma_o)`` store triple of the
    fused-block executor.
    """

    if ctx.in_method:
        if name not in ctx.declared and name in ctx.obj_vars:
            def write(st, value):
                return (st[0], st[1], st[2].set(name, value))
        else:
            # Declared local, or an implicit local whose first write
            # binds it in σ_l — both resolve to the local store.
            def write(st, value):
                return (st[0].set(name, value), st[1], st[2])
    else:
        def write(st, value):
            return (st[0], st[1].set(name, value), st[2])
    return write


def _abort_outcome(tid, frame, sigma_c, sigma_o):
    event = ObjAbortEvent(tid) if frame is not None else CltAbortEvent(tid)
    return [StepOutcome(None, sigma_c, sigma_o, event)]


def _static_block_footprint(stmt: Stmt, ctx: _Ctx) -> Optional[Footprint]:
    """A pre-built shared footprint for a fused block whose footprint is
    state-independent, or ``None`` when it must be accumulated per call.

    Valid exactly for straight-line blocks without heap-cell accesses:
    every primitive of the block executes on each surviving branch, so
    whenever the interpreter's per-call footprint is observed (some
    final state exists) it equals this static union.  ``If``/``While``
    make the recorded set path-dependent and ``Load``/``Store``/
    ``Dispose`` record runtime addresses — those blocks build a fresh
    footprint per step.
    """

    fp = Footprint()
    if _accumulate_static(stmt, ctx, fp):
        return fp
    return None


def _accumulate_static(stmt: Stmt, ctx: _Ctx, fp: Footprint) -> bool:
    cls = type(stmt)
    if cls is Seq:
        for sub in stmt.stmts:
            if not _accumulate_static(sub, ctx, fp):
                return False
        return True
    if cls is Atomic:
        return _accumulate_static(stmt.body, ctx, fp)
    if cls is Skip:
        return True
    if cls is Assign:
        fp.reads.update(ctx.read_template(stmt.expr.free_vars()))
        w = ctx.write_location(stmt.var)
        if w is not None:
            fp.writes.add(w)
        return True
    if cls is Assume:
        fp.reads.update(ctx.read_template(stmt.cond.free_vars()))
        return True
    if cls is NondetChoice:
        for choice in stmt.choices:
            fp.reads.update(ctx.read_template(choice.free_vars()))
        w = ctx.write_location(stmt.var)
        if w is not None:
            fp.writes.add(w)
        return True
    if cls is Alloc:
        for init in stmt.inits:
            fp.reads.update(ctx.read_template(init.free_vars()))
        w = ctx.write_location(stmt.var)
        if w is not None:
            fp.writes.add(w)
        fp.allocates = True
        return True
    return False


def stmt_template(head: Stmt, ctx: _Ctx) -> Optional[Footprint]:
    """The static footprint template of stepping control head ``head``.

    Non-``None`` exactly for steps that are provably *eventless* and
    *heap-cell-free*, whatever the runtime state: branch decisions
    (``If``/``While`` read their condition and move control) and fused
    straight-line blocks of ``Skip``/``Assign``/``Assume``/``nondet``/
    ``cons`` (see :func:`_static_block_footprint`).  Heads that may
    touch heap cells (``Load``/``Store``/``Dispose``, branching blocks)
    or emit events (``Call``/``Return``/``Print``/``Noret``) have no
    template.  The sleep-set layer decides independence *only* on these
    templates — both semantics derive them from the same statement
    objects and contexts, so interpreted and compiled runs prune
    identically.  Such a step can still abort (an unbound-variable
    fault), which is safe: the abort emits the same event with the same
    trace wherever the commuted step runs.
    """

    cls = type(head)
    while cls is Seq:
        # Stepping a Seq head steps the head of its flattened expansion
        # (both semantics normalise before executing).
        if not head.stmts:
            return None
        head = head.stmts[0]
        cls = type(head)
    if cls is If or cls is While:
        fp = Footprint()
        fp.reads.update(ctx.read_template(head.cond.free_vars()))
        return fp
    if cls is Atomic:
        return _static_block_footprint(head.body, ctx)
    if cls in _PRIM_HEAD_TYPES:
        return _static_block_footprint(head, ctx)
    return None


# ---------------------------------------------------------------------------
# Compiled program
# ---------------------------------------------------------------------------


class CompiledProgram:
    """The flat transition tables of one :class:`Program`.

    ``steps[pc]`` is ``(tid, frame, sigma_c, sigma_o, footprints, alloc)
    -> List[StepOutcome]``; ``comps[pc]`` is the optional invisible-step
    compression entry ``(frame, sigma_c) -> successors | None`` (``None``
    result = not compressible here, emit as visible); ``controls[pc]``
    is the original interpreter control for diagnostics.  Not picklable
    (tables are closures) — the parallel engine recompiles per worker
    from the pickled :class:`Program`, which is deterministic, so pc
    numbering agrees across processes.
    """

    __slots__ = ("program", "steps", "comps", "controls", "entry_threads",
                 "stats", "fp_templates", "method_entries")

    def __init__(self, program, steps, comps, controls, entry_threads,
                 stats, fp_templates=(), method_entries=None):
        self.program = program
        self.steps = steps
        self.comps = comps
        self.controls = controls
        self.entry_threads = entry_threads
        self.stats = stats
        #: ``fp_templates[pc]`` is :func:`stmt_template` of ``controls[pc]``
        #: — the static footprint of stepping that control when the step is
        #: provably eventless, else ``None`` (sleep-set independence input).
        self.fp_templates = fp_templates
        #: Instrumented lowering only: method name -> the compiled entry
        #: control of its body (as a call would push it).
        self.method_entries = method_entries or {}

    @property
    def n_pcs(self) -> int:
        return len(self.controls)


def compiled_thread_step(compiled: CompiledProgram, tstate: ThreadState,
                         tid: int, sigma_c: Store, sigma_o: Store,
                         footprints: bool = False,
                         alloc: Optional[Tuple[int, int]] = None
                         ) -> List[StepOutcome]:
    """Table-driven counterpart of :func:`repro.semantics.thread.thread_step`."""

    control = tstate.control
    if not control:
        return []
    return compiled.steps[control[0]](tid, tstate.frame, sigma_c, sigma_o,
                                      footprints, alloc)


def compiled_expand_until_visible(compiled: CompiledProgram,
                                  tstate: ThreadState, sigma_c: Store
                                  ) -> List[Tuple[ThreadState, Store]]:
    """Table-driven counterpart of ``expand_until_visible``.

    σ_o is not needed: the static privacy classification already folded
    the object-variable checks into the per-pc compression entries.
    """

    comps = compiled.comps
    results: List[Tuple[ThreadState, Store]] = []
    seen = set()
    work = [(tstate.control, tstate.frame, sigma_c, COMPRESSION_FUEL)]
    while work:
        control, frame, sc, fuel = work.pop()
        if control and fuel > 0:
            comp = comps[control[0]]
            nxt = comp(frame, sc) if comp is not None else None
            if nxt is not None:
                fuel -= 1
                for c2, f2, s2 in nxt:
                    work.append((c2, f2, s2, fuel))
                continue
        key = (control, frame, sc)
        if key not in seen:
            seen.add(key)
            results.append((ThreadState(control, frame), sc))
    return results


# ---------------------------------------------------------------------------
# The lowering pass
# ---------------------------------------------------------------------------


def _ctx_free(control) -> bool:
    """Controls whose step is context-independent (may be shared between
    method contexts): only the ``(noret,)`` singleton appended at calls."""

    return len(control) == 1 and type(control[0]) is Noret


class _Lowerer:
    """One lowering pass.  ``source`` is what the tables are built for
    (a :class:`Program`, or an instrumented object); ``impl`` supplies
    the methods and the initial object memory.  ``spec`` (the
    specification Γ) is given exactly when lowering instrumented code:
    it brings the auxiliary commands into the fragment."""

    def __init__(self, source, impl, clients: Tuple[Stmt, ...] = (),
                 private_client_vars: bool = False, spec=None):
        self.program = source
        self.impl = impl
        self.clients = clients
        self.private_client_vars = private_client_vars
        self.spec = spec
        self.aux_types = frozenset(AUX_STMTS if spec is not None else ())
        self.obj_vars = frozenset(
            k for k in self.impl.initial_memory if isinstance(k, str))
        self.client_ctx = _Ctx(False, frozenset(), self.obj_vars, "client")
        self.method_ctxs: Dict[str, _Ctx] = {}
        self.pc_of: Dict[tuple, int] = {}
        self.controls: List[tuple] = []
        self.ctxs: List[_Ctx] = []
        self.steps: List[Callable] = []
        self.comps: List[Optional[Callable]] = []
        self.pending: List[int] = []
        self.fused_regions = 0
        self.assume_edges = 0

    # -- support scan over the per-method CFGs ------------------------------

    def scan(self) -> None:
        """Reject unsupported constructs before building any table.

        Walks the PR-3 control-flow graphs: their edges enumerate every
        primitive statement (assume edges the branch conditions, atomic
        ids the fused regions), which is exactly the compiled fragment's
        surface.
        """

        units = [(f"method {name}", self.impl.methods[name].body)
                 for name in sorted(self.impl.methods)]
        units += [(f"client {i}", client)
                  for i, client in enumerate(self.clients, 1)]
        leaf_types = _LEAF_TYPES | self.aux_types
        for label, body in units:
            cfg = build_cfg(body)
            regions = set()
            for edge in cfg.edges:
                if edge.atomic:
                    regions.add(edge.atomic)
                if edge.kind == ASSUME:
                    self.assume_edges += 1
                    continue
                stmt = edge.stmt
                if type(stmt) not in leaf_types:
                    raise CompileUnsupported(
                        f"{label}: statement '{stmt}' "
                        f"({type(stmt).__name__}) is outside the "
                        f"compiled fragment")
                if edge.atomic and isinstance(stmt, _ATOMIC_BANNED):
                    raise CompileUnsupported(
                        f"{label}: '{stmt}' inside an atomic block")
            self.fused_regions += len(regions)

    # -- control interning --------------------------------------------------

    def intern(self, control, ctx: _Ctx):
        """Intern an interpreter control, return the compiled control."""

        if not control:
            return ()
        pc = self.pc_of.get(control)
        if pc is not None:
            if self.ctxs[pc] is not ctx and not _ctx_free(control):
                raise CompileUnsupported(
                    "statement object shared across resolution contexts")
            return (pc,)
        pc = len(self.controls)
        self.pc_of[control] = pc
        self.controls.append(control)
        self.ctxs.append(ctx)
        self.steps.append(None)
        self.comps.append(None)
        self.pending.append(pc)
        return (pc,)

    def method_ctx(self, name: str) -> _Ctx:
        ctx = self.method_ctxs.get(name)
        if ctx is None:
            mdef = self.impl.methods[name]
            declared = frozenset(mdef.locals) | {mdef.param, "cid"}
            ctx = _Ctx(True, declared, self.obj_vars, f"method {name}")
            self.method_ctxs[name] = ctx
        return ctx

    # -- main loop ----------------------------------------------------------

    def lower(self) -> CompiledProgram:
        self.scan()
        entry_threads = tuple(
            ThreadState(self.intern(push_control(client, ()),
                                    self.client_ctx))
            for client in self.clients)
        # Instrumented objects have no clients: the runner invokes the
        # methods itself, at the same entry controls a call would push.
        method_entries = {}
        if self.spec is not None:
            method_entries = {
                name: self.intern(
                    push_control(self.impl.methods[name].body, (_NORET,)),
                    self.method_ctx(name))
                for name in sorted(self.impl.methods)}
        while self.pending:
            self.build(self.pending.pop())
        stats = {
            "pcs": len(self.controls),
            "methods": len(self.impl.methods),
            "fused_atomic_regions": self.fused_regions,
            "assume_edges": self.assume_edges,
        }
        fp_templates = tuple(
            stmt_template(control[0], ctx)
            for control, ctx in zip(self.controls, self.ctxs))
        return CompiledProgram(self.program, self.steps, self.comps,
                               tuple(self.controls), entry_threads, stats,
                               fp_templates, method_entries)

    def build(self, pc: int) -> None:
        control = self.controls[pc]
        ctx = self.ctxs[pc]
        head = control[0]
        rest = control[1:]
        cls = type(head)
        if cls is Seq:
            self.build_seq(pc, head, rest, ctx)
        elif cls is If:
            self.build_if(pc, head, rest, ctx)
        elif cls is While:
            self.build_while(pc, head, rest, ctx)
        elif cls is Call:
            self.build_call(pc, head, rest, ctx)
        elif cls is Return:
            self.build_return(pc, head, rest, ctx)
        elif cls is Noret:
            self.steps[pc] = self.abort_step()
        elif cls is Print:
            self.build_print(pc, head, rest, ctx)
        elif cls is Atomic or cls in _PRIM_HEAD_TYPES \
                or cls in self.aux_types:
            self.build_block(pc, head, rest, ctx)
        else:
            raise CompileUnsupported(
                f"statement '{head}' ({cls.__name__}) is outside the "
                f"compiled fragment")

    @staticmethod
    def abort_step():
        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            return _abort_outcome(tid, frame, sigma_c, sigma_o)
        return step

    # -- control statements -------------------------------------------------

    def build_seq(self, pc, head, rest, ctx):
        # Normalisation: flatten one level and delegate to the result's
        # entry, mirroring the interpreter's Seq recursion.
        target = self.intern(push_control(head, rest), ctx)
        steps = self.steps
        if target:
            tpc = target[0]

            def step(tid, frame, sigma_c, sigma_o, fps, alloc):
                return steps[tpc](tid, frame, sigma_c, sigma_o, fps, alloc)
        else:
            # An empty Seq flattened away the whole control: the thread
            # is stuck exactly as the interpreter's empty-control case.
            def step(tid, frame, sigma_c, sigma_o, fps, alloc):
                return []

        def comp(frame, sc):
            return [(target, frame, sc)]

        self.steps[pc] = step
        self.comps[pc] = comp

    def build_if(self, pc, head, rest, ctx):
        condf = compile_bool(head.cond, ctx.resolver)
        then_c = self.intern(push_control(head.then, rest), ctx)
        else_c = self.intern(push_control(head.els, rest), ctx)
        static_fp = Footprint()
        static_fp.reads.update(ctx.read_template(head.cond.free_vars()))

        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            try:
                taken = condf(None if frame is None else frame.locals,
                              sigma_c, sigma_o)
            except EvalError:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            return [StepOutcome(
                ThreadState(then_c if taken else else_c, frame),
                sigma_c, sigma_o, footprint=static_fp if fps else None)]

        self.steps[pc] = step
        self.comps[pc] = self.cond_comp(head, ctx, then_c, else_c)

    def build_while(self, pc, head, rest, ctx):
        condf = compile_bool(head.cond, ctx.resolver)
        crest = self.intern(rest, ctx)
        # The loop back-edge, resolved at compile time: the body's
        # continuation re-enters this very pc.
        body_c = self.intern(push_control(head.body, (head,) + rest), ctx)
        static_fp = Footprint()
        static_fp.reads.update(ctx.read_template(head.cond.free_vars()))

        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            try:
                taken = condf(None if frame is None else frame.locals,
                              sigma_c, sigma_o)
            except EvalError:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            return [StepOutcome(
                ThreadState(body_c if taken else crest, frame),
                sigma_c, sigma_o, footprint=static_fp if fps else None)]

        self.steps[pc] = step
        self.comps[pc] = self.cond_comp(head, ctx, body_c, crest)

    def cond_comp(self, stmt, ctx, on_true, on_false):
        """Compression entry for an If/While head over a private
        condition; ``None`` when the condition can never be private."""

        fvs = sorted(stmt.cond.free_vars())
        if ctx.in_method:
            if any(n not in ctx.declared and n in ctx.obj_vars
                   for n in fvs):
                return None  # reads a shared object variable
            dyn = tuple(n for n in fvs if n not in ctx.declared)
            privf = compile_bool(stmt.cond, read_private)

            def comp(frame, sc):
                loc = frame.locals
                data = loc._data
                for n in dyn:
                    if n not in data:
                        return None
                try:
                    taken = privf(loc, None, None)
                except EvalError:
                    return None
                return [(on_true if taken else on_false, frame, sc)]

            return comp
        if not self.private_client_vars:
            return None
        dyn = tuple(fvs)
        privf = compile_bool(stmt.cond, read_private)

        def comp(frame, sc):
            data = sc._data
            for n in dyn:
                if n not in data:
                    return None
            try:
                taken = privf(sc, None, None)
            except EvalError:
                return None
            return [(on_true if taken else on_false, frame, sc)]

        return comp

    # -- call / return / print ----------------------------------------------

    def build_call(self, pc, head, rest, ctx):
        if ctx.in_method:
            self.steps[pc] = self.abort_step()  # nested calls abort
            return
        argf = compile_expr(head.arg, ctx.resolver)
        mdef = self.impl.method(head.method)
        mctx = self.method_ctx(head.method)
        entry_c = self.intern(push_control(mdef.body, (_NORET,)), mctx)
        crest = self.intern(rest, ctx)
        zeros = {v: 0 for v in mdef.locals}
        param = mdef.param
        mname = head.method
        retvar = head.var

        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            try:
                arg = argf(None, sigma_c, sigma_o)
            except EvalError:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            # Same override order as the interpreter's dict literal
            # ``{param: arg, "cid": tid, **zeros}``: a local named
            # ``cid`` shadows the reserved binding.
            data = {param: arg, "cid": tid}
            data.update(zeros)
            locals_init = Store.__new__(Store)
            locals_init._data = data
            locals_init._hash = None
            new_frame = Frame(locals=locals_init, retvar=retvar,
                              caller_control=crest, method=mname)
            return [StepOutcome(
                ThreadState(entry_c, new_frame), sigma_c, sigma_o,
                InvokeEvent(tid, mname, arg))]

        self.steps[pc] = step

    def build_return(self, pc, head, rest, ctx):
        if not ctx.in_method:
            self.steps[pc] = self.abort_step()  # clients may not return
            return
        exprf = compile_expr(head.expr, ctx.resolver)

        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            if frame is None:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            try:
                value = exprf(frame.locals, sigma_c, sigma_o)
            except EvalError:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            new_sigma_c = sigma_c
            if frame.retvar:
                new_sigma_c = sigma_c.set(frame.retvar, value)
            return [StepOutcome(
                ThreadState(frame.caller_control, None), new_sigma_c,
                sigma_o, ReturnEvent(tid, value))]

        self.steps[pc] = step

    def build_print(self, pc, head, rest, ctx):
        if ctx.in_method:
            self.steps[pc] = self.abort_step()  # methods may not print
            return
        exprf = compile_expr(head.expr, ctx.resolver)
        crest = self.intern(rest, ctx)

        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            try:
                value = exprf(None, sigma_c, sigma_o)
            except EvalError:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            return [StepOutcome(
                ThreadState(crest, frame), sigma_c, sigma_o,
                OutputEvent(tid, value))]

        self.steps[pc] = step

    # -- atomic blocks and primitives ---------------------------------------

    def build_block(self, pc, head, rest, ctx):
        body = head.body if type(head) is Atomic else head
        runner = self.compile_block(body, ctx)
        crest = self.intern(rest, ctx)
        static_fp = _static_block_footprint(body, ctx)

        def step(tid, frame, sigma_c, sigma_o, fps, alloc):
            if fps:
                fp = static_fp if static_fp is not None else Footprint()
            else:
                fp = None
            if frame is not None:
                st = (frame.locals, sigma_c, sigma_o)
            else:
                st = (None, sigma_c, sigma_o)
                alloc = None  # the sparse allocator is method-only
            try:
                finals = runner(st, fp, alloc, ATOMIC_LOOP_FUEL)
            except Fault:
                return _abort_outcome(tid, frame, sigma_c, sigma_o)
            outcomes = []
            for locs, sc, so in finals:
                new_frame = frame
                if frame is not None and locs is not frame.locals:
                    new_frame = Frame(locs, frame.retvar,
                                      frame.caller_control, frame.method)
                outcomes.append(StepOutcome(
                    ThreadState(crest, new_frame), sc, so, footprint=fp))
            return outcomes

        self.steps[pc] = step
        cls = type(head)
        if cls is Skip:
            def comp(frame, sc):
                return [(crest, frame, sc)]
            self.comps[pc] = comp
        elif cls is Assign:
            self.comps[pc] = self.assign_comp(head, crest, ctx)
        elif cls is NondetChoice:
            self.comps[pc] = self.nondet_comp(head, crest, ctx)

    def assign_comp(self, head, crest, ctx):
        var = head.var
        fvs = sorted(head.expr.free_vars())
        if ctx.in_method:
            if ctx.writes_object_var(var):
                return None  # shared write is never invisible
            if any(n not in ctx.declared and n in ctx.obj_vars
                   for n in fvs):
                return None
            dyn = tuple(n for n in fvs if n not in ctx.declared)
            privf = compile_expr(head.expr, read_private)

            def comp(frame, sc):
                loc = frame.locals
                data = loc._data
                for n in dyn:
                    if n not in data:
                        return None
                try:
                    value = privf(loc, None, None)
                except EvalError:
                    return None
                return [(crest,
                         Frame(loc.set(var, value), frame.retvar,
                               frame.caller_control, frame.method), sc)]

            return comp
        if not self.private_client_vars:
            return None
        dyn = tuple(fvs)
        privf = compile_expr(head.expr, read_private)

        def comp(frame, sc):
            data = sc._data
            for n in dyn:
                if n not in data:
                    return None
            try:
                value = privf(sc, None, None)
            except EvalError:
                return None
            return [(crest, frame, sc.set(var, value))]

        return comp

    def nondet_comp(self, head, crest, ctx):
        var = head.var
        fvs = sorted(frozenset().union(
            *(c.free_vars() for c in head.choices)) if head.choices
            else ())
        if ctx.in_method:
            if ctx.writes_object_var(var):
                return None
            if any(n not in ctx.declared and n in ctx.obj_vars
                   for n in fvs):
                return None
            dyn = tuple(n for n in fvs if n not in ctx.declared)
            choicefs = tuple(compile_expr(c, read_private)
                             for c in head.choices)

            def comp(frame, sc):
                loc = frame.locals
                data = loc._data
                for n in dyn:
                    if n not in data:
                        return None
                out = []
                for cf in choicefs:
                    try:
                        value = cf(loc, None, None)
                    except EvalError:
                        return None
                    out.append((crest,
                                Frame(loc.set(var, value), frame.retvar,
                                      frame.caller_control, frame.method),
                                sc))
                return out

            return comp
        if not self.private_client_vars:
            return None
        dyn = tuple(fvs)
        choicefs = tuple(compile_expr(c, read_private)
                         for c in head.choices)

        def comp(frame, sc):
            data = sc._data
            for n in dyn:
                if n not in data:
                    return None
            out = []
            for cf in choicefs:
                try:
                    value = cf(sc, None, None)
                except EvalError:
                    return None
                out.append((crest, frame, sc.set(var, value)))
            return out

        return comp

    # -- fused sequential executor (run_block compiled) ----------------------

    def compile_block(self, stmt, ctx):
        """Compile a statement for atomic execution: a closure
        ``(st, fp, alloc, fuel) -> [st']`` over ``(locals, σ_c, σ_o)``
        triples, mirroring ``run_block`` exactly (fan-out, pruning,
        Fault on runtime errors, loop fuel)."""

        cls = type(stmt)
        if cls is Seq:
            subs = tuple(self.compile_block(s, ctx) for s in stmt.stmts)

            def run(st, fp, alloc, fuel):
                states = [st]
                for sub in subs:
                    nxt = []
                    for s in states:
                        nxt.extend(sub(s, fp, alloc, fuel))
                    states = nxt
                    if not states:
                        return []
                return states

            return run
        if cls is Atomic:
            # Nested atomics are rejected at construction; flatten.
            return self.compile_block(stmt.body, ctx)
        if cls is If:
            condf = compile_bool(stmt.cond, ctx.resolver)
            reads = ctx.read_template(stmt.cond.free_vars())
            thenf = self.compile_block(stmt.then, ctx)
            elsef = self.compile_block(stmt.els, ctx)

            def run(st, fp, alloc, fuel):
                if fp is not None and reads:
                    fp.reads.update(reads)
                try:
                    taken = condf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                return (thenf if taken else elsef)(st, fp, alloc, fuel)

            return run
        if cls is While:
            condf = compile_bool(stmt.cond, ctx.resolver)
            reads = ctx.read_template(stmt.cond.free_vars())
            bodyf = self.compile_block(stmt.body, ctx)

            def run(st, fp, alloc, fuel):
                if fuel <= 0:
                    raise AtomicLoopDivergence(
                        "loop inside atomic block exceeded fuel")
                if fp is not None and reads:
                    fp.reads.update(reads)
                try:
                    taken = condf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                if not taken:
                    return [st]
                out = []
                for s in bodyf(st, fp, alloc, fuel - 1):
                    out.extend(run(s, fp, alloc, fuel - 1))
                return out

            return run
        if cls in _ATOMIC_BANNED or isinstance(stmt, _ATOMIC_BANNED):
            raise CompileUnsupported(
                f"'{stmt}' may not occur inside an atomic block")
        if cls in self.aux_types:
            return self.compile_aux(stmt, ctx)
        return self.compile_prim(stmt, ctx)

    def compile_aux(self, stmt, ctx):
        """An auxiliary command (Fig. 11) as a block primitive over the
        ``(Δ, tid)`` pair in the σ_c slot, mirroring
        :func:`repro.instrument.semantics.instrumented_handler`."""

        spec = self.spec
        cls = type(stmt)
        if cls is Ghost:
            inner = self.compile_block(stmt.stmt, ctx)

            # The interpreter runs ghost code in a fresh ``run_block``,
            # which restarts the loop fuel.
            def run(st, fp, alloc, fuel):
                return inner(st, fp, alloc, ATOMIC_LOOP_FUEL)

            return run
        if cls is TryLinReadOnly:
            method = stmt.method

            def run(st, fp, alloc, fuel):
                delta, tid = st[1]
                return [(st[0], (delta_trylin_readonly(spec, delta, method),
                                 tid), st[2])]

            return run
        if cls is Commit:
            assertion = stmt.assertion

            def run(st, fp, alloc, fuel):
                delta, tid = st[1]
                base = lookup_in(st[0], st[2])

                def lookup(name):
                    # ``cid`` in a commit assertion is the current thread.
                    return tid if name == "cid" else base(name)

                outcome = commit_filter(assertion, delta, lookup)
                if not outcome.ok:
                    raise AuxStuck(outcome.reason)
                return [(st[0], (outcome.kept, tid), st[2])]

            return run

        # linself / lin(E) / trylinself / trylin(E)
        trying = cls is TryLinSelf or cls is TryLin
        transition = delta_trylin if trying else delta_lin
        tidf = (None if cls is LinSelf or cls is TryLinSelf
                else compile_expr(stmt.tid, ctx.resolver))

        def run(st, fp, alloc, fuel):
            delta, tid = st[1]
            target = tid
            if tidf is not None:
                try:
                    target = tidf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
            try:
                delta = transition(spec, delta, target)
            except InstrumentationError as exc:
                raise AuxStuck(str(exc))
            return [(st[0], (delta, tid), st[2])]

        return run

    def compile_prim(self, stmt, ctx):
        cls = type(stmt)
        in_method = ctx.in_method
        data_index = 2 if in_method else 1
        kind = "o" if in_method else "c"

        if cls is Skip:
            return lambda st, fp, alloc, fuel: [st]

        if cls is Assign:
            exprf = compile_expr(stmt.expr, ctx.resolver)
            reads = ctx.read_template(stmt.expr.free_vars())
            wloc = ctx.write_location(stmt.var)
            writer = _make_writer(ctx, stmt.var)

            def run(st, fp, alloc, fuel):
                if fp is not None:
                    if reads:
                        fp.reads.update(reads)
                    if wloc is not None:
                        fp.writes.add(wloc)
                try:
                    value = exprf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                return [writer(st, value)]

            return run

        if cls is Load:
            addrf = compile_expr(stmt.addr, ctx.resolver)
            reads = ctx.read_template(stmt.addr.free_vars())
            wloc = ctx.write_location(stmt.var)
            writer = _make_writer(ctx, stmt.var)

            def run(st, fp, alloc, fuel):
                try:
                    addr = addrf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                if fp is not None:
                    if reads:
                        fp.reads.update(reads)
                    fp.reads.add((kind, addr))
                    if wloc is not None:
                        fp.writes.add(wloc)
                mem = st[data_index]._data
                if not isinstance(addr, int) or addr not in mem:
                    raise Fault(f"load from unallocated address {addr}")
                return [writer(st, mem[addr])]

            return run

        if cls is StoreStmt:
            addrf = compile_expr(stmt.addr, ctx.resolver)
            exprf = compile_expr(stmt.expr, ctx.resolver)
            reads = ctx.read_template(
                stmt.addr.free_vars() | stmt.expr.free_vars())

            def run(st, fp, alloc, fuel):
                try:
                    addr = addrf(st[0], st[1], st[2])
                    value = exprf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                data = st[data_index]
                if fp is not None:
                    if reads:
                        fp.reads.update(reads)
                    fp.writes.add((kind, addr))
                if not isinstance(addr, int) or addr not in data._data:
                    raise Fault(f"store to unallocated address {addr}")
                new = data.set(addr, value)
                if in_method:
                    return [(st[0], st[1], new)]
                return [(st[0], new, st[2])]

            return run

        if cls is Alloc:
            initfs = tuple(compile_expr(e, ctx.resolver)
                           for e in stmt.inits)
            fvs = frozenset().union(
                *(e.free_vars() for e in stmt.inits)) if stmt.inits \
                else frozenset()
            reads = ctx.read_template(fvs)
            wloc = ctx.write_location(stmt.var)
            writer = _make_writer(ctx, stmt.var)

            def run(st, fp, alloc, fuel):
                if fp is not None:
                    if reads:
                        fp.reads.update(reads)
                    if wloc is not None:
                        fp.writes.add(wloc)
                    fp.allocates = True
                try:
                    values = tuple(f(st[0], st[1], st[2]) for f in initfs)
                except EvalError as exc:
                    raise Fault(str(exc))
                data = st[data_index]
                if alloc is not None and in_method:
                    new, addr = allocate(data, values, base=alloc[0],
                                         stride=alloc[1])
                else:
                    new, addr = allocate(data, values)
                if in_method:
                    return [writer((st[0], st[1], new), addr)]
                return [writer((st[0], new, st[2]), addr)]

            return run

        if cls is Dispose:
            addrf = compile_expr(stmt.addr, ctx.resolver)
            reads = ctx.read_template(stmt.addr.free_vars())

            def run(st, fp, alloc, fuel):
                try:
                    addr = addrf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                if fp is not None:
                    if reads:
                        fp.reads.update(reads)
                    fp.writes.add((kind, addr))
                    fp.allocates = True  # allocator state: never a mover
                data = st[data_index]
                try:
                    new = dispose(data, addr)
                except SemanticsError as exc:
                    raise Fault(str(exc))
                if alloc is not None and in_method \
                        and isinstance(addr, int) and addr >= alloc[0]:
                    # Sparse regime: quarantine the freed block (see
                    # repro.memory.heap.QUARANTINE_KEY).
                    base, stride = alloc
                    bit = 1 << ((addr - base) // stride)
                    mem = new._data
                    mask = mem[QUARANTINE_KEY] \
                        if QUARANTINE_KEY in mem else 0
                    new = new.set(QUARANTINE_KEY, mask | bit)
                if in_method:
                    return [(st[0], st[1], new)]
                return [(st[0], new, st[2])]

            return run

        if cls is Assume:
            condf = compile_bool(stmt.cond, ctx.resolver)
            reads = ctx.read_template(stmt.cond.free_vars())

            def run(st, fp, alloc, fuel):
                if fp is not None and reads:
                    fp.reads.update(reads)
                try:
                    ok = condf(st[0], st[1], st[2])
                except EvalError as exc:
                    raise Fault(str(exc))
                return [st] if ok else []

            return run

        if cls is NondetChoice:
            choicefs = tuple(compile_expr(c, ctx.resolver)
                             for c in stmt.choices)
            fvs = frozenset().union(
                *(c.free_vars() for c in stmt.choices)) if stmt.choices \
                else frozenset()
            reads = ctx.read_template(fvs)
            wloc = ctx.write_location(stmt.var)
            writer = _make_writer(ctx, stmt.var)

            def run(st, fp, alloc, fuel):
                if fp is not None:
                    if reads:
                        fp.reads.update(reads)
                    if wloc is not None:
                        fp.writes.add(wloc)
                out = []
                try:
                    for cf in choicefs:
                        out.append(writer(st, cf(st[0], st[1], st[2])))
                except EvalError as exc:
                    raise Fault(str(exc))
                return out

            return run

        raise CompileUnsupported(
            f"statement '{stmt}' ({cls.__name__}) is outside the "
            f"compiled fragment")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: Per-program (and per-instrumented-object) compilation cache.  Keyed
#: weakly so retired programs do not pin their tables; lowering is
#: deterministic, so equal programs (e.g. a pickled copy in a parallel
#: worker) get identical pc numbering whether or not they share a cache
#: entry.
_CACHE: "weakref.WeakKeyDictionary[object, CompiledProgram]" = \
    weakref.WeakKeyDictionary()


def _cached_lowering(key, lowerer: Callable[[], _Lowerer]
                     ) -> CompiledProgram:
    try:
        cached = _CACHE.get(key)
    except TypeError:  # unhashable/unweakrefable exotic subclass
        return lowerer().lower()
    if cached is not None:
        return cached
    compiled = lowerer().lower()
    try:
        _CACHE[key] = compiled
    except TypeError:
        pass
    return compiled


def compile_program(program: Program) -> CompiledProgram:
    """Lower ``program`` to transition tables (cached per program).

    Raises :class:`CompileUnsupported` for programs outside the compiled
    fragment; callers degrade to the interpreted semantics.
    """

    return _cached_lowering(program, lambda: _Lowerer(
        program, program.object_impl, program.clients,
        program.private_client_vars))


def compile_instrumented(iobj) -> CompiledProgram:
    """Lower an :class:`~repro.instrument.runner.InstrumentedObject`
    (cached per object): its methods, auxiliary commands included, with
    ``method_entries`` naming each body's entry pc and no client
    threads.

    Steps take and return the auxiliary state ``(Δ, tid)`` in the σ_c
    slot (see the module docstring).  Raises :class:`CompileUnsupported`
    outside the fragment; the instrumented runner then degrades to the
    interpreter.
    """

    return _cached_lowering(iobj, lambda: _Lowerer(
        iobj, iobj, spec=iobj.spec))
