"""Instrumentation linter — the Fig-11 well-formedness side conditions.

The paper's auxiliary-command discipline is easy to get wrong and, until
now, a mistake only surfaced as an exploration failure deep inside a
bounded run.  This pass checks the discipline statically, per method,
by disjunctive abstract interpretation over the method CFG
(:func:`repro.analysis.dataflow.solve_disjunctive`):

1. **exactly-one self-linearization** — on every path from call to
   ``return``, the thread's own abstract operation is executed exactly
   once (``linself``, ``lin(cid)``, or a ``commit`` whose every pattern
   asserts ``cid ↣ (end, _)``).  Exception: in a *helping* object (one
   using ``lin(E)``/``trylin(E)``/``trylin_readonly``), a path may
   return with zero self-linearizations — another thread may have
   executed the operation (the HSY passive-elimination return);
2. **speculation resolution** — every ``trylin``-family speculation is
   resolved by a ``commit`` before the method returns (mid-loop retries
   without a commit are fine: speculations accumulate until a commit
   filters them);
3. **helping targets** — ``lin(E)``/``trylin(E)`` for ``E ≠ cid`` must
   target a thread id read from the shared state (directly, through a
   ghost load, or via an equality test against such a value) — a
   conjured constant cannot be known to have a pending operation;
4. **no aux flow into real code** — variables written by ``ghost`` code
   must never be read by real (erased-to-itself) code, or erasure would
   change behavior.

Each path fact tracks bounded constant sets for the method locals,
equality/disequality predicates between locals (thread-private, hence
stable), the set of shared-derived locals, the possible
self-linearization counts and the pending-speculation flag.  Guard
refinement keeps the control correlations the instrumentation idiom
relies on (``b = 1`` ⟺ the cas succeeded ⟺ ``linself`` ran), which is
what makes the check precise enough to report **zero** diagnostics on
all 12 registry algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..instrument.commands import (
    AUX_STMTS,
    Commit,
    Ghost,
    Lin,
    LinSelf,
    TryLin,
    TryLinReadOnly,
    TryLinSelf,
)
from ..assertions.patterns import ThreadDone, ThreadIs
from ..lang.ast import (
    Alloc,
    And,
    Assign,
    Assume,
    Atomic,
    BConst,
    BinOp,
    BoolExpr,
    Cmp,
    Const,
    Expr,
    If,
    Load,
    NondetChoice,
    Not,
    Or,
    Return,
    Seq,
    Skip,
    Stmt,
    UnOp,
    Var,
    While,
)
from ..lang.walk import (
    CID,
    defined_vars,
    iter_stmts,
    method_locals,
    stmt_exprs,
)
from .cfg import ASSUME, CFG, Edge, build_cfg
from .dataflow import solve_disjunctive
from .diagnostics import Diagnostic

#: Cap on bounded constant sets (matches the escape analysis).
VAL_CAP = 8

AbsVal = Optional[FrozenSet[int]]  # None = TOP


@dataclass(frozen=True)
class Fact:
    """One path fact at one program point."""

    env: Tuple[Tuple[str, FrozenSet[int]], ...]  # bounded locals only
    sderiv: FrozenSet[str]     # locals holding shared-derived values
    eqs: FrozenSet[tuple]      # ("ee", x, y, pol) / ("ec", x, c, False)
    lin: FrozenSet[int]        # possible self-linearization counts
    spec: bool                 # an unresolved speculation is pending


def _widen(fact: Fact) -> Fact:
    """Drop the value/predicate components, keep the lin/spec core."""

    return Fact(env=(), sderiv=frozenset(), eqs=frozenset(),
                lin=fact.lin, spec=fact.spec)


# ---------------------------------------------------------------------------
# Environment helpers (dict view of Fact.env)
# ---------------------------------------------------------------------------


def _env(fact: Fact) -> Dict[str, FrozenSet[int]]:
    return dict(fact.env)


def _pack(env: Dict[str, FrozenSet[int]]) -> tuple:
    return tuple(sorted(env.items(), key=lambda kv: kv[0]))


def _eval(expr: Expr, env: Dict[str, FrozenSet[int]],
          locals_: FrozenSet[str]) -> AbsVal:
    if isinstance(expr, Const):
        return frozenset({expr.value}) if isinstance(expr.value, int) \
            else None
    if isinstance(expr, Var):
        if expr.name not in locals_:
            return None  # shared state: unbounded
        return env.get(expr.name)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, env, locals_)
        right = _eval(expr.right, env, locals_)
        if left is None or right is None:
            return None
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b}
        fn = ops.get(expr.op)
        if fn is None:
            return None
        out = {fn(a, b) for a in left for b in right}
        return frozenset(out) if len(out) <= VAL_CAP else None
    if isinstance(expr, UnOp) and expr.op == "-":
        val = _eval(expr.operand, env, locals_)
        return None if val is None else frozenset({-v for v in val})
    return None


def _reads_shared(expr: Expr, fact: Fact,
                  locals_: FrozenSet[str]) -> bool:
    names = expr.free_vars()
    return any(v not in locals_ or v in fact.sderiv for v in names)


def _drop_var(fact: Fact, var: str, env: Dict[str, FrozenSet[int]],
              new_val: AbsVal, shared_derived: bool) -> Fact:
    if new_val is None:
        env.pop(var, None)
    else:
        env[var] = new_val
    eqs = frozenset(e for e in fact.eqs if var not in (e[1], e[2]))
    sderiv = fact.sderiv - {var}
    if shared_derived:
        sderiv = sderiv | {var}
    return Fact(env=_pack(env), sderiv=sderiv, eqs=eqs,
                lin=fact.lin, spec=fact.spec)


# ---------------------------------------------------------------------------
# Guard refinement
# ---------------------------------------------------------------------------


def _ee(x: str, y: str, pol: bool) -> tuple:
    a, b = (x, y) if x <= y else (y, x)
    return ("ee", a, b, pol)


def _refine_eq(fact: Fact, left: Expr, right: Expr, want_eq: bool,
               locals_: FrozenSet[str]) -> List[Fact]:
    env = _env(fact)
    lval = _eval(left, env, locals_)
    rval = _eval(right, env, locals_)

    # Definite verdicts from bounded values.
    if lval is not None and rval is not None:
        if not (lval & rval):
            return [fact] if not want_eq else []
        if len(lval) == 1 and lval == rval:
            return [fact] if want_eq else []

    lvar = left.name if isinstance(left, Var) and left.name in locals_ \
        else None
    rvar = right.name if isinstance(right, Var) and right.name in locals_ \
        else None

    eqs = set(fact.eqs)
    # Local-local comparison: predicates are stable (locals are
    # thread-private), so consult and record them.
    if lvar and rvar:
        key_t, key_f = _ee(lvar, rvar, True), _ee(lvar, rvar, False)
        if key_t in eqs and not want_eq:
            return []
        if key_f in eqs and want_eq:
            return []
        eqs.add(key_t if want_eq else key_f)
        eqs.discard(key_f if want_eq else key_t)
    # Value refinement.
    if want_eq:
        for var, other in ((lvar, rval), (rvar, lval)):
            if not var or other is None:
                continue
            cur = env.get(var)
            cut = other if cur is None else cur & other
            # A recorded disequality excludes its value.
            cut = frozenset(c for c in cut
                            if ("ec", var, c, False) not in eqs)
            if not cut:
                return []
            env[var] = cut
        # An equality against a shared-derived local validates the
        # other side as shared-derived too.
        sderiv = fact.sderiv
        if lvar and rvar:
            if lvar in sderiv or rvar in sderiv:
                sderiv = sderiv | {lvar, rvar}
        return [Fact(env=_pack(env), sderiv=sderiv,
                     eqs=frozenset(eqs), lin=fact.lin, spec=fact.spec)]
    # want_eq == False
    for var, other in ((lvar, rval), (rvar, lval)):
        if var and other is not None and len(other) == 1:
            (c,) = tuple(other)
            cur = env.get(var)
            if cur is not None:
                cut = cur - other
                if not cut:
                    return []
                env[var] = cut
            else:
                eqs.add(("ec", var, c, False))
    return [Fact(env=_pack(env), sderiv=fact.sderiv,
                 eqs=frozenset(eqs), lin=fact.lin, spec=fact.spec)]


def _parity_test(left: Expr, right: Expr) -> Optional[Tuple[str, int]]:
    """Recognize ``v % 2 = k`` (either operand order) → ``(v, k)``.

    The CCAS/RDCSS pointer-packing idiom branches on the parity of a
    packed word: the failed-cas LP fires on a *plain* value (even) while
    the helping loop continues on a *descriptor* (odd).  Tracking the
    one-bit parity of an otherwise unbounded local keeps those two arms
    mutually exclusive."""

    if isinstance(left, Const):
        left, right = right, left
    if not (isinstance(right, Const) and right.value in (0, 1)):
        return None
    if isinstance(left, BinOp) and left.op == "%" \
            and isinstance(left.left, Var) \
            and isinstance(left.right, Const) and left.right.value == 2:
        return left.left.name, right.value
    return None


def _refine_parity(fact: Fact, parity: Tuple[str, int], want_eq: bool,
                   locals_: FrozenSet[str]) -> List[Fact]:
    var, k = parity
    if var not in locals_:
        return [fact]
    bit = k if want_eq else 1 - k
    env = _env(fact)
    val = env.get(var)
    if val is not None:
        cut = frozenset(v for v in val if v % 2 == bit)
        if not cut:
            return []
        env[var] = cut
        return [Fact(env=_pack(env), sderiv=fact.sderiv, eqs=fact.eqs,
                     lin=fact.lin, spec=fact.spec)]
    this, other = ("par", var, bit), ("par", var, 1 - bit)
    if other in fact.eqs:
        return []
    if this in fact.eqs:
        return [fact]
    return [Fact(env=fact.env, sderiv=fact.sderiv,
                 eqs=fact.eqs | {this}, lin=fact.lin, spec=fact.spec)]


def _refine(fact: Fact, cond: BoolExpr, pol: bool,
            locals_: FrozenSet[str]) -> List[Fact]:
    if isinstance(cond, BConst):
        return [fact] if cond.value == pol else []
    if isinstance(cond, Not):
        return _refine(fact, cond.operand, not pol, locals_)
    if isinstance(cond, And) if pol else isinstance(cond, Or):
        # true(A ∧ B) and false(A ∨ B): both conjuncts constrain.
        out = []
        for f in _refine(fact, cond.left, pol, locals_):
            out.extend(_refine(f, cond.right, pol, locals_))
        return out
    if isinstance(cond, (And, Or)):
        # false(A ∧ B) = ¬A ∨ (A ∧ ¬B); true(A ∨ B) dually.
        first = _refine(fact, cond.left, pol, locals_)
        out = list(first)
        for f in _refine(fact, cond.left, not pol, locals_):
            out.extend(_refine(f, cond.right, pol, locals_))
        return out
    if isinstance(cond, Cmp):
        if cond.op in ("=", "!="):
            want_eq = (cond.op == "=") == pol
            parity = _parity_test(cond.left, cond.right)
            if parity is not None:
                return _refine_parity(fact, parity, want_eq, locals_)
            return _refine_eq(fact, cond.left, cond.right, want_eq,
                              locals_)
        # Order comparisons: check bounded-value feasibility only.
        env = _env(fact)
        lval = _eval(cond.left, env, locals_)
        rval = _eval(cond.right, env, locals_)
        if lval is not None and rval is not None:
            ops = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
                   ">": lambda a, b: a > b, ">=": lambda a, b: a >= b}
            fn = ops.get(cond.op)
            if fn is not None:
                feas = any(fn(a, b) == pol
                           for a in lval for b in rval)
                if not feas:
                    return []
        return [fact]
    return [fact]


# ---------------------------------------------------------------------------
# Commit classification
# ---------------------------------------------------------------------------


def _is_cid(expr) -> bool:
    return isinstance(expr, Var) and expr.name == CID


def _classify_commit(assertion) -> str:
    """How the commit constrains *this* thread's linearization.

    ``"done-self"``: every ⊕-pattern asserts ``cid ↣ (end, _)`` — the
    path is committed to self having linearized (count becomes ≥ 1).
    ``"pending-self"``: every pattern asserts ``cid ↣ (γ, _)`` — self
    is still pending.  ``"other"``: no pattern mentions ``cid`` (e.g.
    CCAS commits about the ghost-loaded descriptor owner).  ``"mixed"``
    otherwise.
    """

    kinds = set()
    for pat in assertion.patterns:
        done = any(isinstance(c, ThreadDone) and _is_cid(c.tid)
                   for c in pat.constraints)
        pending = any(isinstance(c, ThreadIs) and _is_cid(c.tid)
                      for c in pat.constraints)
        if done:
            kinds.add("done")
        elif pending:
            kinds.add("pending")
        else:
            kinds.add("other")
    if kinds == {"done"}:
        return "done-self"
    if kinds == {"pending"}:
        return "pending-self"
    if kinds == {"other"}:
        return "other"
    return "mixed"


# ---------------------------------------------------------------------------
# The per-method pass
# ---------------------------------------------------------------------------


class _MethodLint:
    def __init__(self, method: str, body: Stmt, locals_: FrozenSet[str],
                 param: str, declared: FrozenSet[str],
                 helping_object: bool, sink: List[Diagnostic],
                 seen: Set[tuple]):
        self.method = method
        self.body = body
        self.locals = locals_
        self.param = param
        self.declared = declared
        self.helping = helping_object
        self.sink = sink
        self.seen = seen

    def diag(self, edge: Edge, code: str, message: str) -> None:
        dedupe = (self.method, code, edge.src, edge.dst)
        if dedupe in self.seen:
            return
        self.seen.add(dedupe)
        self.sink.append(Diagnostic("lint", self.method, code, message))

    # -- helping-target validation ------------------------------------

    def _validate_target(self, edge: Edge, fact: Fact, expr) -> None:
        if _is_cid(expr):
            return
        if isinstance(expr, Const):
            self.diag(edge, "helping-target-const",
                      f"lin/trylin targets the fixed thread id {expr} — "
                      f"a constant cannot be known to be pending")
            return
        if not isinstance(expr, Var):
            self.diag(edge, "helping-target-computed",
                      f"lin/trylin target {expr} is a computed "
                      f"expression, not a validated thread id")
            return
        var = expr.name
        if var in fact.sderiv:
            return
        for kind, a, b, pol in (e for e in fact.eqs if e[0] == "ee"):
            if pol and var in (a, b):
                other = b if a == var else a
                if other in fact.sderiv:
                    return
        self.diag(edge, "helping-target-unvalidated",
                  f"lin/trylin target {var!r} was not read from shared "
                  f"state nor validated against it — it may name a "
                  f"thread with no pending operation")

    # -- transfer ------------------------------------------------------

    def transfer(self, edge: Edge, fact: Fact) -> Iterable[Fact]:
        if edge.kind == ASSUME:
            return _refine(fact, edge.cond, edge.polarity, self.locals)
        stmt = edge.stmt

        if isinstance(stmt, LinSelf) \
                or (isinstance(stmt, Lin) and _is_cid(stmt.tid)):
            lin = frozenset(min(c + 1, 2) for c in fact.lin)
            if lin == {2}:
                self.diag(edge, "double-self-lin",
                          "this path linearizes self twice")
            return [Fact(fact.env, fact.sderiv, fact.eqs, lin, fact.spec)]
        if isinstance(stmt, Lin):
            self._validate_target(edge, fact, stmt.tid)
            return [fact]
        if isinstance(stmt, TryLinSelf):
            return [Fact(fact.env, fact.sderiv, fact.eqs, fact.lin, True)]
        if isinstance(stmt, TryLin):
            if not _is_cid(stmt.tid):
                self._validate_target(edge, fact, stmt.tid)
            return [Fact(fact.env, fact.sderiv, fact.eqs, fact.lin, True)]
        if isinstance(stmt, TryLinReadOnly):
            return [Fact(fact.env, fact.sderiv, fact.eqs, fact.lin, True)]
        if isinstance(stmt, Commit):
            kind = _classify_commit(stmt.assertion)
            lin = fact.lin
            if kind == "done-self":
                lin = frozenset(max(c, 1) for c in lin)
            elif kind == "mixed":
                lin = lin | frozenset(max(c, 1) for c in lin)
            return [Fact(fact.env, fact.sderiv, fact.eqs, lin, False)]
        if isinstance(stmt, Ghost):
            from_shared = any(isinstance(s, Load)
                              for s in iter_stmts(stmt.stmt))
            out = fact
            for var in defined_vars(stmt.stmt):
                out = _drop_var(out, var, _env(out), None, from_shared)
            return [out]

        if isinstance(stmt, Return) or isinstance(stmt, Skip) \
                and edge.dst == -1:
            self._check_return(edge, fact)
            return [fact]

        # Plain value transfers.
        if isinstance(stmt, Assign):
            env = _env(fact)
            val = _eval(stmt.expr, env, self.locals)
            sh = _reads_shared(stmt.expr, fact, self.locals)
            out = _drop_var(fact, stmt.var, env, val, sh)
            if isinstance(stmt.expr, Var) \
                    and stmt.expr.name in self.locals \
                    and stmt.expr.name != stmt.var:
                eqs = set(out.eqs)
                eqs.add(_ee(stmt.var, stmt.expr.name, True))
                out = Fact(out.env, out.sderiv, frozenset(eqs),
                           out.lin, out.spec)
            return [out]
        if isinstance(stmt, Load):
            return [_drop_var(fact, stmt.var, _env(fact), None, True)]
        if isinstance(stmt, Alloc):
            return [_drop_var(fact, stmt.var, _env(fact), None, False)]
        if isinstance(stmt, NondetChoice):
            env = _env(fact)
            val: AbsVal = frozenset()
            for choice in stmt.choices:
                cval = _eval(choice, env, self.locals)
                if cval is None:
                    val = None
                    break
                val = val | cval
                if len(val) > VAL_CAP:
                    val = None
                    break
            return [_drop_var(fact, stmt.var, env, val, False)]
        if isinstance(stmt, Assume):
            return _refine(fact, stmt.cond, True, self.locals)
        # Store/Dispose/Print/Call/Noret/Skip: no local-state effect.
        return [fact]

    def _check_return(self, edge: Edge, fact: Fact) -> None:
        # In a helping object the resolving commit may sit in *another*
        # thread's code (whoever resolves the shared descriptor commits
        # for everyone), so pending speculation at return is only a
        # definite error when no helping exists.
        if fact.spec and not self.helping:
            self.diag(edge, "unresolved-speculation",
                      "a trylin speculation can reach this return "
                      "without a resolving commit")
        if fact.lin == {2}:
            self.diag(edge, "double-self-lin",
                      "this return path linearized self twice")
        elif 1 not in fact.lin and 2 not in fact.lin and not self.helping:
            self.diag(edge, "no-self-lin",
                      "this return path never linearizes self (and the "
                      "object has no helping that could do it)")

    def run(self) -> None:
        cfg = build_cfg(self.body)
        # Declared locals start at 0 (the call semantics); the parameter
        # and cid are caller-supplied (unbounded), implicit locals are
        # unbound until written.
        init_env = {v: frozenset({0}) for v in self.declared
                    if v not in (CID, self.param)}
        init = Fact(env=_pack(init_env), sderiv=frozenset(),
                    eqs=frozenset(), lin=frozenset({0}), spec=False)
        solve_disjunctive(cfg, [init], self.transfer, widen=_widen)


def _aux_flow_check(method: str, body: Stmt, sink: List[Diagnostic]) \
        -> None:
    """No ghost-written variable may be read by real (erased) code."""

    ghost_vars: Set[str] = set()
    for s in iter_stmts(body):
        if isinstance(s, Ghost):
            ghost_vars |= defined_vars(s.stmt)
    if not ghost_vars:
        return

    def aux_only(stmt: Stmt) -> bool:
        if isinstance(stmt, (Skip,) + AUX_STMTS):
            return True
        if isinstance(stmt, Seq):
            return all(aux_only(s) for s in stmt.stmts)
        if isinstance(stmt, If):
            return aux_only(stmt.then) and aux_only(stmt.els)
        if isinstance(stmt, (While, Atomic)):
            return aux_only(stmt.body)
        return False

    reported: Set[str] = set()

    def flag(names, where: str) -> None:
        for name in sorted(set(names) & ghost_vars - reported):
            reported.add(name)
            sink.append(Diagnostic(
                "lint", method, "aux-flow",
                f"ghost variable {name!r} is read by real code "
                f"({where}) — erasure would change behavior"))

    def walk(stmt: Stmt) -> None:
        if isinstance(stmt, AUX_STMTS) or aux_only(stmt):
            return
        if isinstance(stmt, Seq):
            for sub in stmt.stmts:
                walk(sub)
            return
        if isinstance(stmt, If):
            flag(stmt.cond.free_vars(), f"if {stmt.cond}")
            walk(stmt.then)
            walk(stmt.els)
            return
        if isinstance(stmt, While):
            flag(stmt.cond.free_vars(), f"while {stmt.cond}")
            walk(stmt.body)
            return
        if isinstance(stmt, Atomic):
            walk(stmt.body)
            return
        for expr in stmt_exprs(stmt):
            flag(expr.free_vars(), str(stmt))

    walk(body)


def lint_instrumented(obj) -> List[Diagnostic]:
    """All lint diagnostics for one :class:`InstrumentedObject`."""

    shared = {k for k in obj.initial_memory if isinstance(k, str)}
    helping = any(
        isinstance(s, TryLinReadOnly)
        or isinstance(s, (Lin, TryLin)) and not _is_cid(s.tid)
        for mdef in obj.methods.values() for s in iter_stmts(mdef.body))
    sink: List[Diagnostic] = []
    seen: Set[tuple] = set()
    for mdef in obj.methods.values():
        locals_ = method_locals(mdef) - shared
        declared = frozenset(mdef.locals) - shared
        _MethodLint(mdef.name, mdef.body, locals_, mdef.param, declared,
                    helping, sink, seen).run()
        _aux_flow_check(mdef.name, mdef.body, sink)
    return sink
