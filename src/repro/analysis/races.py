"""Race/atomicity lint over the plain object language.

Flags *unsynchronized read/write pairs*: a write to a shared-reachable
location whose value was computed from an unprotected read of the same
location — the classic lost-update shape of the Sec-2.4 non-atomic
counter (``t := x; x := t + 1`` outside any atomic block).  A read or
write is *protected* when it executes inside an ``atomic`` block or
while the thread holds a recognized lock.

Lock recognition is structural, matching the idioms in
:mod:`repro.algorithms.common`:

* **acquire** — a store of the literal 1 to a shared location inside an
  atomic block (the success arm of the ``cas``-spin in
  ``lock_var``/``lock_cell``);
* **release** — a store of the literal 0 to that location.

The pass is a disjunctive abstract interpretation over the method CFGs
(same engine as the instrumentation linter): each path fact carries the
bounded constant values of the locals — needed to correlate the spin
flag with the acquired lock (only ``lb = 1`` paths leave the spin loop
holding it) — the current lockset, and per-local taint sets recording
which shared locations flowed into the local through unprotected reads.

This is a lint, not a proof: locksets identify locks by name/offset
(not by dynamic identity) and a held lock is assumed to protect every
access.  It reports zero diagnostics on the 12 registry algorithms and
fires on ``racy_counter`` — the positive control pinned by the CI
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..lang.ast import (
    Alloc,
    And,
    Assign,
    Assume,
    BConst,
    BinOp,
    BoolExpr,
    Cmp,
    Const,
    Expr,
    Load,
    NondetChoice,
    Not,
    Or,
    Store,
    Var,
)
from ..lang.walk import method_locals
from .cfg import ASSUME, CFG, Edge, build_cfg
from .dataflow import solve_disjunctive
from .diagnostics import Diagnostic

VAL_CAP = 8

AbsVal = Optional[FrozenSet[int]]

#: Location tokens: ``("v", name)`` — a named shared variable;
#: ``("c", base_var, offset)`` — a heap cell addressed off a local;
#: ``("k", addr)`` — a heap cell at a literal address.
Token = tuple


@dataclass(frozen=True)
class Fact:
    env: Tuple[Tuple[str, FrozenSet[int]], ...]
    locks: FrozenSet[Token]
    taints: FrozenSet[Tuple[str, Token]]  # (local var, location it saw)


def _widen(fact: Fact) -> Fact:
    return Fact(env=(), locks=fact.locks, taints=frozenset())


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
            return None
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
    return None


def _refine(fact: Fact, cond: BoolExpr, pol: bool,
            locals_: FrozenSet[str]) -> List[Fact]:
    if isinstance(cond, BConst):
        return [fact] if cond.value == pol else []
    if isinstance(cond, Not):
        return _refine(fact, cond.operand, not pol, locals_)
    if isinstance(cond, And) if pol else isinstance(cond, Or):
        out = []
        for f in _refine(fact, cond.left, pol, locals_):
            out.extend(_refine(f, cond.right, pol, locals_))
        return out
    if isinstance(cond, (And, Or)):
        out = list(_refine(fact, cond.left, pol, locals_))
        for f in _refine(fact, cond.left, not pol, locals_):
            out.extend(_refine(f, cond.right, pol, locals_))
        return out
    if isinstance(cond, Cmp) and cond.op in ("=", "!="):
        want_eq = (cond.op == "=") == pol
        env = _env(fact)
        lval = _eval(cond.left, env, locals_)
        rval = _eval(cond.right, env, locals_)
        if lval is not None and rval is not None:
            if not (lval & rval):
                return [fact] if not want_eq else []
            if len(lval) == 1 and lval == rval:
                return [fact] if want_eq else []
        changed = False
        for side, other in ((cond.left, rval), (cond.right, lval)):
            if isinstance(side, Var) and side.name in locals_ \
                    and other is not None:
                cur = env.get(side.name)
                if want_eq:
                    cut = other if cur is None else cur & other
                elif cur is not None and len(other) == 1:
                    cut = cur - other
                else:
                    continue
                if not cut:
                    return []
                env[side.name] = cut
                changed = True
        if changed:
            return [Fact(env=_pack(env), locks=fact.locks,
                         taints=fact.taints)]
        return [fact]
    return [fact]


def _addr_token(addr: Expr) -> Optional[Token]:
    base, offset = addr, 0
    if isinstance(addr, BinOp) and addr.op == "+":
        left, right = addr.left, addr.right
        if isinstance(left, Const) and isinstance(right, Var):
            left, right = right, left
        if isinstance(left, Var) and isinstance(right, Const) \
                and isinstance(right.value, int):
            base, offset = left, right.value
    if isinstance(base, Const) and isinstance(base.value, int):
        return ("k", base.value + offset)
    if isinstance(base, Var):
        return ("c", base.name, offset)
    return None


def _expr_taint(expr: Expr, fact: Fact, locals_: FrozenSet[str],
                protected: bool) -> FrozenSet[Token]:
    """Locations whose unprotected reads flow into ``expr``'s value."""

    out: Set[Token] = set()
    for name in expr.free_vars():
        if name in locals_:
            out.update(tok for var, tok in fact.taints if var == name)
        elif not protected:
            out.add(("v", name))
    return frozenset(out)


def _set_taint(fact: Fact, var: str, toks: FrozenSet[Token],
               env: Dict[str, FrozenSet[int]], val: AbsVal) -> Fact:
    if val is None:
        env.pop(var, None)
    else:
        env[var] = val
    taints = frozenset((v, t) for v, t in fact.taints if v != var) \
        | frozenset((var, t) for t in toks)
    # A write to the base local invalidates cell tokens formed over it.
    taints = frozenset((v, t) for v, t in taints
                       if not (t[0] == "c" and t[1] == var))
    locks = frozenset(t for t in fact.locks
                      if not (t[0] == "c" and t[1] == var))
    return Fact(env=_pack(env), locks=locks, taints=taints)


class _MethodRaces:
    def __init__(self, method: str, locals_: FrozenSet[str],
                 sink: List[Diagnostic], seen: Set[tuple]):
        self.method = method
        self.locals = locals_
        self.sink = sink
        self.seen = seen

    def fire(self, token: Token, stmt) -> None:
        key = (self.method, token)
        if key in self.seen:
            return
        self.seen.add(key)
        where = token[1] if token[0] == "v" else \
            (f"[{token[1]}]" if token[0] == "k"
             else f"[{token[1]}+{token[2]}]")
        self.sink.append(Diagnostic(
            "races", self.method, "unsynchronized-rmw",
            f"write {stmt} depends on an unprotected read of the same "
            f"shared location {where} — a racing thread can interleave "
            f"between the read and the write"))

    def transfer(self, edge: Edge, fact: Fact) -> Iterable[Fact]:
        if edge.kind == ASSUME:
            return _refine(fact, edge.cond, edge.polarity, self.locals)
        stmt = edge.stmt
        in_atomic = edge.atomic != 0
        protected = in_atomic or bool(fact.locks)

        if isinstance(stmt, Assign):
            env = _env(fact)
            val = _eval(stmt.expr, env, self.locals)
            if stmt.var in self.locals:
                toks = _expr_taint(stmt.expr, fact, self.locals,
                                   protected)
                return [_set_taint(fact, stmt.var, toks, env, val)]
            # Write to a named shared variable.
            token = ("v", stmt.var)
            locks = fact.locks
            if in_atomic and val == frozenset({1}):
                locks = locks | {token}  # cas-spin success arm
            elif val == frozenset({0}):
                locks = locks - {token}  # unlock_var
            elif not protected:
                if token in _expr_taint(stmt.expr, fact, self.locals,
                                        protected):
                    self.fire(token, stmt)
            return [Fact(env=fact.env, locks=locks, taints=fact.taints)]
        if isinstance(stmt, Load):
            token = _addr_token(stmt.addr)
            toks = frozenset() if (protected or token is None) \
                else frozenset({token})
            env = _env(fact)
            return [_set_taint(fact, stmt.var, toks, env, None)]
        if isinstance(stmt, Store):
            token = _addr_token(stmt.addr)
            if token is None:
                return [fact]
            env = _env(fact)
            val = _eval(stmt.expr, env, self.locals)
            locks = fact.locks
            if in_atomic and val == frozenset({1}):
                locks = locks | {token}  # lock_cell success arm
            elif val == frozenset({0}):
                locks = locks - {token}  # unlock_cell
            elif not protected:
                if token in _expr_taint(stmt.expr, fact, self.locals,
                                        protected):
                    self.fire(token, stmt)
            return [Fact(env=fact.env, locks=locks, taints=fact.taints)]
        if isinstance(stmt, (Alloc, NondetChoice)):
            env = _env(fact)
            return [_set_taint(fact, stmt.var, frozenset(), env, None)]
        if isinstance(stmt, Assume):
            return _refine(fact, stmt.cond, True, self.locals)
        return [fact]


def lint_races(impl) -> List[Diagnostic]:
    """All race diagnostics for one plain :class:`ObjectImpl`."""

    shared = {k for k in impl.initial_memory if isinstance(k, str)}
    sink: List[Diagnostic] = []
    seen: Set[tuple] = set()
    for mdef in impl.methods.values():
        locals_ = method_locals(mdef) - shared
        runner = _MethodRaces(mdef.name, locals_, sink, seen)
        cfg = build_cfg(mdef.body)
        init_env = {v: frozenset({0}) for v in mdef.locals
                    if v not in (mdef.param, "cid")}
        init = Fact(env=_pack(init_env), locks=frozenset(),
                    taints=frozenset())
        solve_disjunctive(cfg, [init], runner.transfer, widen=_widen)
    return sink
