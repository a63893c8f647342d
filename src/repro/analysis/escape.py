"""Field-sensitive escape/ownership analysis for the reductions.

The coarse scan in :mod:`repro.reduce.eligibility` folds *every*
dereferenced ``v + c`` into one global ``max_offset``.  That is exactly
wrong for the HSY elimination stack: its collision array lives at the
static cells ``LOC_BASE + tid`` (60 + 1, 60 + 2, ...), so the literal 60
becomes the program-wide offset, ``max_offset >= SYM_STRIDE`` knocks out
symmetry, the dense allocator is used, and the ownership closure
``[root, root + 60]`` swallows every block — POR never prunes a thing.

This pass re-derives the two facts the ownership analysis actually
needs, per *dereference site* instead of per program:

* ``field_offset`` — the largest offset added to a pointer whose value
  is statically **unbounded** (an allocation result or a heap load).
  Only those offsets describe how far into an allocated *record* the
  code can reach, so only those belong in the reachability closure.
* ``static_cells`` — the concrete addresses reachable from dereferences
  whose base is statically **bounded** (a set of known constants, e.g.
  ``loc_slot(cid) = 60 + cid`` with ``cid ∈ {1..n}``).  These are fixed
  shared roots, reported exactly; they never widen the per-record reach.

The value analysis is a plain constant-set abstract interpretation over
the method CFGs (:func:`repro.analysis.dataflow.solve_lattice`): locals
start at ``{0}``, ``cid`` is seeded with the thread ids, the method
parameter with the literal arguments the clients pass, and anything
loaded, allocated, or read from shared state is unbounded (``TOP``).
The domain is finite (sets capped at :data:`VAL_CAP`), so the fixpoint
terminates.

Programs using computed values/addresses are outside the pure-move
regime and the reductions are off anyway; :func:`analyze_escape` then
reports ``ok=False`` and callers keep the coarse answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple
from weakref import WeakKeyDictionary

from ..lang.ast import (
    Alloc,
    Assign,
    Assume,
    BinOp,
    Call,
    Const,
    Dispose,
    Expr,
    Load,
    NondetChoice,
    Store,
    UnOp,
    Var,
)
from ..lang.walk import iter_stmts
from .cfg import ASSUME, CFG, Edge, build_cfg
from .dataflow import solve_lattice

#: Cap on the size of a bounded value set; larger sets widen to TOP.
VAL_CAP = 8

#: ``None`` is TOP (statically unbounded value).
AbsVal = Optional[FrozenSet[int]]

#: Abstract environment: var -> bounded value set; absent means TOP.
AbsEnv = Tuple[Tuple[str, FrozenSet[int]], ...]

#: Addresses above this are never static shared roots (they collide with
#: the sparse-allocator range); a bounded base reaching that high is
#: treated as unbounded instead.
_STATIC_LIMIT = 1 << 16


@dataclass(frozen=True)
class DerefSite:
    """One classified dereference (Load/Store/Dispose address)."""

    method: str
    kind: str              # "load" | "store" | "dispose"
    addr: str              # rendered address expression
    bounded: bool          # base was statically bounded
    cells: FrozenSet[int]  # concrete addresses when bounded
    offset: int            # field offset contributed when unbounded


@dataclass(frozen=True)
class EscapeInfo:
    """Per-program result of the field-sensitive analysis."""

    ok: bool                      # every method dereference was classified
    field_offset: int             # per-record reach of unbounded pointers
    static_cells: FrozenSet[int]  # exact shared roots from bounded bases
    sites: Tuple[DerefSite, ...]  # per-site classification, for reports
    reason: str = ""              # why ok=False, when it is


def _env_get(env: Dict[str, AbsVal], var: str,
             shared: FrozenSet[str]) -> AbsVal:
    if var in shared:
        return None
    return env.get(var, None)


def _eval(expr: Expr, env: Dict[str, AbsVal],
          shared: FrozenSet[str]) -> AbsVal:
    if isinstance(expr, Const):
        return frozenset({expr.value}) if isinstance(expr.value, int) \
            else None
    if isinstance(expr, Var):
        return _env_get(env, expr.name, shared)
    if isinstance(expr, BinOp):
        left = _eval(expr.left, env, shared)
        right = _eval(expr.right, env, shared)
        if left is None or right is None:
            return None
        if expr.op == "+":
            out = {a + b for a in left for b in right}
        elif expr.op == "-":
            out = {a - b for a in left for b in right}
        elif expr.op == "*":
            out = {a * b for a in left for b in right}
        else:
            return None
        return frozenset(out) if len(out) <= VAL_CAP else None
    if isinstance(expr, UnOp) and expr.op == "-":
        val = _eval(expr.operand, env, shared)
        if val is None or len(val) > VAL_CAP:
            return None
        return frozenset({-v for v in val})
    return None


def _join_val(a: AbsVal, b: AbsVal) -> AbsVal:
    if a is None or b is None:
        return None
    out = a | b
    return out if len(out) <= VAL_CAP else None


def _join_env(a: Dict[str, AbsVal], b: Dict[str, AbsVal]) \
        -> Dict[str, AbsVal]:
    out: Dict[str, AbsVal] = {}
    for var in a.keys() & b.keys():
        val = _join_val(a[var], b[var])
        if val is not None:
            out[var] = val
    return out


def _transfer(edge: Edge, env: Dict[str, AbsVal],
              shared: FrozenSet[str]) -> Optional[Dict[str, AbsVal]]:
    if edge.kind == ASSUME:
        return env  # guards only observe; no refinement needed here
    stmt = edge.stmt
    if isinstance(stmt, Assign):
        val = _eval(stmt.expr, env, shared)
        out = dict(env)
        if val is None:
            out.pop(stmt.var, None)
        else:
            out[stmt.var] = val
        return out
    if isinstance(stmt, (Load, Alloc)):
        out = dict(env)
        out.pop(stmt.var, None)  # heap values / fresh addresses: TOP
        return out
    if isinstance(stmt, NondetChoice):
        val: AbsVal = frozenset()
        for choice in stmt.choices:
            val = _join_val(val, _eval(choice, env, shared))
            if val is None:
                break
        out = dict(env)
        if val is None:
            out.pop(stmt.var, None)
        else:
            out[stmt.var] = val
        return out
    if isinstance(stmt, Assume):
        return env
    # Store/Dispose/Return/Print/Skip and the rest leave locals alone.
    return env


def _classify_addr(addr: Expr, env: Dict[str, AbsVal],
                   shared: FrozenSet[str]) \
        -> Optional[Tuple[bool, FrozenSet[int], int]]:
    """``(bounded, cells, offset)`` for one address, None if non-offset."""

    base, offset = addr, 0
    if isinstance(addr, BinOp) and addr.op == "+":
        left, right = addr.left, addr.right
        if isinstance(left, Const) and isinstance(right, Var):
            left, right = right, left
        if isinstance(left, Var) and isinstance(right, Const) \
                and isinstance(right.value, int) and right.value >= 0:
            base, offset = left, right.value
    if isinstance(base, Const):
        if not isinstance(base.value, int):
            return None
        return True, frozenset({base.value + offset}), 0
    if not isinstance(base, Var):
        return None  # non-offset addressing: outside the regime
    val = _eval(base, env, shared)
    if val is not None and all(0 <= v + offset < _STATIC_LIMIT
                               for v in val):
        return True, frozenset(v + offset for v in val), 0
    return False, frozenset(), offset


def _client_call_args(clients) -> Dict[str, AbsVal]:
    """Literal arguments each method receives from the clients."""

    args: Dict[str, AbsVal] = {}
    for client in clients:
        for stmt in iter_stmts(client):
            if not isinstance(stmt, Call):
                continue
            cur = args.get(stmt.method, frozenset())
            if stmt.arg is None:
                args[stmt.method] = _join_val(cur, frozenset({0}))
            elif isinstance(stmt.arg, Const) \
                    and isinstance(stmt.arg.value, int):
                args[stmt.method] = _join_val(
                    cur, frozenset({stmt.arg.value}))
            else:
                args[stmt.method] = None
    return args


_ESCAPE_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


def analyze_escape(program) -> EscapeInfo:
    """Field-sensitive dereference classification for ``program``.

    Requires the pure-move / offset-addressing regime the reductions
    already demand (callers should check :func:`scan_program` first);
    unknown statements — e.g. instrumentation commands — just leave
    locals untouched here, but a non-offset address yields ``ok=False``.
    """

    try:
        cached = _ESCAPE_CACHE.get(program)
    except TypeError:
        cached = None
    if cached is not None:
        return cached

    impl = program.object_impl
    shared = frozenset(k for k in impl.initial_memory if isinstance(k, str))
    n_threads = len(program.clients)
    call_args = _client_call_args(program.clients)

    sites: List[DerefSite] = []
    field_offset = 0
    static_cells: set = set()
    ok = True
    reason = ""

    for mdef in impl.methods.values():
        cfg = build_cfg(mdef.body)
        env0: Dict[str, AbsVal] = {v: frozenset({0}) for v in mdef.locals}
        env0["cid"] = frozenset(range(1, n_threads + 1))
        param_val = call_args.get(mdef.name, frozenset({0}))
        if param_val is not None:
            env0[mdef.param] = param_val

        def transfer(edge, env, _shared=shared):
            return _transfer(edge, env, _shared)

        try:
            states = solve_lattice(cfg, env0, transfer, _join_env)
        except RuntimeError:
            ok, reason = False, f"value analysis diverged in {mdef.name}"
            break

        for edge in cfg.edges:
            stmt = edge.stmt
            if isinstance(stmt, Load):
                kind, addr = "load", stmt.addr
            elif isinstance(stmt, Store):
                kind, addr = "store", stmt.addr
            elif isinstance(stmt, Dispose):
                kind, addr = "dispose", stmt.addr
            else:
                continue
            env = states.get(edge.src)
            if env is None:
                continue  # unreachable dereference
            classified = _classify_addr(addr, env, shared)
            if classified is None:
                ok = False
                reason = reason or (f"non-offset address in "
                                    f"{mdef.name}: {addr}")
                continue
            bounded, cells, offset = classified
            sites.append(DerefSite(mdef.name, kind, str(addr),
                                   bounded, cells, offset))
            if bounded:
                static_cells.update(cells)
            else:
                field_offset = max(field_offset, offset)
        if not ok:
            break

    result = EscapeInfo(ok=ok, field_offset=field_offset,
                        static_cells=frozenset(static_cells),
                        sites=tuple(sites), reason=reason)
    try:
        _ESCAPE_CACHE[program] = result
    except TypeError:
        pass
    return result
