"""Static eligibility scan for the reductions.

Both reductions rest on one syntactic regime, checked once per program:

* **pure moves** — every value-producing expression (assignment and
  store right-hand sides, allocation initializers, return values, call
  arguments, print arguments, nondeterministic choices) is a variable or
  a literal constant.  Then a value held by a thread is either a program
  constant, an allocation result, or something loaded from the heap —
  values are *moved*, never *computed*, so address values can be traced
  by reachability and renamed by a permutation without breaking any
  arithmetic relationship (there is none).
* **offset-only addressing** — every dereferenced address expression is
  ``v``, ``c`` or ``v + c`` with ``c ≥ 0`` a literal field offset, so
  the cells a pointer can reach are exactly ``[v, v + max_offset]``.

Programs outside the regime (packed pointers ``2p+1`` in CCAS/RDCSS,
``mark_pack`` in the Harris-Michael list, version arithmetic in the pair
snapshot) silently degrade: partial-order reduction and symmetry switch
off for them and exploration is exactly the unreduced one.  Guard
conditions (``Cmp``/``Not``/``And``/``Or``) are unrestricted: they only
observe values.  Order comparisons (``<`` etc.) between *pointers* would
be unsound under renaming; no registry algorithm compares pointers for
order, and the engine-equivalence suite (reduced vs. unreduced on all
12 algorithms) is the executable check of that precondition.

The scan also collects:

* ``max_offset`` — the largest literal field offset, bounding pointer
  reach for the ownership analysis;
* ``value_consts`` — every literal that can *become a value* (appear on
  the right of a move).  These are reachability roots: a program may
  conjure a static address out of a constant (``t := 3; [t] := v``), so
  constants must count as globally shared.  Offsets and guard literals
  cannot become values under the pure-move regime and are excluded.

Symmetry additionally requires no ``Dispose`` (freed blocks would leave
dangling permutation targets) and records the largest allocation, which
must fit the sparse-allocator stride.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple
from weakref import WeakKeyDictionary

from ..lang.ast import (
    Alloc,
    And,
    Assign,
    Assume,
    Atomic,
    BConst,
    BinOp,
    BoolExpr,
    Call,
    Cmp,
    Const,
    Dispose,
    Expr,
    If,
    Load,
    NondetChoice,
    Noret,
    Not,
    Or,
    Print,
    Return,
    Seq,
    Skip,
    Stmt,
    Store,
    UnOp,
    Var,
    While,
)


@dataclass(frozen=True)
class Eligibility:
    """What the scan concluded about one program."""

    por: bool            # partial-order reduction is sound
    sym: bool            # address-symmetry canonicalization is sound
    max_offset: int      # largest field offset counted for pointer reach
    max_alloc: int       # largest allocation size (cells), 0 if none
    value_consts: FrozenSet[int]  # literals that can become values
    reasons: Tuple[str, ...] = ()  # every disqualifying construct found
    has_dispose: bool = False      # program frees memory somewhere

    @property
    def reason(self) -> str:
        """All recorded reasons, joined — legacy single-string view."""

        return "; ".join(self.reasons)


class _Scan:
    def __init__(self) -> None:
        self.pure_moves = True
        self.offset_addrs = True
        self.has_dispose = False
        self.max_offset = 0
        self.max_alloc = 0
        self.consts = set()
        self.reasons: List[str] = []

    def _fail(self, flag: str, why: str) -> None:
        if why and why not in self.reasons:
            self.reasons.append(why)
        if flag == "moves":
            self.pure_moves = False
        else:
            self.offset_addrs = False

    def value_expr(self, expr: Expr) -> None:
        """An expression whose result becomes a first-class value."""

        if isinstance(expr, Const):
            self.consts.add(expr.value)
        elif not isinstance(expr, Var):
            self._fail("moves", f"computed value: {expr!r}")

    def addr_expr(self, expr: Expr) -> None:
        """An expression used as a dereferenced address."""

        if isinstance(expr, Var):
            return
        if isinstance(expr, Const):
            # A literal address is a shared root, like any value literal.
            self.consts.add(expr.value)
            return
        if isinstance(expr, BinOp) and expr.op == "+":
            left, right = expr.left, expr.right
            if isinstance(left, Const) and isinstance(right, Var):
                left, right = right, left
            if isinstance(left, Var) and isinstance(right, Const) \
                    and isinstance(right.value, int) and right.value >= 0:
                self.max_offset = max(self.max_offset, right.value)
                return
        self._fail("addr", f"non-offset address: {expr!r}")

    def stmt(self, s: Stmt) -> None:
        if isinstance(s, (Skip, Noret)):
            return
        if isinstance(s, Assign):
            self.value_expr(s.expr)
        elif isinstance(s, Load):
            self.addr_expr(s.addr)
        elif isinstance(s, Store):
            self.addr_expr(s.addr)
            self.value_expr(s.expr)
        elif isinstance(s, Alloc):
            self.max_alloc = max(self.max_alloc, max(len(s.inits), 1))
            for init in s.inits:
                self.value_expr(init)
        elif isinstance(s, Dispose):
            self.has_dispose = True
            self.addr_expr(s.addr)
        elif isinstance(s, Assume):
            pass  # guards only observe values
        elif isinstance(s, NondetChoice):
            for choice in s.choices:
                self.value_expr(choice)
        elif isinstance(s, Seq):
            for sub in s.stmts:
                self.stmt(sub)
        elif isinstance(s, If):
            self.stmt(s.then)
            self.stmt(s.els)
        elif isinstance(s, While):
            self.stmt(s.body)
        elif isinstance(s, Atomic):
            self.stmt(s.body)
        elif isinstance(s, Return):
            self.value_expr(s.expr)
        elif isinstance(s, Call):
            if s.arg is not None:
                self.value_expr(s.arg)
        elif isinstance(s, Print):
            self.value_expr(s.expr)
        else:
            # Unknown statement kind (e.g. instrumentation commands):
            # assume nothing, reduce nothing.
            self._fail("moves", f"unanalyzed statement: {type(s).__name__}")
            self._fail("addr", "")


_SCAN_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


def scan_program(program, field_sensitive: bool = True) -> Eligibility:
    """Scan every statement of ``program`` (clients and method bodies).

    With ``field_sensitive`` (the default) the coarse verdict is
    refined by :func:`repro.analysis.escape.analyze_escape`: the
    program-wide ``max_offset`` is replaced by the per-record field
    reach of statically *unbounded* pointers, and the concrete cells
    reachable through statically *bounded* bases join ``value_consts``
    as exact shared roots.  Freed blocks are then handled by the
    allocator quarantine, so ``Dispose`` no longer disqualifies
    symmetry.  ``field_sensitive=False`` is the pre-refinement verdict,
    kept as the reference the escape analysis is tested against.
    """

    try:
        cached = _SCAN_CACHE.get(program)
    except TypeError:
        cached = None
    if cached is not None and field_sensitive in cached:
        return cached[field_sensitive]

    from ..reduce.symmetry import SYM_BASE, SYM_STRIDE

    scan = _Scan()
    for client in program.clients:
        scan.stmt(client)
    for method in program.object_impl.methods.values():
        scan.stmt(method.body)

    por = scan.pure_moves and scan.offset_addrs
    reasons = list(scan.reasons)
    max_offset = scan.max_offset
    value_consts = {v for v in scan.consts if isinstance(v, int)}

    dispose_ok = not scan.has_dispose
    if por and field_sensitive:
        from ..analysis.escape import analyze_escape

        esc = analyze_escape(program)
        if esc.ok:
            max_offset = esc.field_offset
            value_consts |= esc.static_cells
            # Freed sparse blocks are quarantined by the allocator, so
            # dispose is compatible with the symmetry renaming.
            dispose_ok = True
        elif esc.reason:
            reasons.append(f"field-sensitive refinement off: {esc.reason}")

    # A literal ≥ SYM_BASE could name a sparse block without appearing in
    # any store, defeating both the renaming and the reachability-based
    # garbage collection — so symmetry also demands small literals.
    sym = por and dispose_ok and scan.max_alloc <= SYM_STRIDE \
        and max_offset < SYM_STRIDE \
        and all(abs(v) < SYM_BASE for v in value_consts)
    if por and not sym:
        if not dispose_ok:
            reasons.append("dispose without quarantine")
        if scan.max_alloc > SYM_STRIDE:
            reasons.append(
                f"record of {scan.max_alloc} cells exceeds the "
                f"allocator stride {SYM_STRIDE}")
        if max_offset >= SYM_STRIDE:
            reasons.append(
                f"field offset {max_offset} exceeds the allocator "
                f"stride {SYM_STRIDE}")
        if any(abs(v) >= SYM_BASE for v in value_consts):
            reasons.append("literal collides with the sparse address "
                           "range")
        if len(reasons) == len(scan.reasons):
            reasons.append("dispose or oversized record")
    # Canonically sorted: the scan collects reasons in visit order,
    # which is an implementation accident — baselines and memo keys
    # must not churn when the traversal changes.
    result = Eligibility(
        por=por,
        sym=sym,
        max_offset=max_offset,
        max_alloc=scan.max_alloc,
        value_consts=frozenset(value_consts),
        reasons=tuple(sorted(set(reasons))),
        has_dispose=scan.has_dispose,
    )
    try:
        cache = _SCAN_CACHE.setdefault(program, {})
        cache[field_sensitive] = result
    except TypeError:
        pass
    return result


# ---------------------------------------------------------------------------
# Thread-identity symmetry
# ---------------------------------------------------------------------------

#: Client statements incompatible with the canonical thread rotation.
#: Heap access is banned because client-held addresses would have to be
#: renamed per-thread; ``Atomic``/``Assume`` are banned because they let
#: a client take a *visible* step that emits no event, breaking the
#: invariant that an event-free thread is still in its initial state.
_TSYM_BANNED_CLIENT = (Load, Store, Alloc, Dispose, Atomic, Assume)


@dataclass(frozen=True)
class ThreadSymmetry:
    """Whether thread identities are interchangeable, and how.

    ``ok`` means: the clients are pairwise isomorphic up to a positional
    renaming of their (private) variables, heap-free with every visible
    step emitting an event, the object code never observes the calling
    thread's identity (the implicit ``cid`` frame local), and the
    initial client memory is symmetric under the renaming.  Under those
    conditions every permutation of thread identities is a program
    automorphism: it maps executions to executions and traces to
    thread-renamed traces, so exploration may keep one canonical
    representative per orbit and close the recorded trace sets under
    ``Sym(n)`` at the end.

    ``var_maps[t-1]`` renames client ``t``'s variables into client 1's
    namespace (the canonical one); ``inv_maps[u-1]`` maps canonical
    names back out to client ``u``.  ``node_tables[t-1]`` is the
    pre-order enumeration of client ``t``'s statement nodes;
    corresponding indices are isomorphic nodes, which is how a control
    stack is re-expressed as another client's code.
    """

    ok: bool
    reasons: Tuple[str, ...] = ()
    var_maps: Tuple[Dict[str, str], ...] = ()
    inv_maps: Tuple[Dict[str, str], ...] = ()
    node_tables: Tuple[Tuple[Stmt, ...], ...] = ()


def _enum_nodes(stmt: Stmt) -> List[Stmt]:
    """Pre-order enumeration of a statement tree's nodes."""

    out: List[Stmt] = []
    stack = [stmt]
    while stack:
        s = stack.pop()
        out.append(s)
        if isinstance(s, Seq):
            stack.extend(reversed(s.stmts))
        elif isinstance(s, If):
            stack.append(s.els)
            stack.append(s.then)
        elif isinstance(s, While):
            stack.append(s.body)
        elif isinstance(s, Atomic):
            stack.append(s.body)
    return out


def _node_names(s: Stmt, out: Set[str]) -> None:
    """Variable names a single node mentions (binders and uses)."""

    if isinstance(s, Assign):
        out.add(s.var)
        out.update(s.expr.free_vars())
    elif isinstance(s, Load):
        out.add(s.var)
        out.update(s.addr.free_vars())
    elif isinstance(s, Store):
        out.update(s.addr.free_vars())
        out.update(s.expr.free_vars())
    elif isinstance(s, Alloc):
        out.add(s.var)
        for init in s.inits:
            out.update(init.free_vars())
    elif isinstance(s, Dispose):
        out.update(s.addr.free_vars())
    elif isinstance(s, Assume):
        out.update(s.cond.free_vars())
    elif isinstance(s, NondetChoice):
        out.add(s.var)
        for choice in s.choices:
            out.update(choice.free_vars())
    elif isinstance(s, (If, While)):
        out.update(s.cond.free_vars())
    elif isinstance(s, Return):
        out.update(s.expr.free_vars())
    elif isinstance(s, Print):
        out.update(s.expr.free_vars())
    elif isinstance(s, Call):
        if s.var:
            out.add(s.var)
        if s.arg is not None:
            out.update(s.arg.free_vars())


def _stmt_vars(stmt: Stmt) -> Set[str]:
    out: Set[str] = set()
    for node in _enum_nodes(stmt):
        _node_names(node, out)
    return out


class _IsoMismatch(Exception):
    """Two client bodies failed the lockstep isomorphism check."""


class _Lockstep:
    """Structural isomorphism of two statement trees, accumulating a
    positional variable bijection (left tree's names → right tree's)."""

    def __init__(self) -> None:
        self.fwd: Dict[str, str] = {}
        self.bwd: Dict[str, str] = {}

    def bind(self, a: str, b: str) -> None:
        # The empty name (a discarded call result) is fixed, never mapped.
        if (a == "") != (b == ""):
            raise _IsoMismatch("return-variable presence differs")
        if a == "":
            return
        prev = self.fwd.get(a)
        if prev is None:
            if b in self.bwd:
                raise _IsoMismatch(
                    f"variable bijection not injective at {b!r}")
            self.fwd[a] = b
            self.bwd[b] = a
        elif prev != b:
            raise _IsoMismatch(
                f"variable {a!r} maps to both {prev!r} and {b!r}")

    def expr(self, a: Expr, b: Expr) -> None:
        if type(a) is not type(b):
            raise _IsoMismatch(f"expression shapes differ: {a} vs {b}")
        if isinstance(a, Const):
            if a.value != b.value:
                raise _IsoMismatch(f"constants differ: {a} vs {b}")
        elif isinstance(a, Var):
            self.bind(a.name, b.name)
        elif isinstance(a, BinOp):
            if a.op != b.op:
                raise _IsoMismatch(f"operators differ: {a} vs {b}")
            self.expr(a.left, b.left)
            self.expr(a.right, b.right)
        elif isinstance(a, UnOp):
            if a.op != b.op:
                raise _IsoMismatch(f"operators differ: {a} vs {b}")
            self.expr(a.operand, b.operand)
        else:
            raise _IsoMismatch(
                f"unanalyzed expression: {type(a).__name__}")

    def bexpr(self, a: BoolExpr, b: BoolExpr) -> None:
        if type(a) is not type(b):
            raise _IsoMismatch(f"guard shapes differ: {a} vs {b}")
        if isinstance(a, BConst):
            if a.value != b.value:
                raise _IsoMismatch(f"guards differ: {a} vs {b}")
        elif isinstance(a, Cmp):
            if a.op != b.op:
                raise _IsoMismatch(f"comparisons differ: {a} vs {b}")
            self.expr(a.left, b.left)
            self.expr(a.right, b.right)
        elif isinstance(a, Not):
            self.bexpr(a.operand, b.operand)
        elif isinstance(a, (And, Or)):
            self.bexpr(a.left, b.left)
            self.bexpr(a.right, b.right)
        else:
            raise _IsoMismatch(f"unanalyzed guard: {type(a).__name__}")

    def stmt(self, a: Stmt, b: Stmt) -> None:
        if type(a) is not type(b):
            raise _IsoMismatch(
                f"statement shapes differ: {type(a).__name__} vs "
                f"{type(b).__name__}")
        if isinstance(a, (Skip, Noret)):
            return
        if isinstance(a, Assign):
            self.bind(a.var, b.var)
            self.expr(a.expr, b.expr)
        elif isinstance(a, Load):
            self.bind(a.var, b.var)
            self.expr(a.addr, b.addr)
        elif isinstance(a, Store):
            self.expr(a.addr, b.addr)
            self.expr(a.expr, b.expr)
        elif isinstance(a, Alloc):
            self.bind(a.var, b.var)
            if len(a.inits) != len(b.inits):
                raise _IsoMismatch("allocation sizes differ")
            for x, y in zip(a.inits, b.inits):
                self.expr(x, y)
        elif isinstance(a, Dispose):
            self.expr(a.addr, b.addr)
        elif isinstance(a, Assume):
            self.bexpr(a.cond, b.cond)
        elif isinstance(a, NondetChoice):
            self.bind(a.var, b.var)
            if len(a.choices) != len(b.choices):
                raise _IsoMismatch("nondet ranges differ")
            for x, y in zip(a.choices, b.choices):
                self.expr(x, y)
        elif isinstance(a, Seq):
            if len(a.stmts) != len(b.stmts):
                raise _IsoMismatch("sequence lengths differ")
            for x, y in zip(a.stmts, b.stmts):
                self.stmt(x, y)
        elif isinstance(a, If):
            self.bexpr(a.cond, b.cond)
            self.stmt(a.then, b.then)
            self.stmt(a.els, b.els)
        elif isinstance(a, While):
            self.bexpr(a.cond, b.cond)
            self.stmt(a.body, b.body)
        elif isinstance(a, Atomic):
            self.stmt(a.body, b.body)
        elif isinstance(a, Return):
            self.expr(a.expr, b.expr)
        elif isinstance(a, Call):
            if a.method != b.method:
                raise _IsoMismatch(
                    f"methods differ: {a.method} vs {b.method}")
            self.bind(a.var, b.var)
            if (a.arg is None) != (b.arg is None):
                raise _IsoMismatch("argument presence differs")
            if a.arg is not None:
                self.expr(a.arg, b.arg)
        elif isinstance(a, Print):
            self.expr(a.expr, b.expr)
        else:
            raise _IsoMismatch(
                f"unanalyzed statement: {type(a).__name__}")


_TSYM_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


def scan_thread_symmetry(program) -> ThreadSymmetry:
    """Decide thread-identity symmetry for ``program`` (cached)."""

    try:
        cached = _TSYM_CACHE.get(program)
    except TypeError:
        cached = None
    if cached is not None:
        return cached

    reasons: List[str] = []
    clients = program.clients
    if len(clients) < 2:
        reasons.append("fewer than two client threads")
    if not program.private_client_vars:
        reasons.append("client variables not declared private")

    for idx, client in enumerate(clients, 1):
        for node in _enum_nodes(client):
            if isinstance(node, _TSYM_BANNED_CLIENT):
                reasons.append(
                    f"client {idx} uses {type(node).__name__}: clients "
                    f"must be heap-free with every visible step "
                    f"emitting an event")
                break

    # The object code must not observe the caller's identity.  ``cid``
    # is the implicit thread-id local every frame binds; any mention of
    # the name in a method (read, write, declaration) breaks the
    # permutation-automorphism argument.
    for name in sorted(program.object_impl.methods):
        mdef = program.object_impl.methods[name]
        if mdef.param == "cid" or "cid" in mdef.locals:
            reasons.append(f"method {name} declares 'cid'")
        elif "cid" in _stmt_vars(mdef.body):
            reasons.append(f"method {name} mentions the thread id 'cid'")

    var_maps: List[Dict[str, str]] = []
    inv_maps: List[Dict[str, str]] = []
    if clients:
        base_vars = _stmt_vars(clients[0])
        ident = {v: v for v in base_vars}
        var_maps.append(ident)
        inv_maps.append(dict(ident))
        for idx, client in enumerate(clients[1:], 2):
            iso = _Lockstep()
            try:
                iso.stmt(client, clients[0])
            except _IsoMismatch as exc:
                reasons.append(
                    f"client {idx} is not isomorphic to client 1: {exc}")
                break
            var_maps.append(iso.fwd)
            inv_maps.append(iso.bwd)

    if not reasons and len(var_maps) == len(clients):
        # Initial client memory must be symmetric: every key owned by
        # exactly one client, with per-client projections corresponding
        # (same values) under the variable bijections.
        init = dict(program.initial_client_memory)
        owner_sets = [_stmt_vars(c) for c in clients]
        for key in sorted(init):
            owners = [t for t, vs in enumerate(owner_sets, 1)
                      if key in vs]
            if len(owners) != 1:
                reasons.append(
                    f"initial client cell {key!r} not owned by exactly "
                    f"one client")
                continue
            canon = var_maps[owners[0] - 1][key]
            for u in range(1, len(clients) + 1):
                other = inv_maps[u - 1].get(canon)
                if other is None or init.get(other) != init[key]:
                    reasons.append(
                        f"initial client memory asymmetric at {key!r}")
                    break

    ok = not reasons
    result = ThreadSymmetry(
        ok=ok,
        reasons=tuple(sorted(set(reasons))),
        var_maps=tuple(var_maps) if ok else (),
        inv_maps=tuple(inv_maps) if ok else (),
        node_tables=tuple(tuple(_enum_nodes(c)) for c in clients)
        if ok else (),
    )
    try:
        _TSYM_CACHE[program] = result
    except TypeError:
        pass
    return result
