"""Static inference of linearization-point disciplines.

Every registry algorithm so far carries hand-written Fig-7/Fig-11
instrumentation (``linself``/``lin(E)``/``trylinself``/``commit``) at
its linearization points.  This pass recovers the LP *discipline* of
each method from the uninstrumented code alone, by recognizing the
synchronization idioms the algorithms are built from (the cas/lock
builder shapes of :mod:`repro.lang.builders`, descriptor encodings,
validated reads) on top of the same structural facts the reduction
eligibility scan and the escape analysis use:

* **fixed** — a unique successful cas (or an atomic write that
  publishes an escaping effect) decides the operation; ``linself``
  lands inside that atomic step;
* **read-only** (conditional) — a validated read commits the operation
  on some paths (empty-pop reads, lock-protected decisions, failed
  cas paths); a guarded ``linself`` lands at the deciding read or
  decision;
* **speculative** — the effect is only validated by a *later* decider
  (version re-reads, head re-validation): ``trylinself`` at the read,
  ``commit`` at the decided branch, a restart ``commit`` when a
  definite LP can still follow a failed speculation;
* **helping** — another thread may execute the operation: elimination
  (``lin(him)``/``lin(cid)`` pairs at a validated descriptor exchange)
  or descriptor completion (``trylin(_did)`` at the decider read,
  ``commit`` at the resolution write), plus the hindsight
  ``trylin_readonly`` hooks for unvalidated read-only traversals.

The result is an :class:`ObjectInference`: a per-method discipline, a
stable list of LP *sites* (for the checked-in ``lp_baseline.json``),
and a private synthesis plan consumed by
:func:`repro.analysis.synth.synthesize_object`, which re-emits the
ghost statements through :mod:`repro.instrument.commands` builders.

Programs outside the recognized fragment come back *uninferable* with
a reason — the Sec-2.4 racy counter (an unsynchronized read-modify-
write) is the pinned negative control.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..assertions.patterns import AbsIs, ThreadDone, ThreadIs, commit_p, pattern
from ..instrument.commands import (
    commit,
    ghost,
    lin,
    linself,
    trylin,
    trylin_readonly,
    trylinself,
)
from ..lang.ast import (
    Alloc,
    And,
    Assign,
    Atomic,
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
    Store,
    Var,
    While,
    seq,
    structural_eq,
)
from ..lang.program import MethodDef, ObjectImpl
from ..lang.walk import CID, defined_var, defined_vars, iter_stmts, \
    seq_items, stmt_vars

#: Discipline lattice, weakest first; an object's discipline is the join
#: (max) over its methods.
DISCIPLINES = ("fixed", "read-only", "speculative", "helping")
_RANK = {d: i for i, d in enumerate(DISCIPLINES)}


class Uninferable(Exception):
    """The program is outside the recognized LP fragment."""


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class LPSite:
    """One inferred linearization-point site (baseline currency)."""

    method: str
    kind: str    # e.g. "cas-success", "publish", "read-decide", ...
    path: str    # stable structural path of the anchor statement
    detail: str = ""

    def key(self) -> str:
        return f"{self.kind}@{self.path}"


@dataclass(frozen=True)
class Action:
    """One synthesis step, anchored on a statement of the *analyzed* body.

    ``op`` placement:

    * ``append``       — inside the anchor's atomic block (wrapping a bare
      primitive into a fresh ``atomic(...)`` when needed);
    * ``before``/``after`` — sequenced around the anchor;
    * ``then-prepend``/``then-append``/``else-append`` — at the entry
      of the anchor ``If``'s then-branch or the exit of either branch;
    * ``loop-end``     — appended to the anchor ``While``'s body.
    """

    node: Stmt
    op: str
    aux: Tuple[Stmt, ...]


@dataclass
class MethodInference:
    method: str
    discipline: str
    sites: Tuple[LPSite, ...] = ()

    def to_json(self) -> dict:
        return {
            "discipline": self.discipline,
            "sites": [s.key() for s in self.sites],
        }


@dataclass
class ObjectInference:
    """Everything the pass has to say about one object."""

    name: str
    ok: bool
    reason: str = ""
    methods: Dict[str, MethodInference] = dc_field(default_factory=dict)
    #: Synthesis plan: anchor statement -> actions (identity-keyed; the
    #: anchors are nodes of the analyzed bodies).
    actions: Dict[Stmt, List[Action]] = dc_field(default_factory=dict)

    @property
    def discipline(self) -> str:
        if not self.ok:
            return "uninferable"
        ranks = [_RANK[m.discipline] for m in self.methods.values()]
        return DISCIPLINES[max(ranks)] if ranks else "fixed"

    def to_json(self) -> dict:
        out: Dict[str, object] = {"discipline": self.discipline}
        if not self.ok:
            out["reason"] = self.reason
            return out
        out["methods"] = {m: self.methods[m].to_json()
                          for m in sorted(self.methods)}
        return out


# ---------------------------------------------------------------------------
# Small structural helpers


def _eq_const(cond: BoolExpr, value: int) -> Optional[str]:
    """``v == value`` with ``v`` a variable -> the variable name."""

    if (isinstance(cond, Cmp) and cond.op == "="
            and isinstance(cond.left, Var)
            and isinstance(cond.right, Const)
            and cond.right.value == value):
        return cond.left.name
    return None


def _loop_exit_var(loop: While) -> Optional[str]:
    return _eq_const(loop.cond, 0)


def _const_of(e: Expr) -> Optional[int]:
    return e.value if isinstance(e, Const) else None


def _sets_exit(s: Stmt, var: Optional[str]) -> bool:
    """``s`` is ``var := 1`` (a loop-exit or success flag set)."""

    return isinstance(s, Assign) and s.var == var \
        and _const_of(s.expr) == 1


def _addr_offset(addr: Expr) -> Optional[Tuple[str, int]]:
    """``Var(b)`` or ``Var(b) + k`` -> (b, k); None otherwise."""

    if isinstance(addr, Var):
        return addr.name, 0
    if (isinstance(addr, BinOp) and addr.op == "+"
            and isinstance(addr.left, Var)
            and isinstance(addr.right, Const)):
        return addr.left.name, addr.right.value
    return None


def _slot_base(addr: Expr) -> Optional[int]:
    if isinstance(addr, BinOp) and addr.op == "+":
        if isinstance(addr.left, Const) and isinstance(addr.right, Var):
            return addr.left.value
        if isinstance(addr.right, Const) and isinstance(addr.left, Var):
            return addr.right.value
    return None


def _is_plain_enc(e: Expr) -> Optional[Expr]:
    """``2*x`` (an untagged value in a descriptor encoding) -> ``x``."""

    if isinstance(e, BinOp) and e.op == "*":
        if _const_of(e.right) == 2:
            return e.left
        if _const_of(e.left) == 2:
            return e.right
    return None


def _is_desc_ptr(e: Expr) -> Optional[Expr]:
    """``2*x + 1`` (a descriptor-tagged pointer) -> the untagged ``x``."""

    if isinstance(e, BinOp) and e.op == "+" and _const_of(e.right) == 1:
        return _is_plain_enc(e.left)
    return None


def _cid_field(alloc: Alloc) -> Optional[int]:
    """The field of ``alloc`` initialized with the caller's thread id."""

    return next((i for i, e in enumerate(alloc.inits)
                 if isinstance(e, Var) and e.name == CID), None)


def _cmp_atoms(cond: BoolExpr) -> Iterable[BoolExpr]:
    if isinstance(cond, (And, Or)):
        yield from _cmp_atoms(cond.left)
        yield from _cmp_atoms(cond.right)
    elif isinstance(cond, Not):
        yield from _cmp_atoms(cond.operand)
    else:
        yield cond


# ---------------------------------------------------------------------------
# Recognized cas shapes (the repro.lang.builders cas_* idioms)


@dataclass
class CasSite:
    atomic: Atomic            # the enclosing atomic block (anchor)
    kind: str                 # "bool" | "val"
    flag: str                 # result variable
    target_var: Optional[str]     # shared variable target, or None
    target_addr: Optional[Expr]   # heap-cell target, or None
    old: Expr
    new: Expr
    if_node: If               # the internal compare branch


def _flag_branches(then_flag: Stmt, els: List[Stmt]) -> bool:
    """``then_flag`` is ``b := 1`` and ``els`` is exactly ``b := 0``."""

    return (isinstance(then_flag, Assign) and _const_of(then_flag.expr) == 1
            and len(els) == 1 and isinstance(els[0], Assign)
            and els[0].var == then_flag.var
            and _const_of(els[0].expr) == 0)


def _is_eq_test(s: Stmt) -> bool:
    return isinstance(s, If) and isinstance(s.cond, Cmp) \
        and s.cond.op == "=" and isinstance(s.cond.left, Var)


def _match_cas(at: Atomic) -> Optional[CasSite]:
    """Recognize the four ``cas_*`` builder shapes (sans instrumentation)."""

    stmts = seq_items(at.body)
    if not stmts:
        return None
    first = stmts[0]
    # bool cas on a variable: If(v == old, (v := new; b := 1), b := 0)
    if _is_eq_test(first):
        then = seq_items(first.then)
        if (len(then) == 2 and isinstance(then[0], Assign)
                and then[0].var == first.cond.left.name
                and _flag_branches(then[1], seq_items(first.els))):
            return CasSite(at, "bool", then[1].var, first.cond.left.name,
                           None, first.cond.right, then[0].expr, first)
    # The other three read the target first: ``r := v`` or ``r :=
    # [addr]``, then compare ``r`` against the expected value.
    if len(stmts) < 2 or not isinstance(first, (Assign, Load)):
        return None
    node = stmts[1]
    if not (_is_eq_test(node) and node.cond.left.name == first.var):
        return None
    then, els = seq_items(node.then), seq_items(node.els)
    if isinstance(first, Load):
        if not (then and isinstance(then[0], Store)
                and structural_eq(then[0].addr, first.addr)):
            return None
        # bool cas on a cell: tmp := [addr]; If(tmp == old, ([addr] :=
        # new; b := 1), b := 0)
        if len(then) == 2 and _flag_branches(then[1], els):
            return CasSite(at, "bool", then[1].var, None, first.addr,
                           node.cond.right, then[0].expr, node)
        # value cas on a cell: r := [addr]; If(r == old, [addr] := new)
        if len(then) == 1 and not els:
            return CasSite(at, "val", first.var, None, first.addr,
                           node.cond.right, then[0].expr, node)
        return None
    # value cas on a variable: r := v; If(r == old, v := new)
    if (isinstance(first.expr, Var) and len(then) == 1
            and isinstance(then[0], Assign)
            and then[0].var == first.expr.name and not els):
        return CasSite(at, "val", first.var, first.expr.name, None,
                       node.cond.right, then[0].expr, node)
    return None


# ---------------------------------------------------------------------------
# Per-statement metadata


@dataclass
class _Node:
    stmt: Stmt
    path: str
    parent: Optional[Stmt]        # structural parent (Seq/If/While/Atomic)
    parent_atomic: Optional[Atomic]
    loops: Tuple[While, ...]
    lock_depth: int
    prev: Optional[Stmt]          # preceding sibling (or enclosing-seq prev)
    index: int                    # preorder index (position in ``order``)


class _MethodScan:
    """One walk of a method body collecting structural metadata."""

    def __init__(self, ctx: "_ObjectContext", mdef: MethodDef):
        self.ctx = ctx
        self.mdef = mdef
        self.nodes: Dict[Stmt, _Node] = {}
        self.order: List[Stmt] = []
        self.cas_sites: Dict[Stmt, CasSite] = {}   # keyed by atomic node
        self.lock_cas: Set[Stmt] = set()           # atomics that are lock acquires
        self.unlocks: Set[Stmt] = set()            # release writes
        self.returns: List[Return] = []
        self._walk(mdef.body, "", None, None, (), 0, None)
        #: locals returned directly
        self.ret_vars = {r.expr.name for r in self.returns
                         if isinstance(r.expr, Var)}

    # -- lock recognition ------------------------------------------------
    def _is_lock_acquire(self, stmts: List[Stmt], i: int) -> Optional[int]:
        """``flag := 0; while flag == 0: cas(flag, X, 0, 1)`` at i -> skip."""

        if not (isinstance(stmts[i], Assign)
                and _const_of(stmts[i].expr) == 0):
            return None
        flag = stmts[i].var
        if i + 1 >= len(stmts) or not isinstance(stmts[i + 1], While):
            return None
        w = stmts[i + 1]
        if _eq_const(w.cond, 0) != flag:
            return None
        body = seq_items(w.body)
        if len(body) != 1 or not isinstance(body[0], Atomic):
            return None
        cas = _match_cas(body[0])
        if (cas is None or cas.kind != "bool" or cas.flag != flag
                or _const_of(cas.old) != 0 or _const_of(cas.new) != 1):
            return None
        # Record the lock target.
        if cas.target_var is not None:
            self.ctx.lock_vars.add(cas.target_var)
        else:
            off = _addr_offset(cas.target_addr)
            if off is not None:
                self.ctx.lock_offsets.add(off[1])
        self.lock_cas.add(body[0])
        return i + 2

    def _is_unlock(self, s: Stmt) -> bool:
        if isinstance(s, Assign) and s.var in self.ctx.lock_vars \
                and _const_of(s.expr) == 0:
            return True
        if isinstance(s, Store) and _const_of(s.expr) == 0:
            off = _addr_offset(s.addr)
            if off is not None and off[1] in self.ctx.lock_offsets:
                return True
        return False

    # -- the walk --------------------------------------------------------
    def _walk(self, s: Stmt, path: str, parent: Optional[Stmt],
              at: Optional[Atomic], loops: Tuple[While, ...], lock: int,
              prev: Optional[Stmt]) -> int:
        """Returns the lock depth after ``s``."""

        self.nodes[s] = _Node(s, path, parent, at, loops, lock, prev,
                              len(self.order))
        self.order.append(s)

        if isinstance(s, Seq):
            stmts = list(s.stmts)
            i = 0
            p: Optional[Stmt] = prev
            while i < len(stmts):
                nxt = self._is_lock_acquire(stmts, i)
                if nxt is not None:
                    for j in range(i, nxt):
                        lock_path = f"{path}/s{j}" if path else f"s{j}"
                        self._walk(stmts[j], lock_path, s, at, loops,
                                   lock, p)
                        p = stmts[j]
                    lock += 1
                    i = nxt
                    continue
                child_path = f"{path}/s{i}" if path else f"s{i}"
                lock = self._walk(stmts[i], child_path, s, at, loops,
                                  lock, p)
                p = stmts[i]
                i += 1
            return lock

        if isinstance(s, Atomic):
            cas = _match_cas(s)
            if cas is not None and s not in self.lock_cas:
                self.cas_sites[s] = cas
            self._walk(s.body, path + "/a", s, s, loops, lock, None)
            return lock
        if isinstance(s, If):
            self._walk(s.then, path + "/t", s, at, loops, lock, None)
            self._walk(s.els, path + "/e", s, at, loops, lock, None)
            return lock
        if isinstance(s, While):
            self._walk(s.body, path + "/w", s, at, loops + (s,), lock,
                       None)
            return lock
        if isinstance(s, Return):
            self.returns.append(s)
            return lock
        if self._is_unlock(s):
            self.unlocks.add(s)
            return max(0, lock - 1)
        return lock


# ---------------------------------------------------------------------------
# Object-level context


class _ObjectContext:
    def __init__(self, impl: ObjectImpl):
        self.impl = impl
        self.lock_vars: Set[str] = set()
        self.lock_offsets: Set[int] = set()
        self.shared_vars: Set[str] = set()
        self.mutated_shared_vars: Set[str] = set()
        self.mutated_offsets: Set[int] = set()
        self.scans: Dict[str, _MethodScan] = {}
        self.ro_help: Tuple[str, ...] = ()
        self.hindsight_methods: Set[str] = set()
        self.desc_info = None  # type: Optional[_DescInfo]

        for name, m in impl.methods.items():
            local = set(m.locals) | {m.param, CID}
            self.shared_vars.update(
                v for v in stmt_vars(m.body) - local
                if not v.startswith("_"))
        for key in impl.initial_memory:
            if isinstance(key, str):
                self.shared_vars.add(key)
        # Two scan rounds so lock targets discovered in any method are
        # known to every method's escape reasoning.
        for _round in (0, 1):
            self.scans = {name: _MethodScan(self, m)
                          for name, m in impl.methods.items()}


# ---------------------------------------------------------------------------
# Per-method value provenance


class _Provenance:
    """Order-sensitive freshness / shared-derivation facts for one method.

    One pass over the statement tree in program order: a loop body is
    walked once and ``then`` before ``else``.  It is deliberately not a
    fixpoint.  Walking each loop body a second time, as any dataflow
    solve does at a back edge, lets a value read late in one iteration
    count as shared-derived at an unsynchronized write early in the
    next; Treiber's and the HSY stack's ``push`` then read as racy
    read-modify-writes and ``cas_stack`` becomes uninferable.  Walking
    ``else`` before ``then`` changes nothing on the registry.

    ``infer_object`` computes it once per method; the inference passes
    only read it.  Building it records the object-wide mutated shared
    variables and field offsets on the context.
    """

    def __init__(self, ctx: _ObjectContext, scan: _MethodScan):
        self.ctx = ctx
        self.scan = scan
        self.fresh: Set[str] = set()       # alloc'd and never published
        self.published: Set[str] = set()
        self.derived: Set[str] = set()     # locals carrying shared-read data
        self.defs: Dict[str, Stmt] = {}    # last definition site
        self.alloc_of: Dict[str, Alloc] = {}
        #: escaping mutations outside recognized cas/lock atomics, in order
        self.mutations: List[Stmt] = []
        self.announces: Set[Stmt] = set()  # descriptor-publish stores
        #: statements inside recognized cas/lock atomics
        self.skip = {s for at in (*scan.cas_sites, *scan.lock_cas)
                     for s in iter_stmts(at) if s is not at}
        self._run(scan.mdef.body)

    def is_fresh_addr(self, addr: Expr) -> bool:
        vars_ = addr.free_vars()
        return bool(vars_) and vars_ <= self.fresh

    def shared_read(self, s: Stmt) -> Optional[str]:
        """If ``s`` reads shared state into a local, the local's name."""

        if isinstance(s, Assign) and (
                s.expr.free_vars() & self.ctx.shared_vars):
            return s.var
        if isinstance(s, Load) and not self.is_fresh_addr(s.addr):
            return s.var
        return None

    def _publish(self, e: Expr) -> None:
        for v in e.free_vars() & self.fresh:
            self.fresh.discard(v)
            self.published.add(v)

    def _run(self, s: Stmt) -> None:
        if s in self.skip:
            return
        if isinstance(s, Seq):
            for c in s.stmts:
                self._run(c)
            return
        if isinstance(s, Atomic):
            cas = self.scan.cas_sites.get(s)
            if cas is not None:
                # The swap publishes whatever the new value roots, and the
                # target itself counts as written shared state (read-fix
                # and hindsight reasoning must not treat it as immutable).
                self._publish(cas.new)
                self.defs[cas.flag] = s
                self.derived.add(cas.flag)
                if cas.target_var is not None:
                    self.ctx.mutated_shared_vars.add(cas.target_var)
                elif cas.target_addr is not None:
                    off = _addr_offset(cas.target_addr)
                    if off is not None:
                        self.ctx.mutated_offsets.add(off[1])
                return
            if s not in self.scan.lock_cas:
                self._run(s.body)
            return
        if isinstance(s, If):
            self._run(s.then)
            self._run(s.els)
            return
        if isinstance(s, While):
            self._run(s.body)
            return
        if isinstance(s, Alloc):
            self.fresh.add(s.var)
            self.alloc_of[s.var] = s
            self.defs[s.var] = s
            self.derived.discard(s.var)
            return
        if isinstance(s, Assign):
            self.defs[s.var] = s
            src = s.expr.free_vars()
            if (src & self.ctx.shared_vars) or (src & self.derived):
                self.derived.add(s.var)
            else:
                self.derived.discard(s.var)
            if s.var in self.ctx.shared_vars:
                self._publish(s.expr)
                if s not in self.scan.unlocks:
                    self.mutations.append(s)
                    self.ctx.mutated_shared_vars.add(s.var)
            return
        if isinstance(s, Load):
            self.defs[s.var] = s
            if self.is_fresh_addr(s.addr):
                self.derived.discard(s.var)
            else:
                self.derived.add(s.var)
            return
        if isinstance(s, Store):
            if s in self.scan.unlocks or self.is_fresh_addr(s.addr):
                return
            # Publishing a cid-carrying descriptor announces an operation;
            # it is not the operation's effect.
            if isinstance(s.expr, Var) and s.expr.name in self.fresh \
                    and _cid_field(self.alloc_of[s.expr.name]) is not None:
                self.announces.add(s)
                self._publish(s.expr)
                return
            self._publish(s.expr)
            self.mutations.append(s)
            off = _addr_offset(s.addr)
            if off is not None:
                self.ctx.mutated_offsets.add(off[1])
            return
        if isinstance(s, NondetChoice):
            self.defs[s.var] = s
            self.derived.discard(s.var)
            return


# ---------------------------------------------------------------------------
# Descriptor layout (ccas/rdcss-style helping)


@dataclass
class _DescInfo:
    id_off: int               # field initialized with cid
    exp_off: int              # field holding the install-expected value
    target: str               # shared variable the descriptor installs into


def _find_desc_info(ctx: _ObjectContext,
                    provs: Dict[str, _Provenance]) -> Optional[_DescInfo]:
    for name, scan in ctx.scans.items():
        prov = provs[name]
        for at, cas in scan.cas_sites.items():
            if cas.kind != "val" or cas.target_var is None:
                continue
            tagged = _is_desc_ptr(cas.new)
            if not isinstance(tagged, Var):
                continue
            alloc = prov.alloc_of.get(tagged.name)
            if alloc is None:
                continue
            id_off = _cid_field(alloc)
            if id_off is None:
                continue
            plain = _is_plain_enc(cas.old)
            exp_off = None
            if plain is not None:
                exp_off = next(
                    (i for i, e in enumerate(alloc.inits)
                     if structural_eq(e, plain)), None)
            if exp_off is None:
                continue
            return _DescInfo(id_off, exp_off, cas.target_var)
    return None


def _id_addr(dd: str, info: _DescInfo) -> Expr:
    if info.id_off == 0:
        return Var(dd)
    return BinOp("+", Var(dd), Const(info.id_off))


_KIND_DISCIPLINE = {
    "cas-success": "fixed",
    "publish": "fixed",
    "rmw": "fixed",
    "read-return": "fixed",
    "read-fix": "fixed",
    "read-decide": "read-only",
    "lock-decide": "read-only",
    "speculate": "speculative",
    "commit": "speculative",
    "restart-commit": "speculative",
    "elim-help": "helping",
    "desc-install": "helping",
    "desc-resolve": "helping",
    "desc-decide": "helping",
    "ro-hook": "helping",
    "commit-return": "helping",
    "hindsight": "helping",
}


# ---------------------------------------------------------------------------
# The per-method inference engine


class _MethodInfer:
    def __init__(self, ctx: _ObjectContext, mdef: MethodDef,
                 prov: _Provenance, sink: Dict[Stmt, List[Action]],
                 probe: bool = False):
        self.ctx = ctx
        self.mdef = mdef
        self.scan = ctx.scans[mdef.name]
        self.prov = prov
        self.sink = sink
        self.probe = probe
        self.sites: List[LPSite] = []
        #: atomics already carrying an LP (cas aux / publish / read aux)
        self.lp_anchors: Set[Stmt] = set()
        #: cas sites that received a success-gated linself
        self.lp_cas: Set[Stmt] = set()
        #: sites claimed by the helping passes (off-limits downstream)
        self.claimed: Set[Stmt] = set()
        #: flags of elimination-machinery cas sites (slot cas group)
        self.elim_flags: Set[str] = set()
        #: constant bases of the elimination slot array (if any)
        self.slot_bases: Set[int] = set()
        #: locals carrying elimination-protocol data or control
        self.elim_taint: Set[str] = set()
        #: retry loops around a speculation (restart-commit anchors)
        self.spec_loops: Set[Stmt] = set()
        self.has_linself = False
        self.has_speculation = False
        #: set by the decision pass: unvalidated lock-free read-only
        #: traversal paths needing the hindsight exemption
        self.hindsight = False
        #: the method can complete without an abstract effect
        self.ro_capable = False

    def run(self) -> MethodInference:
        self._racy_check()
        self._descriptor_pass()
        self._elimination_pass()
        self._cas_pass()
        self._publication_pass(self.mdef.body, False)
        self._decision_pass()
        self._finalize()
        if not self.probe:
            self._hindsight_finalize()
        if not self.sites:
            raise Uninferable(
                f"{self.mdef.name}: no linearization point found")
        rank = max(_RANK[_KIND_DISCIPLINE[s.kind]] for s in self.sites)
        return MethodInference(self.mdef.name, DISCIPLINES[rank],
                               tuple(self.sites))

    # -- plumbing --------------------------------------------------------
    def act(self, node: Stmt, op: str, aux: Sequence[Stmt], kind: str,
            detail: str = "") -> None:
        if not self.probe:
            self.sink.setdefault(node, []).append(
                Action(node, op, tuple(aux)))
        self.site_only(node, kind, detail)

    def site_only(self, node: Stmt, kind: str, detail: str = "") -> None:
        self.sites.append(LPSite(self.mdef.name, kind,
                                 self.scan.nodes[node].path, detail))

    def ro_hooks(self) -> Tuple[Stmt, ...]:
        return tuple(trylin_readonly(m) for m in self.ctx.ro_help)

    def _self_lp_aux(self) -> Tuple[Stmt, ...]:
        """``linself`` plus the hindsight hooks in a hindsight object."""

        self.has_linself = True
        return (linself(),) + self.ro_hooks()

    def _hindsight(self, n: If, refusal: str) -> None:
        """An unvalidated lock-free completion: sound only with the
        hindsight hooks, otherwise the method is refused."""

        if not self._can_hindsight():
            raise Uninferable(f"{self.mdef.name}: {refusal}")
        self.hindsight = True
        self.site_only(n, "hindsight")

    # -- helpers over the scan ------------------------------------------
    def _branch_has_mutation(self, branch: Stmt) -> bool:
        return any(s in self.prov.mutations or s in self.lp_cas
                   or s in self.claimed for s in iter_stmts(branch))

    def _under_guard(self, s: Stmt, names: Set[str]) -> bool:
        """Some ``If`` enclosing ``s`` tests one of ``names``."""

        cur = s
        while cur is not None:
            info = self.scan.nodes.get(cur)
            if info is None:
                return False
            parent = info.parent
            if isinstance(parent, If) and (parent.cond.free_vars() & names):
                return True
            cur = parent
        return False

    def _continuation_stmts(self, node: Stmt) -> List[Stmt]:
        """Statements that execute after ``node`` up to the method's end,
        not crossing an enclosing loop back-edge."""

        out: List[Stmt] = []
        cur = node
        while True:
            info = self.scan.nodes.get(cur)
            if info is None or info.parent is None:
                return out
            parent = info.parent
            if isinstance(parent, Seq):
                out.extend(parent.stmts[parent.stmts.index(cur) + 1:])
            elif isinstance(parent, While):
                return out
            cur = parent

    def _completes(self, if_node: If, branch: Stmt) -> Optional[str]:
        if any(isinstance(s, Return) for s in iter_stmts(branch)):
            return "ret"
        loops = self.scan.nodes[if_node].loops
        if not loops:
            # Straight-line method: completes if nothing after the If
            # mutates.
            if any(t in self.prov.mutations or t in self.scan.cas_sites
                   for s in self._continuation_stmts(if_node)
                   for t in iter_stmts(s)):
                return None
            return "fall"
        exit_var = _loop_exit_var(loops[-1])
        if exit_var is None:
            return None
        if any(_sets_exit(s, exit_var) for s in iter_stmts(branch)):
            return "exit"
        # The branch itself may fall through to an unconditional exit
        # right after the decision (``... ; done := 1`` outside the If) —
        # treat that as completing too, provided nothing on the way
        # performs another effect.
        exits = False
        for s in self._continuation_stmts(if_node):
            if self._branch_has_mutation(s):
                return None
            exits = exits or _sets_exit(s, exit_var)
        return "exit" if exits else None

    def _read_before(self, node: Stmt,
                     conds: Optional[List[BoolExpr]] = None
                     ) -> Optional[Stmt]:
        """The nearest shared read before ``node``, climbing out of
        enclosing sequences and atomic blocks.  With ``conds`` the climb
        also leaves then-branches, prepending each climbed ``If``'s
        condition (so they end up outermost first)."""

        cur = node
        while True:
            prev, probe = self.scan.nodes[cur].prev, cur
            while prev is None:
                parent = self.scan.nodes[probe].parent
                if conds is not None and isinstance(parent, If) and (
                        parent.then is probe
                        or isinstance(parent.then, Seq)
                        and probe in parent.then.stmts):
                    conds.insert(0, parent.cond)
                elif not isinstance(parent, (Seq, Atomic)):
                    return None
                probe = parent
                prev = self.scan.nodes[parent].prev
            if self._as_read(prev) is not None:
                return prev
            cur = prev

    def _as_read(self, s: Stmt) -> Optional[Stmt]:
        """``s`` (or its atomic body's last read) as a shared read stmt."""

        if isinstance(s, Atomic):
            if s in self.scan.cas_sites or s in self.scan.lock_cas:
                return None
            reads = [c for c in iter_stmts(s.body)
                     if self.prov.shared_read(c)]
            return reads[-1] if reads else None
        if self.prov.shared_read(s):
            return s
        return None

    def _cond_reads_shared(self, cond: BoolExpr) -> bool:
        return bool(cond.free_vars() & self.ctx.shared_vars)

    def _defined_between(self, anchor: Stmt, n: Stmt) -> Set[str]:
        sub = set(iter_stmts(anchor))
        ai = self.scan.nodes[anchor].index
        ni = self.scan.nodes[n].index
        return {defined_var(s) for s in self.scan.order[ai + 1:ni]
                if s not in sub} - {None}

    # -- helping: descriptors and elimination ---------------------------
    def _descriptor_pass(self) -> None:
        info = self.ctx.desc_info
        if info is None:
            return
        resolutions = []
        for at, cas in self.scan.cas_sites.items():
            if cas.kind != "val":
                continue
            tagged_new = _is_desc_ptr(cas.new)
            if isinstance(tagged_new, Var) and \
                    tagged_new.name in self.prov.alloc_of:
                # Install cas: r := X; if r == plain(o): X := 2d+1.  The
                # *failed* cas against an untagged (even) value is this
                # thread's LP — nobody will help an operation that never
                # announced itself.
                guard = And(Cmp("!=", Var(cas.flag), cas.old),
                            Cmp("=", BinOp("%", Var(cas.flag), Const(2)),
                                Const(0)))
                self.has_linself = True
                self.act(at, "append", (If(guard, linself(), Skip()),),
                         "desc-install")
                self.claimed.add(at)
                continue
            tagged_old = _is_desc_ptr(cas.old)
            plain_new = _is_plain_enc(cas.new)
            if isinstance(tagged_old, Var) and plain_new is not None:
                dd = tagged_old.name
                # Resolution: s := X; if s == 2dd+1: X := plain(val).  The
                # winning resolver linearizes the descriptor's owner.
                old_local = next(
                    (s.var for s in self.scan.order if isinstance(s, Load)
                     and _addr_offset(s.addr) == (dd, info.exp_off)), None)
                if old_local is None:
                    raise Uninferable(
                        f"{self.mdef.name}: descriptor resolution without "
                        f"a read of the expected-value field")
                constraints = [ThreadDone(Var("_did"), Var(old_local))]
                if cas.target_var is not None and isinstance(plain_new, Var):
                    constraints.append(AbsIs(cas.target_var, plain_new))
                aux = (ghost(Load("_did", _id_addr(dd, info))),
                       commit(commit_p(pattern(*constraints))))
                self.act(cas.if_node, "then-append", aux, "desc-resolve")
                self.claimed.add(at)
                resolutions.append((at, cas, dd))
        if not resolutions:
            return
        # Decider read: the branch between two resolutions is driven by
        # one shared-variable read; the still-installed descriptor's
        # owner is speculatively linearized there.
        res_atoms = {at for at, _, _ in resolutions}
        for n in self.scan.order:
            if not isinstance(n, If) or n in self.prov.skip:
                continue
            then, els = set(iter_stmts(n.then)), set(iter_stmts(n.els))
            if not (then & res_atoms and els & res_atoms):
                continue
            # The speculation is about *this* decider's own descriptor, so
            # take the resolution pair that lives in its branches (inlined
            # helpers can repeat the whole decide/resolve block).
            own = then | els
            at, cas, dd = next((r for r in resolutions if r[0] in own),
                               resolutions[0])
            before = self.scan.order[:self.scan.nodes[n].index]
            reader = None
            for v in sorted(n.cond.free_vars()):
                # Reaching definition: the last def of the flag *before*
                # the decider, not the last def in the whole method.
                best = next((s for s in reversed(before)
                             if defined_var(s) == v), None)
                if isinstance(best, Assign) \
                        and (best.expr.free_vars() & self.ctx.shared_vars):
                    reader = best
                    break
            if reader is None:
                raise Uninferable(
                    f"{self.mdef.name}: descriptor decider branch has no "
                    f"shared-read source")
            anchor = self.scan.nodes[reader].parent_atomic or reader
            aux = (ghost(Load("_did", _id_addr(dd, info))),
                   If(Cmp("=", Var(cas.target_var), cas.old),
                      trylin(Var("_did")), Skip()))
            self.act(anchor, "append", aux, "desc-decide")
            self.claimed.add(anchor)

    def _elimination_pass(self) -> None:
        if not self.prov.announces:
            return
        slot_bases: Set[int] = set()
        own_descs: Set[str] = set()
        for ann in self.prov.announces:
            base = _slot_base(ann.addr)
            if base is not None:
                slot_bases.add(base)
            if isinstance(ann.expr, Var):
                own_descs.add(ann.expr.name)
        if not slot_bases:
            return
        self.slot_bases = slot_bases
        id_off = None
        for d in sorted(own_descs):
            alloc = self.prov.alloc_of.get(d)
            if alloc is not None:
                id_off = _cid_field(alloc)
        # Locals that the method's return value is assembled from: a
        # partner field flowing there means the exchanged value was
        # *grabbed* before the swap, so the partner linearizes first.
        flows: Set[str] = set()
        for r in self.scan.returns:
            flows |= r.expr.free_vars()
        for s in self.scan.order:
            if isinstance(s, Assign) and s.var in self.scan.ret_vars:
                flows |= s.expr.free_vars()
        for at, cas in self.scan.cas_sites.items():
            if cas.kind != "bool" or cas.target_addr is None:
                continue
            if _slot_base(cas.target_addr) not in slot_bases:
                continue
            self.claimed.add(at)
            self.elim_flags.add(cas.flag)
            new_own = isinstance(cas.new, Var) and cas.new.name in own_descs
            old_partner = isinstance(cas.old, Var) \
                and isinstance(self.prov.defs.get(cas.old.name), Load)
            if not (new_own and old_partner):
                continue   # slot close / withdraw: no aux, passive exemption
            partner = cas.old.name
            him = self._partner_tid(partner, id_off)
            if him is None:
                raise Uninferable(
                    f"{self.mdef.name}: elimination exchange without a "
                    f"validated partner thread id")
            grabbed = any(
                off is not None and off[0] == partner and off[1] != id_off
                for off in (_addr_offset(s.addr) for s in self.scan.order
                            if isinstance(s, Load) and s.var in flows))
            order = (him, CID) if grabbed else (CID, him)
            self.has_linself = True
            aux = If(Cmp("=", Var(cas.flag), Const(1)),
                     seq(lin(order[0]), lin(order[1])), Skip())
            self.act(at, "append", (aux,), "elim-help",
                     detail=f"lin({order[0]}),lin({order[1]})")
        # Data/control taint: decisions driven by slot contents or partner
        # descriptors are the *passive* side of an exchange — the partner
        # linearized both operations, so they carry no aux (the Fig-11
        # helping exemption).
        tainted: Set[str] = set()
        for _fixpoint_round in range(4):
            for s in self.scan.order:
                if isinstance(s, Load):
                    off = _addr_offset(s.addr)
                    if _slot_base(s.addr) in self.slot_bases:
                        tainted.add(s.var)
                    elif off is not None and off[0] in tainted:
                        tainted.add(s.var)
                elif isinstance(s, Assign):
                    if (s.expr.free_vars() & tainted) or self._under_guard(
                            s, tainted | self.elim_flags):
                        tainted.add(s.var)
        self.elim_taint = tainted

    def _partner_tid(self, partner: str,
                     id_off: Optional[int]) -> Optional[str]:
        """The local validated against the partner descriptor's id field."""

        if id_off is None:
            return None
        qid = next((s.var for s in self.scan.order if isinstance(s, Load)
                    and _addr_offset(s.addr) == (partner, id_off)), None)
        if qid is None:
            return None
        for s in self.scan.order:
            if not isinstance(s, (If, While)):
                continue
            for c in _cmp_atoms(s.cond):
                if isinstance(c, Cmp) and c.op == "=" \
                        and isinstance(c.left, Var) \
                        and isinstance(c.right, Var):
                    if c.left.name == qid:
                        return c.right.name
                    if c.right.name == qid:
                        return c.left.name
        return None

    # -- fixed: cas successes and publications ---------------------------
    def _cas_pass(self) -> None:
        for at, cas in self.scan.cas_sites.items():
            if cas.kind != "bool" or at in self.claimed:
                continue
            if self._success_completes(at, cas):
                gated = If(Cmp("=", Var(cas.flag), Const(1)),
                           seq(*self._self_lp_aux()), Skip())
                self.act(at, "append", (gated,), "cas-success")
                self.lp_cas.add(at)
                self.lp_anchors.add(at)

    def _success_completes(self, at: Stmt, cas: CasSite) -> bool:
        loops = self.scan.nodes[at].loops
        exit_var = _loop_exit_var(loops[0]) if loops else None
        if exit_var == cas.flag:
            return True
        for n in self.scan.order[self.scan.nodes[at].index + 1:]:
            # Only the *first* observation of the flag counts; once another
            # cas (or plain assignment) redefines it, later ``flag = 1``
            # gates belong to that operation, not this one.
            if n in self.scan.cas_sites \
                    and self.scan.cas_sites[n].flag == cas.flag:
                return False
            if isinstance(n, Assign) and n.var == cas.flag \
                    and n not in self.prov.skip:
                return False
            if isinstance(n, If) and _eq_const(n.cond, 1) == cas.flag:
                return any(
                    isinstance(s, Return) or _sets_exit(s, exit_var)
                    or isinstance(s, Assign) and s.var in self.scan.ret_vars
                    for s in iter_stmts(n.then))
        return False

    def _publication_pass(self, s: Stmt, done: bool) -> bool:
        """Returns whether every path through ``s`` has published."""

        if s in self.scan.lock_cas or s in self.scan.cas_sites \
                or s in self.claimed:
            return done
        if s in self.prov.announces or s in self.scan.unlocks:
            return done
        if isinstance(s, Store) and _slot_base(s.addr) in self.slot_bases \
                and self.slot_bases:
            return done
        if isinstance(s, Seq):
            for c in s.stmts:
                done = self._publication_pass(c, done)
            return done
        if isinstance(s, If):
            t = self._publication_pass(s.then, done)
            e = self._publication_pass(s.els, done)
            return t and e
        if isinstance(s, While):
            self._publication_pass(s.body, done)
            return done
        if isinstance(s, Atomic):
            muts = [t for t in iter_stmts(s.body)
                    if t in self.prov.mutations]
            if not muts:
                return done
            if not done:
                kind = "rmw" if self._atomic_rmw(s, muts) else "publish"
                self.act(s, "append", self._self_lp_aux(), kind)
                self.lp_anchors.add(s)
            return True
        if s in self.prov.mutations:
            if not done:
                self.act(s, "append", self._self_lp_aux(), "publish")
                self.lp_anchors.add(s)
            return True
        return done

    def _atomic_rmw(self, at: Stmt, muts: List[Stmt]) -> bool:
        defined_here = defined_vars(at)
        return any(isinstance(m, (Assign, Store))
                   and m.expr.free_vars() & defined_here & self.prov.derived
                   for m in muts)

    # -- decisions -------------------------------------------------------
    def _decision_pass(self) -> None:
        flags = {c.flag for c in self.scan.cas_sites.values()} \
            | self.elim_flags
        candidates = []
        for n in self.scan.order:
            if not isinstance(n, If) or n in self.prov.skip:
                continue
            if n.cond.free_vars() & (flags | self.elim_taint):
                continue
            if self.elim_flags and self._under_guard(n, self.elim_flags):
                continue
            t_ok = (self._completes(n, n.then) is not None
                    and not self._branch_has_mutation(n.then))
            e_ok = (bool(seq_items(n.els))
                    and self._completes(n, n.els) is not None
                    and not self._branch_has_mutation(n.els))
            if t_ok or e_ok:
                candidates.append((n, t_ok, e_ok))
        # Only the innermost deciding If of a nest acts; outer wrappers
        # (validation gates around the real decision) defer to it.
        cand = {n for n, _, _ in candidates}
        for n, t_ok, e_ok in candidates:
            nested = any(
                ok and any(c is not n and c in cand for c in iter_stmts(br))
                for br, ok in ((n.then, t_ok), (n.els, e_ok)))
            if not nested:
                self._decide_one(n, t_ok, e_ok)

    def _decide_one(self, n: If, t_ok: bool, e_ok: bool) -> None:
        depth = self.scan.nodes[n].lock_depth
        self.ro_capable = True
        if t_ok and e_ok:
            if depth > 0:
                self.has_linself = True
                self.act(n, "after", (linself(),), "lock-decide")
            elif not self._read_fix(n):
                self._hindsight(n, "unprotected two-way decision with no "
                                   "validated read")
            return
        if not t_ok:
            # Completions on else-branches only occur under a lock or on a
            # hindsight traversal in the recognized fragment.
            if depth > 0:
                self._lock_decide_branch(n, n.els)
            else:
                self._hindsight(n, "unprotected else-branch completion")
            return
        conds = [n.cond]
        anchor = self._read_before(n, conds)
        validation = False
        while anchor is not None and self._is_reread(anchor):
            validation = True
            anchor = self._read_before(anchor)
        used = n.cond.free_vars()
        if (not validation and anchor is not None and len(conds) == 1
                and not self._cond_reads_shared(n.cond)
                and used <= defined_vars(anchor) | {self.mdef.param}
                and not used & self._defined_between(anchor, n)):
            body = seq(*self._self_lp_aux())
            self.act(anchor, "append", (If(n.cond, body, Skip()),),
                     "read-decide")
            self.lp_anchors.add(anchor)
        elif depth > 0:
            self._lock_decide_branch(n, n.then)
        elif validation or any(self._cond_reads_shared(c) for c in conds):
            self._speculate(n, anchor, conds)
        elif not self._read_fix(n):
            self._hindsight(n, "cannot classify a completing decision")

    def _lock_decide_branch(self, n: If, branch: Stmt) -> None:
        self.has_linself = True
        last = next((s for s in reversed(seq_items(branch))
                     if isinstance(s, Assign)
                     and s.var in self.scan.ret_vars), None)
        if last is not None:
            self.act(last, "after", (linself(),), "lock-decide")
        else:
            op = "then-append" if branch is n.then else "else-append"
            self.act(n, op, (linself(),), "lock-decide")

    def _is_reread(self, anchor: Stmt) -> bool:
        read = self._as_read(anchor)
        if not isinstance(read, Load):
            return False
        return any(
            isinstance(s, Load) and structural_eq(s.addr, read.addr)
            for s in self.scan.order[:self.scan.nodes[read].index])

    def _speculate(self, n: If, anchor: Optional[Stmt],
                   conds: Sequence[BoolExpr]) -> None:
        """``trylinself`` at the read, ``commit`` entering ``then``."""

        if anchor is None:
            raise Uninferable(
                f"{self.mdef.name}: speculative decision with no candidate "
                f"read to try-linearize at")
        blocked = self._defined_between(anchor, n)
        guard: Optional[BoolExpr] = None
        for c in conds:
            if self._cond_reads_shared(c) or c.free_vars() & blocked:
                continue
            guard = c if guard is None else And(guard, c)
        aux = trylinself() if guard is None \
            else If(guard, trylinself(), Skip())
        self.act(anchor, "append", (aux,), "speculate")
        self.lp_anchors.add(anchor)
        self.has_speculation = True
        loops = self.scan.nodes[n].loops
        if loops:
            self.spec_loops.add(loops[0])
        value = next((s.expr for s in reversed(seq_items(n.then))
                      if isinstance(s, Assign)
                      and s.var in self.scan.ret_vars), None)
        if value is None and self.scan.returns:
            value = self.scan.returns[0].expr
        ret = value.value if isinstance(value, Const) else value
        caux = commit(commit_p(pattern(ThreadDone(Var(CID), ret))))
        self.act(n, "then-prepend", (caux,), "commit")

    def _read_fix(self, n: If) -> bool:
        """All shared state the decision depends on past the first read is
        immutable: the operation linearizes at that first read,
        unconditionally."""

        conds = [n.cond]
        anchor = self._read_before(n, conds)
        if anchor is None:
            return False
        if any(self._cond_reads_shared(c) for c in conds):
            return False
        sub = set(iter_stmts(anchor))
        # Every shared read the method makes *outside* the anchor (before
        # or after) must target immutable state, or the fixed commit at
        # the anchor could disagree with what the other reads observed.
        for s in self.scan.order:
            if s in sub or s in self.prov.skip:
                continue
            if isinstance(s, Load) and not self.prov.is_fresh_addr(s.addr):
                off = _addr_offset(s.addr)
                if off is None or off[1] in self.ctx.mutated_offsets:
                    return False
            if isinstance(s, Assign) and (
                    s.expr.free_vars() & self.ctx.mutated_shared_vars):
                return False
        if anchor in self.lp_anchors:
            return True
        self.has_linself = True
        self.act(anchor, "append", (linself(),), "read-fix")
        self.lp_anchors.add(anchor)
        return True

    def _can_hindsight(self) -> bool:
        """Lock-free traversal: an unvalidated read-only completion is only
        sound with the hindsight-style helping hooks, which require a loop
        of shared heap reads to have something to hook."""

        return any(
            isinstance(s, Load) and not self.prov.is_fresh_addr(s.addr)
            and self.scan.nodes[s].loops
            for s in self.scan.order)

    # -- whole-method checks and closing passes --------------------------
    def _racy_check(self) -> None:
        for m in self.prov.mutations:
            node = self.scan.nodes[m]
            if node.lock_depth > 0 or node.parent_atomic is not None:
                continue
            if not isinstance(m, (Assign, Store)):
                continue
            for v in sorted(m.expr.free_vars()):
                if v in self.prov.derived and v in self.prov.defs:
                    raise Uninferable(
                        f"{self.mdef.name}: racy read-modify-write — the "
                        f"unsynchronized write depends on {v!r} read from "
                        f"shared state in an earlier step")

    def _finalize(self) -> None:
        # Pure read method with no decision: LP at the read feeding the
        # return value.
        if not self.sites and not self.prov.mutations \
                and not self.scan.cas_sites and self.scan.returns:
            names = sorted(self.scan.returns[-1].expr.free_vars())
            seen = 0
            while len(names) == 1 and seen < 4:
                d = self.prov.defs.get(names[0])
                if d is None:
                    break
                if self.prov.shared_read(d):
                    anchor = self.scan.nodes[d].parent_atomic or d
                    self.has_linself = True
                    self.act(anchor, "append", (linself(),), "read-return")
                    self.lp_anchors.add(anchor)
                    self.ro_capable = True
                    return
                if not isinstance(d, Assign):
                    break
                names = sorted(d.expr.free_vars())
                seen += 1
        # A failed speculation inside a retry loop that still holds a
        # definite LP needs the restart commit re-arming the speculation.
        if self.has_speculation and self.has_linself:
            for loop in sorted(self.spec_loops,
                               key=lambda w: self.scan.nodes[w].index):
                exit_var = _loop_exit_var(loop)
                if exit_var is None:
                    continue
                caux = If(Cmp("=", Var(exit_var), Const(0)),
                          commit(commit_p(pattern(
                              ThreadIs(Var(CID), self.mdef.name)))),
                          Skip())
                self.act(loop, "loop-end", (caux,), "restart-commit")

    def _hindsight_finalize(self) -> None:
        hooks = self.ro_hooks()
        if self.mdef.name in self.ctx.hindsight_methods and hooks:
            for s in self.scan.order:
                if not isinstance(s, Load) or self.prov.is_fresh_addr(s.addr):
                    continue
                if s in self.prov.skip:
                    continue
                anchor = self.scan.nodes[s].parent_atomic or s
                if anchor in self.lp_anchors or anchor in self.claimed:
                    continue
                if anchor in self.scan.cas_sites \
                        or anchor in self.scan.lock_cas:
                    continue
                self.act(anchor, "append", hooks, "ro-hook")
                self.lp_anchors.add(anchor)
        if self.mdef.name in self.ctx.ro_help:
            for r in self.scan.returns:
                caux = commit(commit_p(pattern(ThreadDone(Var(CID), r.expr))))
                self.act(r, "before", (caux,), "commit-return")


# ---------------------------------------------------------------------------
# Entry points


def infer_object(impl: ObjectImpl, name: Optional[str] = None) -> ObjectInference:
    """Classify every method's LP discipline and build a synthesis plan.

    The analyzed bodies are the *normalized* method bodies (the same
    shape :func:`repro.instrument.erase.erase` produces), so the plan's
    anchors are nodes of the analyzed copy returned alongside it.
    """

    from ..instrument.erase import normalize

    name = name or getattr(impl, "name", "object")
    analyzed = ObjectImpl(
        {m: MethodDef(d.name, d.param, d.locals, normalize(d.body))
         for m, d in impl.methods.items()},
        initial_memory=impl.initial_memory, name=name)
    try:
        ctx = _ObjectContext(analyzed)
        provs = {m: _Provenance(ctx, ctx.scans[m])
                 for m in analyzed.methods}
        ctx.desc_info = _find_desc_info(ctx, provs)
        probes: Dict[str, _MethodInfer] = {}
        for mname, m in analyzed.methods.items():
            mi = _MethodInfer(ctx, m, provs[mname], {}, probe=True)
            mi.run()
            probes[mname] = mi
        hind = {n for n, p in probes.items() if p.hindsight}
        if hind:
            ctx.hindsight_methods = hind
            pure = [n for n in analyzed.methods
                    if not provs[n].mutations and not ctx.scans[n].cas_sites]
            rest = [n for n in analyzed.methods
                    if n not in pure
                    and (probes[n].ro_capable or n in hind)]
            ctx.ro_help = tuple(pure + rest)
        actions: Dict[Stmt, List[Action]] = {}
        methods: Dict[str, MethodInference] = {}
        for mname, m in analyzed.methods.items():
            methods[mname] = _MethodInfer(ctx, m, provs[mname],
                                          actions).run()
        inf = ObjectInference(name, True, "", methods, actions)
        inf.analyzed = analyzed
        return inf
    except Uninferable as exc:
        return ObjectInference(name, False, str(exc))


def infer_algorithm(alg) -> ObjectInference:
    """Infer LP discipline for a registry algorithm's uninstrumented impl."""

    return infer_object(alg.impl, name=alg.name)
