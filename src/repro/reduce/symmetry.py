"""Address-symmetry canonicalization.

Dynamically allocated addresses are arbitrary names: two configurations
that differ only by a permutation of allocated blocks have isomorphic
futures, and — as long as no address value escapes into an event — those
futures produce *identical* history and observable-trace sets.  The
explorer therefore replaces every successor configuration by a canonical
representative of its permutation class, collapsing e.g. the ``n!``
orders in which ``n`` threads can run their private allocations.

The renaming must never confuse an address with ordinary data (an
untyped memory stores both as integers).  Eligible programs (see
:mod:`repro.reduce.eligibility`) are explored under a **sparse
allocator**: method-code allocations are served from aligned blocks at
``SYM_BASE + k·SYM_STRIDE``, far above every static cell, program
literal and client value (all of which stay small).  Any integer
``≥ SYM_BASE`` is then an allocated address by construction — pure
moves cannot manufacture one — and the permutation π can rename exactly
the block bases, nothing else.

Canonical form: blocks are numbered in the order a deterministic walk
discovers them — named σ_o variables in sorted order, then each
thread's frame locals in sorted order, then client memory, then a
breadth-first sweep through block cells in address order.  π maps the
*i*-th discovered base to ``SYM_BASE + i·SYM_STRIDE``.  The walk
depends only on the permutation class, so two isomorphic configurations
canonicalize to the same representative.

Blocks the walk never reaches are *garbage*: under the pure-move
regime no thread can ever produce their address again (a value must be
moved from somewhere, and no root or reachable cell holds one), so they
are semantically inert — unreadable, unwritable, undisposable (the
eligible fragment has no ``dispose`` at all).  Canonicalization
therefore *collects* them: configurations that differ only in the
placement or leftover contents of dead blocks (e.g. popped list nodes)
merge into one.  Erasing garbage is a strong bisimulation that
preserves every event, so history/observable sets are unchanged; the
allocator may hand out different raw addresses afterwards, but those
are quotiented by the very same canonicalization.

Defensive fallbacks: a value ``≥ SYM_BASE`` that is not inside an
allocated block (impossible under the eligibility regime) aborts the
pass for that configuration — it is returned unrenamed, costing
reduction, never soundness.  An *event* carrying a value ``≥ SYM_BASE``
means an address escaped into a history and the permutation argument
itself is void: that raises :class:`AddressEscapeError` loudly rather
than risk merging distinguishable configurations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..lang.ast import Noret
from ..lang.walk import iter_stmts

SYM_BASE = 1 << 16
SYM_STRIDE = 16


class AddressEscapeError(RuntimeError):
    """An allocated address escaped into an event under ``reduce=por+sym``.

    The symmetry argument requires histories to be address-free; rerun
    with ``reduce="por"`` for such programs.
    """


def _block_base(value: int) -> int:
    return SYM_BASE + ((value - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE


def check_event_escape(event) -> None:
    """Raise if ``event`` carries an allocated (sparse-regime) address."""

    if event is None:
        return
    for attr in ("arg", "value"):
        val = getattr(event, attr, None)
        if isinstance(val, int) and val >= SYM_BASE:
            raise AddressEscapeError(
                f"address {val} escaped into event {event!r}; "
                f"address-symmetry reduction is unsound for this program — "
                f"use reduce='por'")


def address_items(data) -> tuple:
    """The address-valued entries (values ``≥ SYM_BASE``) of a plain
    ``dict`` of store data, as ``(key, value)`` pairs in the dict's order.

    ``()`` when there are none, so the overwhelmingly common "no
    addresses here" case compares as a cheap ``() == ()``.  These are
    exactly the entries the canonical walk reads and renames.
    """

    return tuple([(key, value) for key, value in data.items()
                  if type(value) is int and value >= SYM_BASE])


def frame_addresses(frame) -> tuple:
    """:func:`address_items` of a frame's locals (``()`` for no frame).

    Cached on the frame, as its hash is: frames are immutable, and the
    explorer reads this once per successor.
    """

    if frame is None:
        return ()
    cached = frame.__dict__.get("_addresses")
    if cached is None:
        cached = address_items(frame.locals._data)
        frame.__dict__["_addresses"] = cached
    return cached


def root_bases(sigma_o) -> FrozenSet[int]:
    """Block bases held by σ_o's *root* positions (named variables and
    dense cells) — the positions the canonical walk visits before any
    thread frame.  Used by :func:`frame_change_covered`."""

    out = set()
    for key, value in sigma_o._data.items():
        if type(value) is int and value >= SYM_BASE \
                and not (type(key) is int and key >= SYM_BASE):
            out.add(SYM_BASE
                    + ((value - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE)
    return frozenset(out)


def frame_change_covered(old_addresses, new_addresses, roots) -> bool:
    """Did a frame's address-valued locals change only in root-covered
    blocks?

    Second tier of the compiled-mode canonicalization fast path (first
    tier: :func:`step_keeps_canonical` proves the σ_o side untouched).
    The canonical walk visits named σ_o variables and dense cells before
    any frame, so a frame local gaining, dropping or swapping a pointer
    whose *block* is also held by such a root (``roots``, from
    :func:`root_bases`) neither changes the discovery order — the base
    was already discovered — nor orphans the block.  Any change
    involving a block no root holds falls back to the full pass.

    ``old_addresses`` / ``new_addresses`` are :func:`frame_addresses`
    results.
    """

    if old_addresses == new_addresses:
        return True
    old = dict(old_addresses)
    new = dict(new_addresses)
    for k, v in old.items():
        if new.get(k) == v:
            continue
        if SYM_BASE + ((v - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE \
                not in roots:
            return False
    for k, v in new.items():
        if old.get(k) == v:
            continue
        if SYM_BASE + ((v - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE \
                not in roots:
            return False
    return True


def step_keeps_canonical(footprint, pred_sigma_o, new_sigma_o) -> bool:
    """Can ``canonicalize_config`` be skipped for this step's successors?

    Fast path for the compiled (table-indexed) semantics: every compiled
    step carries a precomputed footprint, so the explorer can prove —
    before ever walking the configuration — that a step left the sparse
    pointer structure untouched.  If the predecessor was canonical
    (every stored configuration is) and

    * the step did not allocate (no new block, no new dense cells),
    * every σ_o location it wrote exists on both sides (no dispose), and
    * no written σ_o location held or received a value ``≥ SYM_BASE``,

    then the block graph, its roots-in-σ_o and the quarantine mask are
    all unchanged, the canonical walk discovers the very same base order
    (the identity, since the predecessor was canonical), and no garbage
    can have appeared — the successor is *already* canonical.  The
    caller must separately check the thread-frame locals and σ_c roots
    (invisible-step compression mutates those without a footprint); see
    :func:`address_items`.

    σ_c writes are deliberately ignored here: the caller's comparison of
    the σ_c address entries subsumes them.  Conservative by design —
    any ``False`` merely falls back to the full canonicalization pass.
    """

    if footprint is None or footprint.allocates:
        return False
    pred_data = pred_sigma_o._data
    new_data = new_sigma_o._data
    for kind, key in footprint.writes:
        if kind != "o":
            continue
        old = pred_data.get(key)
        new = new_data.get(key)
        if old is None or new is None:
            return False
        if old >= SYM_BASE or new >= SYM_BASE:
            return False
    return True


def canonicalize_config(config, store_cls) -> Tuple[object, bool]:
    """The canonical representative of ``config``'s permutation class.

    Returns ``(config', changed)``; ``changed`` is False when ``config``
    already is canonical (the common case — allocation order usually
    matches discovery order) or when the pass bailed out on an anomaly.
    ``store_cls`` is :class:`repro.memory.store.Store` (passed in to
    avoid an import cycle).
    """

    from ..memory.heap import QUARANTINE_KEY

    sigma_o = config.sigma_o
    o_data = sigma_o._data
    blocks: Dict[int, List[Tuple[int, int]]] = {}
    named: List[str] = []
    dense: List[int] = []
    mask = 0
    has_mask = False
    for key, value in o_data.items():
        if type(key) is int:
            if key >= SYM_BASE:
                base = SYM_BASE \
                    + ((key - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE
                cells = blocks.get(base)
                if cells is None:
                    blocks[base] = [(key, value)]
                else:
                    cells.append((key, value))
            else:
                dense.append(key)
        elif key == QUARANTINE_KEY:
            # The freed-block quarantine bitmask is allocator state, not
            # a program value: it must be renamed *by block index*, not
            # walked as a root (its integer value is no address).
            mask = value
            has_mask = True
        else:
            named.append(key)
    if not blocks and not mask:
        return config, False

    def quarantined(base: int) -> bool:
        return bool((mask >> ((base - SYM_BASE) // SYM_STRIDE)) & 1)

    order: List[int] = []
    seen = set()

    def visit(value) -> bool:
        """Record a discovered base; False on an anomalous address.

        Call sites pre-filter: ``value`` is a sparse address already
        (``int``, ``≥ SYM_BASE``) — the filter runs inline in each walk
        loop so the overwhelmingly-common small values never pay for a
        function call.
        """
        base = SYM_BASE + ((value - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE
        if base not in blocks and not quarantined(base):
            return False
        if base not in seen:
            seen.add(base)
            order.append(base)
        return True

    # Roots, in a deterministic permutation-invariant order: named σ_o
    # variables, *dense* (static / pre-allocated) heap cells — a queue
    # sentinel's next field lives there and may hold the only pointer
    # into the sparse heap — then frame locals and client memory.
    named.sort()
    for key in named:
        value = o_data[key]
        if type(value) is int and value >= SYM_BASE \
                and not visit(value):
            return config, False
    if dense:
        dense.sort()
        for key in dense:
            value = o_data[key]
            if type(value) is int and value >= SYM_BASE \
                    and not visit(value):
                return config, False
    for tstate in config.threads:
        frame = tstate.frame
        if frame is not None:
            locals_ = frame.locals._data
            for name in sorted(locals_):
                value = locals_[name]
                if type(value) is int and value >= SYM_BASE \
                        and not visit(value):
                    return config, False
    sigma_c = config.sigma_c
    c_data = sigma_c._data
    for name in sorted(c_data, key=lambda k: (isinstance(k, int), k)):
        value = c_data[name]
        if type(value) is int and value >= SYM_BASE \
                and not visit(value):
            return config, False

    for cells in blocks.values():
        cells.sort()
    index = 0
    while index < len(order):
        base = order[index]
        index += 1
        for _cell, value in blocks.get(base, ()):
            if type(value) is int and value >= SYM_BASE \
                    and not visit(value):
                return config, False

    garbage = blocks.keys() - seen
    pi: Dict[int, int] = {
        base: SYM_BASE + i * SYM_STRIDE for i, base in enumerate(order)
    }
    # Quarantine bits travel with their block through π; bits of blocks
    # no pointer reaches anymore are dropped — nothing can ever name the
    # address again, so the allocator may reuse the slot.
    new_mask = 0
    for i, base in enumerate(order):
        if quarantined(base):
            new_mask |= 1 << i
    if not garbage and new_mask == mask \
            and all(src == dst for src, dst in pi.items()):
        return config, False

    def rename(value):
        if isinstance(value, int) and value >= SYM_BASE:
            base = _block_base(value)
            return pi[base] + (value - base)
        return value

    new_o = {}
    for key, value in o_data.items():
        if key == QUARANTINE_KEY:
            continue  # re-added below, renamed by block index
        if isinstance(key, int) and key >= SYM_BASE:
            if _block_base(key) in garbage:
                continue  # collected: unreachable, hence inert forever
            key = rename(key)
        new_o[key] = rename(value)
    if has_mask and new_mask:
        # A vanished mask (all quarantined blocks became unreachable) is
        # dropped entirely so such configs merge with never-disposed ones.
        new_o[QUARANTINE_KEY] = new_mask

    new_threads = []
    threads_changed = False
    for tstate in config.threads:
        frame = tstate.frame
        if frame is None:
            new_threads.append(tstate)
            continue
        new_locals = {name: rename(value)
                      for name, value in frame.locals._data.items()}
        if new_locals == frame.locals._data:
            new_threads.append(tstate)
            continue
        threads_changed = True
        new_frame = type(frame)(
            locals=store_cls(new_locals), retvar=frame.retvar,
            caller_control=frame.caller_control, method=frame.method)
        new_threads.append(type(tstate)(control=tstate.control,
                                        frame=new_frame))

    new_c = {key: rename(value) for key, value in c_data.items()}
    c_changed = new_c != c_data

    return type(config)(
        threads=tuple(new_threads) if threads_changed else config.threads,
        sigma_c=store_cls(new_c) if c_changed else config.sigma_c,
        sigma_o=store_cls(new_o),
    ), True


# ---------------------------------------------------------------------------
# Thread-identity symmetry
# ---------------------------------------------------------------------------
#
# For programs whose clients are pairwise isomorphic (see
# ``repro.reduce.eligibility.scan_thread_symmetry``) every permutation of
# thread identities is a program automorphism.  The explorer exploits
# this *incrementally*: exploration proceeds entirely in a canonical
# space where the threads that have emitted an event ("pinned" threads)
# are exactly 1..k in order of first appearance, and event-free threads
# — necessarily still in their initial state, since eligibility bans
# every event-free visible client step — occupy positions k+1..n.  The
# invariant is maintained by a *rotation*: when event-free thread t
# takes its first visible step, the step is re-attributed to thread
# k+1 (the event is renamed and the configuration permuted by
# ``rotation(n, k, t)``).  Configurations that differ only in which
# concrete threads acted then collide in the seen set, dividing the
# reachable space by up to n!/k! per pinned-set size.
#
# The recorded history/observable sets are canonical *representatives*;
# :func:`close_traces` restores the full sets by closing them under
# Sym(n) at the end of a run — sound precisely because eligibility makes
# every permutation an automorphism, so the real trace sets are already
# permutation-closed.


class _PermuteBail(Exception):
    """A thread permutation could not be expressed (shared AST node or
    unknown compiled control).  Callers skip the permutation — costing
    reduction, never soundness."""


def rotation(n: int, k: int, t: int) -> Tuple[int, ...]:
    """The permutation (as a tuple indexed 1..n, slot 0 unused) that
    moves thread ``t`` to position ``k+1``, shifts ``k+1..t-1`` up by
    one and fixes everything else."""

    pi = list(range(n + 1))
    for j in range(k + 1, t):
        pi[j] = j + 1
    pi[t] = k + 1
    return tuple(pi)


def permute_trace(trace, pi: Tuple[int, ...]):
    """Rename every event's thread through ``pi``."""

    from dataclasses import replace

    return tuple(replace(e, thread=pi[e.thread]) for e in trace)


def close_traces(traces, n: int):
    """Close a set of traces under all thread permutations of 1..n."""

    from dataclasses import replace
    from itertools import permutations

    if n <= 1:
        return set(traces)
    perms = [(0,) + p for p in permutations(range(1, n + 1))]
    out = set()
    for trace in traces:
        if not trace:
            out.add(trace)
            continue
        for pi in perms:
            out.add(tuple(replace(e, thread=pi[e.thread])
                          for e in trace))
    return out


class ThreadPermuter:
    """Re-expresses configurations under a permutation of thread ids.

    Built from a :class:`~repro.reduce.eligibility.ThreadSymmetry`
    verdict: client controls are remapped through the aligned pre-order
    node tables (corresponding indices are isomorphic nodes), frame
    return variables and σ_c keys through the variable bijections, and
    the implicit ``cid`` frame local is rewritten to the new identity.
    Method statements are shared across callers and map to themselves.
    σ_o is never touched: object memory — including the freed-block
    quarantine bitmask, which is keyed by block, not by thread — is
    thread-agnostic, so it is permutation-invariant by construction.

    With a :class:`~repro.compile.lower.CompiledProgram` the ``(pc,)``
    controls are remapped by translating through ``controls[pc]`` and
    re-interning; lowering is deterministic, so the isomorphic control
    always has a pc.
    """

    def __init__(self, program, tsym, compiled=None):
        self.program = program
        self.tsym = tsym
        self.compiled = compiled
        self.n = len(program.clients)
        # id(stmt) -> pre-order index; -1 marks a node shared between
        # clients at *different* indices (ambiguous: bail on contact).
        index: Dict[int, int] = {}
        for table in tsym.node_tables:
            for i, node in enumerate(table):
                prev = index.get(id(node))
                if prev is not None and prev != i:
                    index[id(node)] = -1
                else:
                    index[id(node)] = i
        self._node_index = index
        # Method-body nodes are shared between clients *by design* (the
        # object code is common) and pass through unchanged.  Anything
        # else — e.g. an unpickled copy of a client statement in a
        # parallel worker — must bail rather than silently map to
        # itself, which would rotate σ_c and frames but not controls.
        self._method_ids = {
            id(node) for mdef in program.object_impl.methods.values()
            for node in iter_stmts(mdef.body)}
        self._var_owner: Dict[str, int] = {}
        for t, vm in enumerate(tsym.var_maps, 1):
            for name in vm:
                self._var_owner[name] = t
        if compiled is not None:
            self._control_to_pc = {
                ctrl: pc for pc, ctrl in enumerate(compiled.controls)}
        self._ctrl_cache: Dict[Tuple[int, int], tuple] = {}

    # -- name / node remapping ----------------------------------------------

    def rename_var(self, name: str, t: int, u: int) -> str:
        canon = self.tsym.var_maps[t - 1].get(name)
        if canon is None:
            return name
        return self.tsym.inv_maps[u - 1][canon]

    def _remap_stmt(self, s, u: int):
        idx = self._node_index.get(id(s))
        if idx is None:
            if id(s) in self._method_ids or isinstance(s, Noret):
                return s  # method statement or the shared noret marker
            raise _PermuteBail("statement object outside the program AST")
        if idx < 0:
            raise _PermuteBail("AST node shared across clients")
        return self.tsym.node_tables[u - 1][idx]

    def _remap_control(self, control: tuple, u: int) -> tuple:
        if not control:
            return control
        if self.compiled is not None and type(control[0]) is int:
            pc = control[0]
            key = (pc, u)
            cached = self._ctrl_cache.get(key)
            if cached is not None:
                return cached
            interp = self.compiled.controls[pc]
            mapped = tuple(self._remap_stmt(s, u) for s in interp)
            if all(a is b for a, b in zip(mapped, interp)):
                out = control
            else:
                new_pc = self._control_to_pc.get(mapped)
                if new_pc is None:
                    raise _PermuteBail(
                        f"no compiled control for permuted pc {pc}")
                out = (new_pc,)
            self._ctrl_cache[key] = out
            return out
        mapped = tuple(self._remap_stmt(s, u) for s in control)
        if all(a is b for a, b in zip(mapped, control)):
            return control
        return mapped

    def _remap_frame(self, frame, t: int, u: int):
        new_locals = frame.locals.set("cid", u)
        retvar = frame.retvar
        if retvar:
            retvar = self.rename_var(retvar, t, u)
        caller = self._remap_control(frame.caller_control, u)
        return type(frame)(locals=new_locals, retvar=retvar,
                           caller_control=caller, method=frame.method)

    # -- configurations ------------------------------------------------------

    def permute_config(self, config, pi: Tuple[int, ...]):
        """``(config', changed)`` under ``pi``, or ``(config, None)``
        when the permutation could not be expressed (bail: the caller
        must then keep the original identity attribution)."""

        n = self.n
        try:
            threads = config.threads
            new_threads = list(threads)
            changed = False
            for i in range(1, n + 1):
                j = pi[i]
                ts = threads[i - 1]
                if i == j:
                    continue
                control = self._remap_control(ts.control, j)
                frame = ts.frame
                if frame is not None:
                    frame = self._remap_frame(frame, i, j)
                if control is not ts.control or frame is not ts.frame:
                    ts = type(ts)(control=control, frame=frame)
                new_threads[j - 1] = ts
                changed = True
            c_data = config.sigma_c._data
            new_c = {}
            c_changed = False
            for key, value in c_data.items():
                t = self._var_owner.get(key)
                if t is None or pi[t] == t:
                    new_c[key] = value
                else:
                    new_c[self.rename_var(key, t, pi[t])] = value
                    c_changed = True
            if not changed and not c_changed:
                return config, False
            store_cls = type(config.sigma_c)
            return type(config)(
                threads=tuple(new_threads),
                sigma_c=store_cls(new_c) if c_changed else config.sigma_c,
                sigma_o=config.sigma_o,
            ), True
        except _PermuteBail:
            return config, None
