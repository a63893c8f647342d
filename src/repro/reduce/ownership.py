"""Conservative heap-ownership (escape) analysis for one configuration.

A heap cell is *owned* by thread ``t`` when it is reachable from ``t``'s
method-frame locals but from no shared root and no other thread.  A step
whose whole footprint lies in cells owned by the stepping thread
commutes with every step of every other thread — other threads cannot
even *name* those cells (under the pure-move regime of
:mod:`repro.reduce.eligibility`, a value must be moved to be used, and
nothing outside the owner's frame holds one) — so it is a both-mover and
can be explored first, alone.

Shared roots, deliberately over-approximate:

* every named object variable of σ_o (``Head``, ``Tail``, ...);
* every value in the client memory σ_c (client-visible values);
* every *value constant* of the program text — a thread can conjure a
  static address out of a literal at any time, so literals are globally
  reachable by definition.

Reachability follows every integer value ``v`` into the heap extent it
can address: ``[v, v + max_offset]`` in the dense regime, the whole
aligned block in the sparse (symmetry) regime.  Data values that merely
*collide* with addresses only ever make the analysis more conservative
— a false edge can only demote a cell from "private" to "shared".
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .symmetry import SYM_BASE, SYM_STRIDE

SHARED = 0  # owner id meaning "reachable by more than one party"


def _closure(roots: Iterable[int], heap: dict, max_offset: int,
             blocks: Optional[Dict[int, list]]) -> set:
    """All heap cells reachable from ``roots`` through stored values.

    ``heap`` is σ_o's underlying dict (read directly: this loop is the
    analysis' hot path).  An integer value can directly address
    ``[v, v + max_offset]`` in the dense regime; in the sparse
    (symmetry) regime, the whole aligned block, looked up in the
    precomputed ``blocks`` map (``base -> [(cell, value), ...]``).
    """

    reached = set()
    worklist = [v for v in roots if isinstance(v, int)]
    while worklist:
        value = worklist.pop()
        if blocks is not None and value >= SYM_BASE:
            base = SYM_BASE + ((value - SYM_BASE) // SYM_STRIDE) \
                * SYM_STRIDE
            for cell, nxt in blocks.get(base, ()):
                if cell in reached:
                    continue
                reached.add(cell)
                if isinstance(nxt, int):
                    worklist.append(nxt)
            continue
        for cell in range(value, value + max_offset + 1):
            if cell in reached or cell not in heap:
                continue
            reached.add(cell)
            nxt = heap[cell]
            if isinstance(nxt, int):
                worklist.append(nxt)
    return reached


def _heap_index(sigma_o, sym: bool):
    """σ_o's named-variable values (shared roots) and, in the sparse
    regime, its block index ``base -> [(cell, value), ...]``."""

    from ..memory.heap import QUARANTINE_KEY

    named = []
    blocks: Optional[Dict[int, list]] = {} if sym else None
    for key, value in sigma_o._data.items():
        if isinstance(key, str):
            if key == QUARANTINE_KEY:
                continue  # allocator bitmask, not a program value
            named.append(value)
        elif blocks is not None and key >= SYM_BASE:
            base = SYM_BASE + ((key - SYM_BASE) // SYM_STRIDE) * SYM_STRIDE
            blocks.setdefault(base, []).append((key, value))
    return named, blocks


def compute_owner(config, policy, memo=None) -> Dict[int, int]:
    """Map every reachable heap cell of σ_o to its owner.

    Owner ids: ``SHARED`` (0) for cells reachable from the shared roots
    or from two different threads; ``tid`` (1-based thread index) for
    cells reachable only from that thread's frame locals.  Cells absent
    from the map are unreachable garbage — conservatively not owned by
    anybody.

    ``memo`` (a :class:`~repro.semantics.search.BoundedCache`, or
    ``None``) holds the heap-shape pieces of the map on exactly what
    each reads, so configurations sharing a heap shape share the work:
    σ_o's block index on ``σ_o``, the shared-root closure on
    ``("shared", σ_o, σ_c)`` and a thread's closure on
    ``("local", σ_o, frame locals)``.  One memo must serve one policy
    (one explorer).  The stored closures are never mutated.
    """

    sigma_o = config.sigma_o
    heap = sigma_o._data
    max_offset = policy.max_offset
    sigma_c = config.sigma_c

    index = None if memo is None else memo.get(sigma_o)
    if index is None:
        index = _heap_index(sigma_o, policy.sym)
        if memo is not None:
            memo.put(sigma_o, index)
    named, blocks = index

    key = ("shared", sigma_o, sigma_c)
    shared = None if memo is None else memo.get(key)
    if shared is None:
        shared = _closure(
            list(policy.value_consts) + named
            + list(sigma_c._data.values()), heap, max_offset, blocks)
        if memo is not None:
            memo.put(key, shared)
    owner: Dict[int, int] = {}
    for cell in shared:
        owner[cell] = SHARED

    for idx, tstate in enumerate(config.threads):
        frame = tstate.frame
        if frame is None:
            continue
        tid = idx + 1
        key = ("local", sigma_o, frame.locals)
        reached = None if memo is None else memo.get(key)
        if reached is None:
            reached = _closure(frame.locals._data.values(), heap,
                               max_offset, blocks)
            if memo is not None:
                memo.put(key, reached)
        for cell in reached:
            prev = owner.get(cell)
            if prev is None:
                owner[cell] = tid
            elif prev != tid:
                owner[cell] = SHARED
    return owner


def footprint_in_object_heap(footprint) -> bool:
    """True when every location the step touches is an object-heap
    cell — the only locations an owner map can make private (see
    :func:`footprint_is_private`), so a step failing this needs no map."""

    for kind, key in footprint.reads:
        if kind != "o" or not isinstance(key, int):
            return False
    for kind, key in footprint.writes:
        if kind != "o" or not isinstance(key, int):
            return False
    return True


def footprint_is_private(footprint, owner: Dict[int, int],
                         tid: int) -> bool:
    """True when every location the step touches belongs to ``tid``.

    Named-variable locations (σ_o object variables, σ_c client
    variables) are shared by definition; only *object-heap* cells owned
    by the stepping thread qualify.  The ``kind`` guard matters: the
    owner map is keyed by σ_o addresses, so a ``("c", addr)`` client
    heap cell must never be looked up in it.
    """

    if not footprint_in_object_heap(footprint):
        return False
    for _, key in footprint.reads:
        if owner.get(key) != tid:
            return False
    for _, key in footprint.writes:
        if owner.get(key) != tid:
            return False
    return True
