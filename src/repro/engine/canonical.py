"""Canonical, process-independent hashing of exploration states.

Statements hash by identity (``eq=False`` — see :mod:`repro.lang.ast`),
and Python's built-in ``hash`` for strings is salted per process, so
neither can key a seen-set that is shared *across* worker processes.
This module provides a stable structural encoding instead:
:func:`canonical_bytes` linearises any value built from the
repository's state vocabulary (``None``, booleans, ints, strings,
tuples, frozensets, :class:`~repro.memory.store.Store`, and dataclasses
of these: AST nodes, events, frames, thread states, configurations) into
a deterministic byte string, and :func:`canonical_digest` compresses it
with BLAKE2b.

Two values receive the same digest iff they are structurally equal — in
particular, two :class:`~repro.semantics.scheduler.Config` objects that
were pickled through different processes (and therefore contain distinct
statement *objects* for the same statement *syntax*) canonicalise
identically, which is what lets parallel workers deduplicate subtree
roots through a shared seen-set.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..memory.store import Store

#: Digest size (bytes) — 16 gives a 128-bit key, collision-safe for the
#: state-space sizes bounded exploration can reach.
DIGEST_SIZE = 16


def _encode(obj, out: list) -> None:
    """Append a self-delimiting encoding of ``obj`` to ``out`` (bytes)."""

    if obj is None:
        out.append(b"N")
    elif obj is True:
        out.append(b"T")
    elif obj is False:
        out.append(b"F")
    elif isinstance(obj, int):
        out.append(b"i%d;" % obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
    elif isinstance(obj, Store):
        out.append(b"S(")
        for k, v in obj.items_sorted():
            _encode(k, out)
            _encode(v, out)
        out.append(b")")
    elif isinstance(obj, tuple):
        out.append(b"t(")
        for item in obj:
            _encode(item, out)
        out.append(b")")
    elif isinstance(obj, (set, frozenset)):
        # Order-independent: encode members individually and sort the
        # encodings (members of heterogeneous sets are not comparable).
        members = sorted(canonical_bytes(item) for item in obj)
        out.append(b"x(")
        out.extend(members)
        out.append(b")")
    elif dataclasses.is_dataclass(obj):
        # AST nodes, events, ThreadState, Frame, Config, IConfig, ...
        cls = type(obj)
        out.append(b"D")
        _encode(f"{cls.__module__}.{cls.__qualname__}", out)
        out.append(b"(")
        for f in dataclasses.fields(obj):
            _encode(getattr(obj, f.name), out)
        out.append(b")")
    else:
        raise TypeError(
            f"canonical_bytes: unsupported type {type(obj).__name__!r} "
            f"({obj!r})")


def canonical_bytes(obj) -> bytes:
    """A deterministic, structural byte encoding of ``obj``."""

    out: list = []
    _encode(obj, out)
    return b"".join(out)


def canonical_digest(obj) -> bytes:
    """BLAKE2b digest of :func:`canonical_bytes` — a stable state key."""

    return hashlib.blake2b(canonical_bytes(obj),
                           digest_size=DIGEST_SIZE).digest()

