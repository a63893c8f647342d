"""Hash-consing of configurations, thread states and other immutable
state components.

``Config``, ``ThreadState`` and ``Frame`` cache their hashes (one memo
per object) and test equality identity-first; the interner maps every
structurally-equal configuration and thread state to one canonical
instance, so seen-set lookups during exploration hit the identity fast
path instead of re-walking structures.  Successor configurations
naturally share the unchanged thread states and stores of their parent;
the interner adds the cross-path sharing — two different interleavings
converging on equal components converge on the *same objects*.
:meth:`Interner.value` does the same for any other hashable immutable
component (the Fig-11 witness runner's thread entries, σ_o and Δ): tuple
and container comparisons between canonical instances then take
CPython's identity shortcut.

Purely an accelerator: interning never changes which configurations are
distinct, only how fast we find out.
"""

from __future__ import annotations

from typing import Dict


class Interner:
    """Per-exploration tables of canonical instances."""

    __slots__ = ("_configs", "_threads", "_values")

    def __init__(self) -> None:
        self._configs: Dict[object, object] = {}
        self._threads: Dict[object, object] = {}
        self._values: Dict[object, object] = {}

    def thread_state(self, tstate):
        hit = self._threads.get(tstate)
        if hit is not None:
            return hit
        self._threads[tstate] = tstate
        return tstate

    def config(self, config):
        hit = self._configs.get(config)
        if hit is not None:
            return hit
        self._configs[config] = config
        return config

    def value(self, obj):
        """The canonical instance equal to the hashable ``obj``."""

        return self._values.setdefault(obj, obj)
