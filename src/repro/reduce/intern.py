"""Hash-consing of configurations and thread states.

``Config``, ``ThreadState`` and ``Frame`` cache their hashes (one memo
per object) and test equality identity-first; the interner maps every
structurally-equal configuration and thread state to one canonical
instance, so seen-set lookups during exploration hit the identity fast
path instead of re-walking structures.  Successor configurations
naturally share the unchanged thread states and stores of their parent;
the interner adds the cross-path sharing — two different interleavings
converging on equal components converge on the *same objects*.

Purely an accelerator: interning never changes which configurations are
distinct, only how fast we find out.
"""

from __future__ import annotations

from typing import Dict


class Interner:
    """Per-exploration tables of canonical instances."""

    __slots__ = ("_configs", "_threads")

    def __init__(self) -> None:
        self._configs: Dict[object, object] = {}
        self._threads: Dict[object, object] = {}

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
