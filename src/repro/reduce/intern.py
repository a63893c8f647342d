"""Hash-consing of configurations, thread states, frames, stores and
other immutable state components.

``Config``, ``ThreadState`` and ``Frame`` cache their hashes (one memo
per object) and test equality identity-first; the interner maps every
structurally-equal component to one canonical instance, so seen-set,
memo and dedup lookups hit the identity fast path instead of re-walking
structures, and a run keeps one object per distinct value alive.

The explorer (:class:`repro.semantics.scheduler.Explorer`) interns each
component where it is made, never afterwards: a step-memo miss interns
every outcome's thread state and stores and every visible expansion's
thread state and σ_c, the address-shape memo stores an interned σ_o′ and interns the frames
and σ_c it rebuilds, thread-identity rotation and the start nodes intern
what they build, and each successor :class:`Config` is interned last.
:meth:`thread_state` interns the frame and its locals first, so a hit
compares them by identity.  At the end of the HSY 2x1 Def-3 concrete
search this leaves 1,235 live stores for 1,232 distinct values (13,956
when only configurations and stepping thread states were interned),
2,016 thread states for 2,015 (14,270) and 1,050 frames for 1,050
(10,971); EXPERIMENTS E24.
:meth:`value` does the same for any other hashable immutable component
(stores, and the Fig-11 witness runner's thread entries, σ_o and Δ):
tuple and container comparisons between canonical instances then take
CPython's identity shortcut.

Purely an accelerator: interning never changes which configurations are
distinct, only how fast we find out and how much memory equal values
take.  Keys stay structural.
"""

from __future__ import annotations

from typing import Dict


class Interner:
    """Per-run tables of canonical instances."""

    __slots__ = ("_configs", "_threads", "_frames", "_values")

    def __init__(self) -> None:
        self._configs: Dict[object, object] = {}
        self._threads: Dict[object, object] = {}
        self._frames: Dict[object, object] = {}
        self._values: Dict[object, object] = {}

    def frame(self, frame):
        """The canonical frame equal to ``frame``, with canonical
        locals."""

        hit = self._frames.get(frame)
        if hit is not None:
            return hit
        local_store = self.value(frame.locals)
        if local_store is not frame.locals:
            frame = type(frame)(local_store, frame.retvar,
                                frame.caller_control, frame.method)
        self._frames[frame] = frame
        return frame

    def thread_state(self, tstate):
        """The canonical thread state equal to ``tstate``, with a
        canonical frame."""

        frame = tstate.frame
        if frame is not None:
            canon = self.frame(frame)
            if canon is not frame:
                tstate = type(tstate)(tstate.control, canon)
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
