"""Engine selection for state-space exploration.

Every exploration entry point (``explore``, the Definition-2 product
engine, the instrumented runner, contextual refinement, Table 1) accepts
an ``engine=`` argument.  It may be

* ``None`` / ``"sequential"`` — the original single-process search
  (default; bit-for-bit the pre-engine behaviour);
* ``"parallel"`` — the work-stealing multiprocessing driver of
  :mod:`repro.engine.parallel` (exact: same histories/traces/verdicts as
  sequential when exploration completes within bounds);
* ``"random-walk"`` — the seeded sampling fallback of
  :mod:`repro.engine.random_walk` for bounds too large to exhaust
  (under-approximate: results carry ``exhaustive=False`` and must never
  be read as exhaustive verdicts);
* an :class:`EngineSpec` for full control (worker count, seed, ...).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

from ..compile import DEFAULT_SEMANTICS, SEMANTICS_MODES
from ..errors import ReproError
from ..reduce.policy import (
    DEFAULT_REDUCE,
    REDUCE_MODES,
    REDUCE_NONE,
    REDUCE_POR,
    REDUCE_POR_SYM,
    REDUCE_POR_SYM_TSYM,
)

SEQUENTIAL = "sequential"
PARALLEL = "parallel"
RANDOM_WALK = "random-walk"

KINDS = (SEQUENTIAL, PARALLEL, RANDOM_WALK)


@dataclass(frozen=True)
class EngineSpec:
    """Fully-resolved description of how to run an exploration."""

    kind: str = SEQUENTIAL
    #: Worker processes for ``parallel`` (0 = one per CPU).
    workers: int = 0
    #: ``True`` raises: the persistent verdict cache was removed, and the
    #: field stays only for callers that still pass ``memo=False``.
    memo: bool = False
    #: PRNG seed for ``random-walk`` (results are reproducible per seed).
    seed: int = 0
    #: Number of walks for ``random-walk``.
    walks: int = 256
    #: Node budget after which a parallel worker spills the rest of its
    #: subtree back to the shared frontier (work-stealing granularity).
    spill_nodes: int = 10_000
    #: State-space reductions (:mod:`repro.reduce`): ``"none"``,
    #: ``"por"`` (partial-order reduction), ``"por+sym"`` (adds
    #: address-symmetry canonicalization) or ``"por+sym+tsym"`` (adds
    #: sleep sets and thread-identity symmetry); hash-consing is on in
    #: every mode.  Default on for sequential and parallel; each
    #: program's static eligibility filters the mode down to what is
    #: provably sound for it, so the explored history/observable sets
    #: never change.
    reduce: str = DEFAULT_REDUCE
    #: Step semantics (:mod:`repro.compile`): ``"compiled"`` (default)
    #: drives exploration off per-method transition tables, degrading
    #: automatically to the AST-walking interpreter when the program
    #: falls outside the compilable fragment; ``"interp"`` forces the
    #: interpreter.  Both produce identical history/observable sets.
    semantics: str = DEFAULT_SEMANTICS

    def __post_init__(self):
        if self.memo:
            raise ReproError("the persistent verdict cache was removed")
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown engine kind {self.kind!r}; known: {KINDS}")
        if self.reduce not in REDUCE_MODES:
            raise ReproError(
                f"unknown reduction mode {self.reduce!r}; "
                f"known: {REDUCE_MODES}")
        if self.semantics not in SEMANTICS_MODES:
            raise ReproError(
                f"unknown semantics mode {self.semantics!r}; "
                f"known: {SEMANTICS_MODES}")

    @property
    def sequential(self) -> bool:
        return self.kind == SEQUENTIAL

    @property
    def exhaustive(self) -> bool:
        """Does this engine visit the *whole* bounded state space?"""

        return self.kind != RANDOM_WALK

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return max(os.cpu_count() or 1, 1)

    def spelling(self) -> str:
        """The canonical ``"+"``-joined string form of this spec.

        ``resolve_engine(spec.spelling())`` reproduces ``kind``,
        ``reduce`` and ``semantics``; numeric knobs
        (workers, seed, walks, spill budget) have no string form and
        fall back to their defaults on the round trip.
        """

        bits = [self.kind]
        if self.reduce != DEFAULT_REDUCE:
            if self.reduce == REDUCE_NONE:
                bits.append("noreduce")
            else:
                bits.extend(self.reduce.split("+"))
        if self.semantics != DEFAULT_SEMANTICS:
            bits.append(self.semantics)
        return "+".join(bits)

    def describe(self) -> str:
        bits = [self.kind]
        if self.kind == PARALLEL:
            bits.append(f"workers={self.effective_workers()}")
        if self.kind == RANDOM_WALK:
            bits.append(f"walks={self.walks}")
            bits.append(f"seed={self.seed}")
        if self.reduce != DEFAULT_REDUCE:
            bits.append(f"reduce={self.reduce}")
        if self.semantics != DEFAULT_SEMANTICS:
            bits.append(f"semantics={self.semantics}")
        return ",".join(bits)


Engine = Union[None, str, EngineSpec]

SEQUENTIAL_SPEC = EngineSpec(SEQUENTIAL)


def resolve_engine(engine: Engine) -> EngineSpec:
    """Normalise an ``engine=`` argument to an :class:`EngineSpec`
    (``None`` is the sequential engine)."""

    if engine is None:
        return SEQUENTIAL_SPEC
    if isinstance(engine, EngineSpec):
        return engine
    if isinstance(engine, str):
        return _parse_spelling(engine)
    raise ReproError(f"cannot interpret engine argument {engine!r}")


#: Modifier tokens a string spelling accepts after the engine kind.
#: Order-insensitive: ``"parallel+por+sym+tsym+compiled"`` and
#: ``"parallel+compiled+tsym+sym+por"`` resolve identically.
_MODIFIERS = frozenset(
    {"noreduce", "por", "sym", "tsym", "interp", "compiled"})

_REDUCTION_FLAGS = frozenset({"por", "sym", "tsym"})


def _parse_spelling(text: str) -> EngineSpec:
    """Parse a ``"+"``-joined engine spelling into an :class:`EngineSpec`.

    The first token is the engine kind; the rest are modifiers in any
    order.  Unknown or duplicated tokens raise :class:`ReproError`
    (silently ignoring a typo like ``"+smy"`` would change the explored
    reduction mode without any warning).
    """

    tokens = text.split("+")
    kind = tokens[0]
    if kind not in KINDS:
        raise ReproError(
            f"unknown engine kind {kind!r} in {text!r}; known: {KINDS}")
    seen = set()
    for tok in tokens[1:]:
        if tok not in _MODIFIERS:
            raise ReproError(
                f"unknown engine modifier {tok!r} in {text!r}; known: "
                f"{', '.join(sorted(_MODIFIERS))}")
        if tok in seen:
            raise ReproError(
                f"duplicate engine modifier {tok!r} in {text!r}")
        seen.add(tok)

    if "interp" in seen and "compiled" in seen:
        raise ReproError(
            f"conflicting semantics modifiers in {text!r}: "
            f"+interp and +compiled")
    flags = seen & _REDUCTION_FLAGS
    if "noreduce" in seen and flags:
        raise ReproError(
            f"conflicting reduction modifiers in {text!r}: +noreduce "
            f"with +{'/+'.join(sorted(flags))}")
    if "tsym" in flags and "sym" not in flags:
        raise ReproError(f"+tsym requires +sym in {text!r}")
    if "sym" in flags and "por" not in flags:
        raise ReproError(f"+sym requires +por in {text!r}")

    if "noreduce" in seen:
        reduce = REDUCE_NONE
    elif "tsym" in flags:
        reduce = REDUCE_POR_SYM_TSYM
    elif "sym" in flags:
        reduce = REDUCE_POR_SYM
    elif "por" in flags:
        reduce = REDUCE_POR
    else:
        reduce = DEFAULT_REDUCE

    if "interp" in seen:
        semantics = "interp"
    elif "compiled" in seen:
        semantics = "compiled"
    else:
        semantics = DEFAULT_SEMANTICS

    return EngineSpec(
        kind=kind,
        reduce=reduce,
        semantics=semantics,
    )

