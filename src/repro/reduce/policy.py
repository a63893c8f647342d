"""Reduction modes and per-program policy resolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from .eligibility import scan_program, scan_thread_symmetry
from .symmetry import SYM_BASE, SYM_STRIDE

REDUCE_NONE = "none"
REDUCE_POR = "por"
REDUCE_POR_SYM = "por+sym"
REDUCE_POR_SYM_TSYM = "por+sym+tsym"
REDUCE_MODES = (REDUCE_NONE, REDUCE_POR, REDUCE_POR_SYM,
                REDUCE_POR_SYM_TSYM)

#: Default for sequential and parallel engines: everything on.  The
#: eligibility scan silently drops whatever a given program cannot
#: support, so the default is always safe.
DEFAULT_REDUCE = REDUCE_POR_SYM_TSYM


def validate_reduce(mode: str) -> str:
    if mode not in REDUCE_MODES:
        raise ValueError(
            f"unknown reduction mode {mode!r}; expected one of "
            f"{', '.join(REDUCE_MODES)}")
    return mode


@dataclass(frozen=True)
class ReductionPolicy:
    """The reductions actually active for one program.

    ``mode`` is what was requested; ``por``/``sym``/``intern`` are what
    the eligibility scan allowed.  ``alloc`` is the ``(base, stride)``
    the sparse allocator uses for method-code allocations under
    symmetry, or ``None`` for the ordinary dense allocator.
    """

    mode: str
    por: bool = False
    sym: bool = False
    tsym: bool = False
    sleep: bool = False
    intern: bool = False
    max_offset: int = 0
    value_consts: FrozenSet[int] = frozenset()
    alloc: Optional[Tuple[int, int]] = None
    quarantine: bool = False
    reasons: Tuple[str, ...] = ()

    @property
    def active(self) -> bool:
        return self.por or self.sym or self.intern

    @property
    def effective(self) -> str:
        """The mode actually in force after eligibility filtering.

        Known quirk: a ``por+sym+tsym`` request on a tsym-ineligible
        program reports ``por+sym`` even though sleep sets stay active —
        sleep sets are sound whenever the ample rule is, and memo keys
        use the *requested* mode, so the two never share a cache entry.
        """
        if self.por and self.sym and self.tsym:
            return REDUCE_POR_SYM_TSYM
        if self.por and self.sym:
            return REDUCE_POR_SYM
        if self.por:
            return REDUCE_POR
        return REDUCE_NONE


INERT_POLICY = ReductionPolicy(mode=REDUCE_NONE)


def resolve_policy(program, mode: Optional[str]) -> ReductionPolicy:
    """Resolve a requested mode against ``program``'s eligibility."""

    if mode is None:
        mode = DEFAULT_REDUCE
    validate_reduce(mode)
    if mode == REDUCE_NONE:
        return INERT_POLICY

    elig = scan_program(program)
    por = elig.por
    want_sym = mode in (REDUCE_POR_SYM, REDUCE_POR_SYM_TSYM)
    sym = want_sym and elig.sym
    tsym = False
    reasons = elig.reasons
    if mode == REDUCE_POR_SYM_TSYM and sym:
        ts = scan_thread_symmetry(program)
        tsym = ts.ok
        if not ts.ok:
            reasons = reasons + tuple(
                f"tsym off: {r}" for r in ts.reasons)
    return ReductionPolicy(
        mode=mode,
        por=por,
        sym=sym,
        tsym=tsym,
        sleep=mode == REDUCE_POR_SYM_TSYM and por,
        intern=True,
        max_offset=elig.max_offset,
        value_consts=elig.value_consts,
        alloc=(SYM_BASE, SYM_STRIDE) if sym else None,
        quarantine=sym and elig.has_dispose,
        reasons=tuple(sorted(set(reasons))),
    )
