"""State-space reduction for the exploration core.

Four composable reductions, all gated by ``EngineSpec.reduce``
(``"none" | "por" | "por+sym" | "por+sym+tsym"``, default
``"por+sym+tsym"``), plus hash-consing, which is not a reduction and is
on in every mode:

* **partial-order reduction** (:mod:`repro.reduce.ownership`) — when a
  thread's next step is *invisible* (no event, cannot abort) and its
  read/write footprint (:mod:`repro.reduce.footprint`) lies entirely in
  heap cells owned by that thread (unreachable by every other thread),
  the step is a left- and right-mover against every other thread and is
  explored first, alone, instead of interleaved with everything;
* **sleep sets** (``"por+sym+tsym"`` only) — after expanding thread
  *i* at a node, later siblings carry *i* asleep wherever the static
  footprint templates (:func:`repro.compile.lower.stmt_template`,
  :func:`footprints_independent`) prove the steps commute on the nose,
  pruning the second half of each commuting diamond;
* **address-symmetry canonicalization** (:mod:`repro.reduce.symmetry`)
  — allocated addresses are arbitrary names; configurations differing
  only by a permutation of dynamically allocated blocks are collapsed
  to one canonical representative;
* **thread-identity symmetry** (``"por+sym+tsym"``,
  :class:`ThreadPermuter`) — for programs whose clients are isomorphic
  copies (:func:`scan_thread_symmetry`), exploration proceeds in
  canonical thread-identity space: the (k+1)-th thread to emit an event
  is rotated to *be* thread k+1, and the collected trace sets are closed
  under ``Sym(n)`` (:func:`close_traces`) at the end;
* **hash-consing** (:mod:`repro.reduce.intern`, every mode including
  ``"none"``) — the explorer interns each σ_c, σ_o, frame (with its
  locals) and thread state where it makes them (step-memo misses, the
  address-shape memo, thread-identity rotation, the start nodes) and
  each successor configuration last, so equal components are one object:
  seen-set and memo lookups compare by identity, and a run keeps one
  object per distinct value (HSY 2x1 Def-3 concrete search: 1,235 live
  stores for 1,232 values, down from 13,956; EXPERIMENTS E24).  The
  witness runner interns its thread entries, σ_o and Δ.

Which reductions can be applied soundly depends on the program;
:mod:`repro.reduce.eligibility` performs the static scans and
:func:`resolve_policy` turns the requested mode into the active
:class:`ReductionPolicy`.  The soundness arguments live in the
individual modules (and in the README's "Exploration engines" section);
the enforcement is the engine-equivalence suite, which requires the
reduced engines to reproduce the exact history and observable-trace
sets of the unreduced sequential search on every registry algorithm.
"""

from .eligibility import (
    Eligibility,
    ThreadSymmetry,
    scan_program,
    scan_thread_symmetry,
)
from .footprint import Footprint, footprints_independent
from .intern import Interner
from .ownership import (
    compute_owner,
    footprint_in_object_heap,
    footprint_is_private,
)
from .policy import (
    DEFAULT_REDUCE,
    REDUCE_MODES,
    REDUCE_NONE,
    REDUCE_POR,
    REDUCE_POR_SYM,
    REDUCE_POR_SYM_TSYM,
    ReductionPolicy,
    resolve_policy,
    validate_reduce,
)
from .symmetry import (
    SYM_BASE,
    SYM_STRIDE,
    ThreadPermuter,
    canonicalize_config,
    close_traces,
    rotation,
)

__all__ = [
    "DEFAULT_REDUCE",
    "Eligibility",
    "Footprint",
    "Interner",
    "REDUCE_MODES",
    "REDUCE_NONE",
    "REDUCE_POR",
    "REDUCE_POR_SYM",
    "REDUCE_POR_SYM_TSYM",
    "ReductionPolicy",
    "SYM_BASE",
    "SYM_STRIDE",
    "ThreadPermuter",
    "ThreadSymmetry",
    "canonicalize_config",
    "close_traces",
    "compute_owner",
    "footprint_in_object_heap",
    "footprint_is_private",
    "footprints_independent",
    "resolve_policy",
    "rotation",
    "scan_program",
    "scan_thread_symmetry",
    "validate_reduce",
]
