"""Observable behaviours ``O[[W, (σ_c, σ_o)]]`` and ``O[[𝕎, (σ_c, θ)]]``.

Both are prefix-closed sets of observable event traces (outputs and
faults), extracted by bounded exploration.  Prefix closure makes bounded
comparison sound: if a cut concrete trace has an observable prefix the
abstract side cannot produce, the inclusion genuinely fails; conversely
missing *extensions* beyond the bound are reported via ``bounded``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..lang.ast import Stmt
from ..lang.program import ObjectImpl, Program
from ..semantics.abstract import (
    AbsExplorationResult,
    AbstractProgram,
    explore_abstract,
)
from ..semantics.scheduler import ExplorationResult, Limits, explore
from ..spec.gamma import OSpec


def concrete_observables(impl: ObjectImpl, clients: Tuple[Stmt, ...],
                         limits: Optional[Limits] = None,
                         client_memory: Tuple[Tuple[str, int], ...] = (),
                         private_client_vars: bool = False,
                         engine=None) -> ExplorationResult:
    """``O[[let Π in C1 ∥ ... ∥ Cn]]`` up to the exploration bound: the
    exploration's ``observables``."""

    program = Program(impl, clients, client_memory, private_client_vars)
    return explore(program, limits, engine=engine)


def abstract_observables(spec: OSpec, clients: Tuple[Stmt, ...],
                         limits: Optional[Limits] = None,
                         client_memory: Tuple[Tuple[str, int], ...] = (),
                         private_client_vars: bool = False
                         ) -> AbsExplorationResult:
    """``O[[with Γ do C1 ∥ ... ∥ Cn]]`` up to the exploration bound: the
    abstract exploration's ``observables``."""

    program = AbstractProgram(spec, clients, client_memory,
                              private_client_vars)
    return explore_abstract(program, limits)
