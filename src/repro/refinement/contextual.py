"""Contextual refinement ``Π ⊑_φ Γ`` (Definition 3) and Theorem 4.

``Π ⊑_φ Γ`` holds iff for all clients, every observable trace of the
concrete program ``let Π in C1 ∥ ... ∥ Cn`` is an observable trace of the
abstract program ``with Γ do C1 ∥ ... ∥ Cn`` (with ``φ(σ_o) = θ``).  The
bounded check instantiates the quantifier with printing most-general
clients — clients that print every return value, so object behaviour
becomes observable behaviour — and decides trace inclusion on the two
prefix-closed sets.

:func:`check_equivalence_instance` exercises Theorem 4 (linearizability ⟺
contextual refinement) on one object: both properties are checked
independently and their verdicts compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..history.object_lin import ObjectLinResult, check_object_linearizable
from ..lang.ast import Stmt
from ..lang.program import ObjectImpl
from ..memory.store import Store
from ..semantics.events import Trace, format_trace, trace_order
from ..semantics.mgc import CallMenu, printing_client
from ..semantics.scheduler import Limits
from ..spec.gamma import OSpec
from ..spec.refmap import RefMap
from .observable import abstract_observables, concrete_observables


@dataclass
class RefinementResult:
    """Outcome of a bounded Definition-3 check."""

    ok: bool
    concrete_traces: int = 0
    abstract_traces: int = 0
    bounded: bool = False
    missing: Optional[Trace] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        status = "REFINES" if self.ok else "DOES NOT REFINE"
        extra = " (bounded)" if self.bounded else ""
        msg = (f"{status}{extra}: {self.concrete_traces} concrete vs "
               f"{self.abstract_traces} abstract observable traces")
        if self.missing is not None:
            msg += f"; unmatched trace: {format_trace(self.missing)}"
        if self.reason:
            msg += f" [{self.reason}]"
        return msg


def check_clients_refinement(impl: ObjectImpl, spec: OSpec,
                             clients: Tuple[Stmt, ...],
                             limits: Optional[Limits] = None,
                             client_memory: Tuple[Tuple[str, int], ...] = (),
                             private_client_vars: bool = False,
                             engine=None) -> RefinementResult:
    """Observable-trace inclusion for one fixed client vector.

    ``engine`` selects the exploration engine for the *concrete* side —
    the expensive one; the abstract side's state space is tiny and is
    always explored sequentially.
    """

    conc = concrete_observables(impl, clients, limits, client_memory,
                                private_client_vars, engine=engine)
    abst = abstract_observables(spec, clients, limits, client_memory,
                                private_client_vars)
    out = RefinementResult(ok=True,
                           concrete_traces=len(conc.traces),
                           abstract_traces=len(abst.traces),
                           bounded=conc.bounded or abst.bounded)
    for trace in sorted(conc.traces - abst.traces, key=trace_order):
        out.ok = False
        out.missing = trace
        out.reason = "concrete observable trace has no abstract counterpart"
        break
    return out


def check_contextual_refinement(impl: ObjectImpl, spec: OSpec,
                                menu: CallMenu, threads: int = 2,
                                ops_per_thread: int = 2,
                                limits: Optional[Limits] = None,
                                phi: Optional[RefMap] = None,
                                engine=None) -> RefinementResult:
    """Bounded ``Π ⊑_φ Γ`` with printing most-general clients."""

    if phi is not None:
        theta = phi.of(Store(impl.initial_memory))
        if theta is None:
            return RefinementResult(
                ok=False,
                reason="φ(σ_o) undefined: initial object memory malformed")
        if theta != spec.initial:
            return RefinementResult(
                ok=False,
                reason=f"φ(σ_o) = {theta!r} differs from Γ's initial "
                       f"abstract object {spec.initial!r}")
    clients = tuple(
        printing_client(menu, ops_per_thread, prefix=f"t{t}")
        for t in range(1, threads + 1)
    )
    return check_clients_refinement(impl, spec, clients, limits,
                                    private_client_vars=True, engine=engine)


@dataclass
class EquivalenceResult:
    """One data point for Theorem 4: both verdicts on the same object."""

    linearizable: ObjectLinResult
    refines: RefinementResult

    @property
    def consistent(self) -> bool:
        """Theorem 4 predicts the two verdicts agree."""

        return self.linearizable.ok == self.refines.ok

    def summary(self) -> str:
        agree = "AGREE" if self.consistent else "DISAGREE (!)"
        return (f"linearizable={self.linearizable.ok} "
                f"refines={self.refines.ok} -> {agree}")


def check_equivalence_instance(impl: ObjectImpl, spec: OSpec, menu: CallMenu,
                               threads: int = 2, ops_per_thread: int = 1,
                               limits: Optional[Limits] = None,
                               phi: Optional[RefMap] = None,
                               engine=None) -> EquivalenceResult:
    """Check both sides of Theorem 4 on one object and workload."""

    lin = check_object_linearizable(impl, spec, menu, threads,
                                    ops_per_thread, limits, phi,
                                    engine=engine)
    ref = check_contextual_refinement(impl, spec, menu, threads,
                                      ops_per_thread, limits, phi,
                                      engine=engine)
    return EquivalenceResult(lin, ref)
