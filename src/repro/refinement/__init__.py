"""Contextual refinement (Def. 3) and the Theorem-4 equivalence harness."""

from .contextual import (
    EquivalenceResult,
    RefinementResult,
    check_clients_refinement,
    check_contextual_refinement,
    check_equivalence_instance,
)
from .observable import abstract_observables, concrete_observables

__all__ = [
    "EquivalenceResult", "RefinementResult", "check_clients_refinement",
    "check_contextual_refinement", "check_equivalence_instance",
    "abstract_observables", "concrete_observables",
]
