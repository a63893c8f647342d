"""Synthesize Fig-7/Fig-11 instrumentation from an LP-inference plan.

:func:`synthesize_object` takes an *uninstrumented* :class:`ObjectImpl`
plus the plan produced by :func:`repro.analysis.lp_infer.infer_object`
and re-emits the ghost statements (``linself``/``lin(E)``/``trylinself``/
``trylin_readonly``/``commit``/``ghost``) into a fresh
:class:`~repro.instrument.runner.InstrumentedObject`.  The rebuild is
purely additive: every inserted statement comes from
:mod:`repro.instrument.commands` builders (or an ``If`` guarding one),
so erasing the result gives back the normalized input — the fixpoint
property the differential tests pin.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..instrument.runner import InstrumentedMethod, InstrumentedObject
from ..lang.ast import Atomic, If, Seq, Stmt, While, seq
from ..lang.program import ObjectImpl
from ..spec.gamma import OSpec
from ..spec.refmap import RefMap
from .lp_infer import Action, ObjectInference, Uninferable, infer_object

__all__ = ["synthesize_object", "synthesize_algorithm", "SynthesisError"]


class SynthesisError(Exception):
    """The inference plan could not be applied."""


def _group(acts: List[Action]) -> Dict[str, List[Action]]:
    out: Dict[str, List[Action]] = {}
    for a in acts:
        out.setdefault(a.op, []).append(a)
    return out


def _rebuild(s: Stmt, plan: Dict[Stmt, List[Action]]) -> Stmt:
    """Rebuild ``s`` bottom-up, splicing in the planned aux statements.

    The plan is keyed by node *identity* (statements hash by identity),
    so anchors resolve exactly even for structurally equal siblings.
    """

    ops = _group(plan.get(s, []))

    if isinstance(s, Seq):
        new: Stmt = seq(*[_rebuild(c, plan) for c in s.stmts])
    elif isinstance(s, If):
        then = _rebuild(s.then, plan)
        els = _rebuild(s.els, plan)
        for a in ops.pop("then-prepend", []):
            then = seq(*a.aux, then)
        for a in ops.pop("then-append", []):
            then = seq(then, *a.aux)
        for a in ops.pop("else-append", []):
            els = seq(els, *a.aux)
        new = If(s.cond, then, els)
    elif isinstance(s, While):
        body = _rebuild(s.body, plan)
        for a in ops.pop("loop-end", []):
            body = seq(body, *a.aux)
        new = While(s.cond, body)
    elif isinstance(s, Atomic):
        body = _rebuild(s.body, plan)
        for a in ops.pop("append", []):
            body = seq(body, *a.aux)
        new = Atomic(body)
    else:
        new = s
        for a in ops.pop("append", []):
            # A bare primitive grows an atomic block around itself so the
            # ghost effect happens in the same step.
            new = Atomic(seq(new, *a.aux)) if not isinstance(new, Atomic) \
                else Atomic(seq(new.body, *a.aux))

    pre = [st for a in ops.pop("before", []) for st in a.aux]
    post = [st for a in ops.pop("after", []) for st in a.aux]
    if pre or post:
        new = seq(*pre, new, *post)
    if ops:
        raise SynthesisError(
            f"unapplicable synthesis ops {sorted(ops)} on "
            f"{type(s).__name__}")
    return new


def synthesize_object(impl: ObjectImpl, spec: OSpec,
                      phi: Optional[RefMap] = None,
                      inference: Optional[ObjectInference] = None,
                      name: Optional[str] = None) -> InstrumentedObject:
    """Infer LPs for ``impl`` and emit the instrumented object."""

    inf = inference if inference is not None \
        else infer_object(impl, name=name)
    if not inf.ok:
        raise Uninferable(inf.reason)
    analyzed = getattr(inf, "analyzed", None)
    if analyzed is None:
        raise SynthesisError(
            "inference result carries no analyzed copy; pass the "
            "ObjectInference returned by infer_object")
    methods = {}
    for mname, d in analyzed.methods.items():
        body = _rebuild(d.body, inf.actions)
        methods[mname] = InstrumentedMethod(d.name, d.param, d.locals, body)
    return InstrumentedObject(name or impl.name, methods, spec,
                              initial_memory=impl.initial_memory, phi=phi)


def synthesize_algorithm(alg,
                         inference: Optional[ObjectInference] = None
                         ) -> InstrumentedObject:
    """Erase-and-resynthesize for a registry algorithm."""

    return synthesize_object(alg.impl, alg.spec, phi=alg.phi,
                             inference=inference, name=alg.name)
