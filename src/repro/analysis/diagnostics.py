"""Per-algorithm diagnostics report aggregating the analysis passes.

:class:`Diagnostic` is the one currency all passes trade in; the
``analyze_*`` helpers below bundle the instrumentation linter, the race
lint and the field-sensitive escape analysis into the per-algorithm
report the CLI (``python -m repro.analysis``) and the Table-1 pipeline
surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    source: str   # "lint" | "races"
    method: str   # method (or client) the finding is in
    code: str     # stable machine-readable kind, e.g. "no-self-lin"
    message: str  # human-readable explanation

    def render(self) -> str:
        return f"[{self.source}:{self.code}] {self.method}: {self.message}"

    def key(self) -> str:
        """Baseline identity: stable across message-wording changes."""

        return f"{self.source}:{self.method}:{self.code}"


@dataclass
class AnalysisReport:
    """Everything the static layer has to say about one algorithm."""

    name: str
    lint: List[Diagnostic] = field(default_factory=list)
    races: List[Diagnostic] = field(default_factory=list)
    escape: Optional[dict] = None
    eligibility: Optional[dict] = None

    @property
    def diagnostics(self) -> List[Diagnostic]:
        return list(self.lint) + list(self.races)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def to_json(self) -> dict:
        out: Dict[str, object] = {
            "name": self.name,
            "lint": sorted(d.key() for d in self.lint),
            "races": sorted(d.key() for d in self.races),
        }
        if self.escape is not None:
            out["escape"] = self.escape
        if self.eligibility is not None:
            out["eligibility"] = self.eligibility
        return out

    def summary(self) -> str:
        if self.clean:
            return f"{self.name}: clean"
        lines = [f"{self.name}: {len(self.diagnostics)} diagnostic(s)"]
        lines += [f"  {d.render()}" for d in self.diagnostics]
        return "\n".join(lines)


def analyze_object(name, instrumented=None, impl=None, menu=None,
                   threads: int = 2, ops_per_thread: int = 1) \
        -> AnalysisReport:
    """Run every applicable pass over one object.

    ``instrumented`` feeds the instrumentation linter; ``impl`` (+
    ``menu`` for a most-general-client program) feeds the race lint,
    the escape analysis and the eligibility verdict.  Either may be
    omitted.
    """

    from .lint import lint_instrumented
    from .races import lint_races

    report = AnalysisReport(name=name)
    if instrumented is not None:
        report.lint = lint_instrumented(instrumented)
    if impl is not None:
        report.races = lint_races(impl)
        if menu is not None:
            from ..reduce.eligibility import scan_program
            from ..semantics.mgc import mgc_program
            from .escape import analyze_escape

            program = mgc_program(impl, menu, threads=threads,
                                  ops_per_thread=ops_per_thread)
            elig = scan_program(program)
            report.eligibility = {
                "por": elig.por,
                "sym": elig.sym,
                "max_offset": elig.max_offset,
                "reasons": list(elig.reasons),
            }
            if elig.por:
                esc = analyze_escape(program)
                if esc.ok:
                    report.escape = {
                        "field_offset": esc.field_offset,
                        "static_cells": sorted(esc.static_cells),
                        "sites": len(esc.sites),
                    }
    return report


def _algorithm_target(algorithm) -> dict:
    """:func:`analyze_object`'s keywords for a registry :class:`Algorithm`."""

    return dict(
        instrumented=algorithm.instrumented,
        impl=algorithm.impl,
        menu=algorithm.workload.menu,
        threads=algorithm.workload.threads,
        ops_per_thread=algorithm.workload.ops_per_thread,
    )


def analyze_algorithm(algorithm) -> AnalysisReport:
    """The full report for one registry :class:`Algorithm`."""

    return analyze_object(algorithm.name, **_algorithm_target(algorithm))


def builtin_extra_targets() -> List[Tuple[str, dict]]:
    """Non-registry objects the CLI and CI baseline also cover.

    These are the ``examples/`` subjects: the Sec-2.4 counter pair (the
    racy one **must** keep firing — it is the positive control for the
    race lint) and its instrumented variants.
    """

    from ..algorithms.counter_nonatomic import (
        atomic_counter,
        instrumented_atomic_counter,
        instrumented_racy_counter,
        racy_counter,
    )

    menu = [("inc", 0)]
    return [
        ("racy_counter", dict(instrumented=instrumented_racy_counter(),
                              impl=racy_counter(), menu=menu)),
        ("atomic_counter", dict(instrumented=instrumented_atomic_counter(),
                                impl=atomic_counter(), menu=menu)),
    ]


def analysis_targets(names=None) -> List[Tuple[str, dict]]:
    """``(name, keywords for analyze_object)`` for the named targets
    (default: the registry, hand and synthesized, then the builtin
    extras); a name in neither set raises
    :class:`~repro.errors.ReproError` listing both."""

    from ..algorithms import algorithm_names, get_algorithm
    from ..errors import ReproError

    registry = algorithm_names(include_synthesized=True)
    extras = dict(builtin_extra_targets())
    out = []
    for name in (names or registry + list(extras)):
        if name in extras:
            out.append((name, extras[name]))
        elif name in registry:
            out.append((name, _algorithm_target(get_algorithm(name))))
        else:
            raise ReproError(
                f"unknown target {name!r}; known: registry {registry}, "
                f"builtin extras {list(extras)}")
    return out


def analyze_all(names=None) -> List[AnalysisReport]:
    """Reports for the named targets (default: every registry algorithm
    plus the builtin extras — see :func:`analysis_targets`)."""

    return [analyze_object(name, **target)
            for name, target in analysis_targets(names)]
