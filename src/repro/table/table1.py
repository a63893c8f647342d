"""Regenerate Table 1: "Verified Algorithms Using Our Logic".

The paper's evaluation is the table of 12 algorithms with their feature
flags (Helping, future-dependent LPs, java.util.concurrent, HS-book).
:func:`build_table1` reruns the verification pipeline for each row and
reports the paper's flags side by side with the mechanical outcome.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..algorithms.base import VerificationReport
from ..algorithms.registry import (
    algorithm_names,
    get_algorithm,
    synthesized_names,
)
from ..semantics.scheduler import Limits


@dataclass
class Table1Row:
    name: str
    display_name: str
    helping: bool
    future_lp: bool
    java_pkg: bool
    hs_book: bool
    verified: bool
    #: The full pipeline outcome; the JSON row reads the Definition-2
    #: check's search record (``report.linearizability``) from it.
    report: VerificationReport
    seconds: float
    workload: str
    #: True when any exploration behind this verdict was cut by a bound
    #: (max_depth / max_nodes) — the verdict then means "no violation
    #: found up to the bound", not an exhaustive statement.
    bounded: bool = False
    #: Which exploration engine produced the verdict.
    engine: str = "sequential"
    #: False when a sampling engine (random-walk) produced the verdict.
    exhaustive: bool = True
    #: Static-analysis diagnostic keys (``source:method:code``) from the
    #: instrumentation linter and the race lint.  Empty for every
    #: verified Table-1 algorithm; non-empty flags a row whose
    #: instrumentation or synchronization the static layer rejects.
    diagnostics: Tuple[str, ...] = ()
    #: Statically inferred LP discipline of the plain code (the join
    #: over the object's methods): "fixed" | "read-only" |
    #: "speculative" | "helping", or "uninferable" when the program is
    #: outside the recognized fragment.
    lp_discipline: str = ""
    #: Instrumentation provenance: "hand" (the 12 paper rows) or
    #: "synthesized" (ghost statements generated by the LP inference).
    source: str = "hand"

    @staticmethod
    def _tick(flag: bool) -> str:
        return "Y" if flag else ""


def verify_row(name: str, limits: Optional[Limits] = None,
               engine=None) -> Table1Row:
    from ..analysis.diagnostics import analyze_algorithm
    from ..analysis.lp_infer import infer_algorithm
    from ..engine.api import resolve_engine

    alg = get_algorithm(name)
    analysis = analyze_algorithm(alg)
    inference = infer_algorithm(alg)
    start = time.perf_counter()
    report = alg.verify(limits=limits, engine=engine)
    elapsed = time.perf_counter() - start
    return Table1Row(
        diagnostics=tuple(sorted(d.key()
                                 for d in analysis.diagnostics)),
        lp_discipline=inference.discipline,
        source=alg.source,
        name=alg.name,
        display_name=alg.display_name,
        helping=alg.helping,
        future_lp=alg.future_lp,
        java_pkg=alg.java_pkg,
        hs_book=alg.hs_book,
        verified=report.ok,
        report=report,
        seconds=elapsed,
        workload=alg.workload.describe(),
        bounded=(report.instrumented.bounded
                 or report.linearizability.bounded),
        engine=resolve_engine(engine).kind,
        exhaustive=(report.instrumented.exhaustive
                    and report.linearizability.exhaustive),
    )


def build_table1(names: Optional[Sequence[str]] = None,
                 limits: Optional[Limits] = None,
                 engine=None,
                 include_synthesized: bool = False) -> List[Table1Row]:
    if names is None:
        names = algorithm_names()
        if include_synthesized:
            names = names + synthesized_names()
    return [verify_row(name, limits, engine=engine) for name in names]


def render_table1(rows: Sequence[Table1Row], timings: bool = True) -> str:
    """Plain-text rendering in the paper's layout.

    A ``Bounded`` column reports whether a bound cut each row's
    exploration; sampled (non-exhaustive) verdicts are marked
    ``Y (sampled)`` in the Verified column.
    """

    tick = Table1Row._tick
    header = ["Objects", "Helping", "Fut. LP", "Java Pkg", "HS Book",
              "Verified", "Bounded"]
    if timings:
        header.append("Time (s)")

    def line_of(row):
        if row.verified:
            verdict = "Y" if row.exhaustive else "Y (sampled)"
        else:
            verdict = "FAILED"
        line = [row.display_name, tick(row.helping), tick(row.future_lp),
                tick(row.java_pkg), tick(row.hs_book), verdict,
                tick(row.bounded)]
        if timings:
            line.append(f"{row.seconds:.1f}")
        return line

    hand = [line_of(r) for r in rows if r.source == "hand"]
    synth = [line_of(r) for r in rows if r.source != "hand"]
    label = "(synthesized instrumentation)"
    widths = [max(len(r[i]) for r in [header] + hand + synth)
              for i in range(len(header))]
    if synth:
        widths[0] = max(widths[0], len(label))

    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    rule = "-+-".join("-" * w for w in widths)
    lines = [fmt(header), rule] + [fmt(r) for r in hand]
    if synth:
        # Synthesized-instrumentation rows are reported separately from
        # the 12 hand-instrumented paper rows.
        lines += [rule, fmt([label] + [""] * (len(header) - 1))]
        lines += [fmt(r) for r in synth]
    return "\n".join(lines)


def table1_json(rows: Sequence[Table1Row]) -> List[dict]:
    """Machine-readable rows (for benchmark artifacts and CI smoke).

    The reduction and perf fields are the Definition-2 check's
    :class:`~repro.semantics.search.SearchStats`: ``reduce`` is the mode
    that was *effective* ("none" outside the eligible fragment) and
    ``reduce_reasons`` why the eligibility scan held reductions back.
    """

    out = []
    for row in rows:
        lin = row.report.linearizability
        out.append({
            "name": row.name,
            "display_name": row.display_name,
            "helping": row.helping,
            "future_lp": row.future_lp,
            "java_pkg": row.java_pkg,
            "hs_book": row.hs_book,
            "verified": row.verified,
            "bounded": row.bounded,
            "engine": row.engine,
            "exhaustive": row.exhaustive,
            "seconds": row.seconds,
            "workload": row.workload,
            "reduce": lin.reduce,
            "nodes": lin.nodes,
            "nodes_per_sec": round(lin.nodes_per_sec, 1),
            "por_pruned": lin.por_pruned,
            "sym_merged": lin.sym_merged,
            "sleep_skipped": lin.sleep_skipped,
            "tsym_merged": lin.tsym_merged,
            "reexplored": lin.reexplored,
            "dedup_hit_rate": round(lin.dedup_hit_rate, 4),
            "reduce_reasons": list(lin.reduce_reasons),
            "diagnostics": list(row.diagnostics),
            "lp_discipline": row.lp_discipline,
            "source": row.source,
        })
    return out


#: The paper's Table 1 feature matrix, for cross-checking our registry.
PAPER_TABLE1 = {
    "treiber":              dict(helping=False, future_lp=False,
                                 java_pkg=False, hs_book=True),
    "hsy_stack":            dict(helping=True, future_lp=False,
                                 java_pkg=False, hs_book=True),
    "ms_two_lock_queue":    dict(helping=False, future_lp=False,
                                 java_pkg=False, hs_book=True),
    "ms_lock_free_queue":   dict(helping=False, future_lp=True,
                                 java_pkg=True, hs_book=True),
    "dglm_queue":           dict(helping=False, future_lp=True,
                                 java_pkg=False, hs_book=False),
    "lock_coupling_list":   dict(helping=False, future_lp=False,
                                 java_pkg=False, hs_book=True),
    "optimistic_list":      dict(helping=False, future_lp=False,
                                 java_pkg=False, hs_book=True),
    "lazy_list":            dict(helping=True, future_lp=True,
                                 java_pkg=False, hs_book=True),
    "harris_michael_list":  dict(helping=True, future_lp=True,
                                 java_pkg=True, hs_book=True),
    "pair_snapshot":        dict(helping=False, future_lp=True,
                                 java_pkg=False, hs_book=False),
    "ccas":                 dict(helping=True, future_lp=True,
                                 java_pkg=False, hs_book=False),
    "rdcss":                dict(helping=True, future_lp=True,
                                 java_pkg=False, hs_book=False),
}


def check_feature_matrix() -> List[str]:
    """Compare our registry's flags against the paper's Table 1."""

    problems = []
    for name, flags in PAPER_TABLE1.items():
        alg = get_algorithm(name)
        ours = dict(helping=alg.helping, future_lp=alg.future_lp,
                    java_pkg=alg.java_pkg, hs_book=alg.hs_book)
        if ours != flags:
            problems.append(f"{name}: registry {ours} != paper {flags}")
    return problems
