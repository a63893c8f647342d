"""Pretty-printer: render methods back as paper-style listings.

Used by the Fig. 1/13/14 benches and the examples to *regenerate* the
paper's instrumented-code figures directly from the algorithm registry,
so the listings in the output provably match what was verified.

Also renders the exploration performance counters
(:func:`render_perf`) that the reduced engines report — throughput,
dedup hit rate, and how much each reduction pruned.
"""

from __future__ import annotations

from typing import List, Union

from .instrument.commands import (
    Commit,
    Ghost,
    Lin,
    LinSelf,
    TryLin,
    TryLinReadOnly,
    TryLinSelf,
)
from .instrument.runner import InstrumentedMethod
from .lang.ast import (
    Alloc,
    Assign,
    Assume,
    Atomic,
    Call,
    Dispose,
    If,
    Load,
    NondetChoice,
    Noret,
    Print,
    Return,
    Seq,
    Skip,
    Stmt,
    Store,
    While,
)
from .lang.program import MethodDef
from .semantics.search import SearchStats

INDENT = "  "


def _line(depth: int, text: str) -> str:
    return INDENT * depth + text


def render_stmt(stmt: Stmt, depth: int = 0) -> List[str]:
    """Render one statement as a list of source lines."""

    if isinstance(stmt, Seq):
        out: List[str] = []
        for s in stmt.stmts:
            out.extend(render_stmt(s, depth))
        return out
    if isinstance(stmt, Skip):
        return [_line(depth, "skip;")]
    if isinstance(stmt, Assign):
        return [_line(depth, f"{stmt.var} := {stmt.expr};")]
    if isinstance(stmt, Load):
        return [_line(depth, f"{stmt.var} := [{stmt.addr}];")]
    if isinstance(stmt, Store):
        return [_line(depth, f"[{stmt.addr}] := {stmt.expr};")]
    if isinstance(stmt, Alloc):
        args = ", ".join(str(e) for e in stmt.inits)
        return [_line(depth, f"{stmt.var} := cons({args});")]
    if isinstance(stmt, Dispose):
        return [_line(depth, f"dispose({stmt.addr});")]
    if isinstance(stmt, Assume):
        return [_line(depth, f"assume({stmt.cond});")]
    if isinstance(stmt, NondetChoice):
        args = ", ".join(str(e) for e in stmt.choices)
        return [_line(depth, f"{stmt.var} := nondet({args});")]
    if isinstance(stmt, Return):
        return [_line(depth, f"return {stmt.expr};")]
    if isinstance(stmt, Noret):
        return [_line(depth, "noret;")]
    if isinstance(stmt, Print):
        return [_line(depth, f"print({stmt.expr});")]
    if isinstance(stmt, Call):
        return [_line(depth, f"{stmt.var or '_'} := "
                             f"{stmt.method}({stmt.arg});")]
    if isinstance(stmt, If):
        out = [_line(depth, f"if ({stmt.cond}) {{")]
        out.extend(render_stmt(stmt.then, depth + 1))
        if not isinstance(stmt.els, Skip):
            out.append(_line(depth, "} else {"))
            out.extend(render_stmt(stmt.els, depth + 1))
        out.append(_line(depth, "}"))
        return out
    if isinstance(stmt, While):
        out = [_line(depth, f"while ({stmt.cond}) {{")]
        out.extend(render_stmt(stmt.body, depth + 1))
        out.append(_line(depth, "}"))
        return out
    if isinstance(stmt, Atomic):
        inner = render_stmt(stmt.body, depth + 1)
        if len(inner) == 1:
            return [_line(depth, f"< {inner[0].strip()} >")]
        return ([_line(depth, "<")] + inner + [_line(depth, ">")])
    # auxiliary commands
    if isinstance(stmt, LinSelf):
        return [_line(depth, "linself;")]
    if isinstance(stmt, Lin):
        return [_line(depth, f"lin({stmt.tid});")]
    if isinstance(stmt, TryLinSelf):
        return [_line(depth, "trylinself;")]
    if isinstance(stmt, TryLin):
        return [_line(depth, f"trylin({stmt.tid});")]
    if isinstance(stmt, TryLinReadOnly):
        return [_line(depth, f"trylin_ro({stmt.method});")]
    if isinstance(stmt, Commit):
        return [_line(depth, f"commit({stmt.assertion});")]
    if isinstance(stmt, Ghost):
        inner = render_stmt(stmt.stmt, 0)
        body = " ".join(line.strip() for line in inner)
        return [_line(depth, f"ghost {{ {body} }}")]
    return [_line(depth, f"/* {stmt!r} */")]


def render_method(method: Union[MethodDef, InstrumentedMethod]) -> str:
    """Render a (possibly instrumented) method as a full listing."""

    lines = [f"{method.name}({method.param}) {{"]
    if method.locals:
        lines.append(_line(1, f"local {', '.join(method.locals)};"))
    lines.extend(render_stmt(method.body, 1))
    lines.append("}")
    return "\n".join(lines)


def render_object(methods, title: str = "") -> str:
    """Render several methods, optionally under a title banner."""

    parts = []
    if title:
        parts.append(f"// {title}")
    for method in methods:
        parts.append(render_method(method))
    return "\n\n".join(parts)


def render_perf(result: SearchStats) -> str:
    """One-line performance summary of a decider's result.

    Works for every result (each is a
    :class:`~repro.semantics.search.SearchStats`): node throughput,
    seen-set hit rate, and — when a reduction was active — how many
    successor edges partial-order reduction pruned and how many
    configurations address-symmetry canonicalization merged.

    A result with zero elapsed time (a search that expanded nothing)
    omits every per-time rate (never a division by zero).
    """

    parts = [f"nodes={result.nodes}"]
    if result.nodes_per_sec:
        parts.append(f"nodes/sec={result.nodes_per_sec:,.0f}")
    if result.dedup_lookups:
        parts.append(f"dedup-hit-rate={result.dedup_hit_rate:.1%}")
    parts.append(f"reduce={result.reduce}")
    if result.reduce != "none":
        parts.append(f"por-pruned={result.por_pruned}")
        parts.append(f"sym-merged={result.sym_merged}")
        if result.sleep_skipped:
            parts.append(f"sleep-skipped={result.sleep_skipped}")
        if result.tsym_merged:
            parts.append(f"tsym-merged={result.tsym_merged}")
    if result.reexplored:
        parts.append(f"reexplored={result.reexplored}")
    if result.reduce_reasons:
        parts.append("reduce-held-back=["
                     + "; ".join(result.reduce_reasons) + "]")
    return "  ".join(parts)
