"""One walker for statement trees of the object language.

Every static pass over method and client bodies (the reduction
eligibility scan, the thread-symmetry node tables, the lint, race and
escape analyses, LP inference) enumerates statements and collects the
variables they mention through these functions, so the passes agree on
node order and on what a statement reads and writes.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Set, Tuple, Union

from .ast import (
    Alloc,
    Assign,
    Assume,
    Atomic,
    BoolExpr,
    Call,
    Dispose,
    Expr,
    If,
    Load,
    NondetChoice,
    Print,
    Return,
    Seq,
    Skip,
    Stmt,
    Store,
    While,
)

#: The reserved local every method frame binds to the calling thread's id.
CID = "cid"


def iter_stmts(stmt: Stmt) -> Iterator[Stmt]:
    """Every node of ``stmt``'s tree in pre-order.

    A sequence comes before its items, ``then`` before ``else``, and the
    walk enters loop, atomic and ``ghost`` bodies.  The order is part of
    the contract: thread-symmetry node tables index client nodes by it.
    """

    # The instrumented language is layered above this module.
    from ..instrument.commands import Ghost

    stack = [stmt]
    while stack:
        s = stack.pop()
        yield s
        if isinstance(s, Seq):
            stack.extend(reversed(s.stmts))
        elif isinstance(s, If):
            stack.append(s.els)
            stack.append(s.then)
        elif isinstance(s, (While, Atomic)):
            stack.append(s.body)
        elif isinstance(s, Ghost):
            stack.append(s.stmt)


def seq_items(s: Stmt) -> List[Stmt]:
    """The statements ``s`` runs in order at its own level: a sequence's
    items, nothing for ``skip``, otherwise ``s`` itself."""

    if isinstance(s, Seq):
        return list(s.stmts)
    if isinstance(s, Skip):
        return []
    return [s]


def stmt_exprs(s: Stmt) -> Tuple[Union[Expr, BoolExpr], ...]:
    """The expressions the node ``s`` itself evaluates, in source order
    (not those of nested statements)."""

    if isinstance(s, (If, While, Assume)):
        return (s.cond,)
    if isinstance(s, (Assign, Return, Print)):
        return (s.expr,)
    if isinstance(s, (Load, Dispose)):
        return (s.addr,)
    if isinstance(s, Store):
        return (s.addr, s.expr)
    if isinstance(s, Alloc):
        return s.inits
    if isinstance(s, NondetChoice):
        return s.choices
    if isinstance(s, Call) and s.arg is not None:
        return (s.arg,)
    return ()


def defined_var(s: Stmt) -> Optional[str]:
    """The variable the node ``s`` writes, if any."""

    if isinstance(s, (Assign, Load, Alloc, NondetChoice, Call)):
        return s.var or None
    return None


def defined_vars(stmt: Stmt) -> Set[str]:
    """Every variable ``stmt``'s tree writes."""

    out = {defined_var(s) for s in iter_stmts(stmt)}
    out.discard(None)
    return out


def stmt_vars(stmt: Stmt) -> Set[str]:
    """Every variable ``stmt``'s tree mentions, written or read."""

    out: Set[str] = set()
    for s in iter_stmts(stmt):
        var = defined_var(s)
        if var is not None:
            out.add(var)
        for e in stmt_exprs(s):
            out |= e.free_vars()
    return out


def method_locals(mdef) -> FrozenSet[str]:
    """A method's declared locals, its parameter, ``cid`` and every
    variable its body writes (implicit locals, and shared variables the
    caller subtracts)."""

    return frozenset({mdef.param, CID, *mdef.locals}
                     | defined_vars(mdef.body))
