"""The benchmark's workloads: fixed lists of checks with known answers.

Each row runs one decider on one object at one most-general-client size
and carries the verdict the paper predicts:

* ``product``    -- Def-2 linearizability, the product engine with the
  Δ/Σ speculation monitor (``check_program_linearizable``);
* ``refinement`` -- Def-3 contextual refinement with printing clients
  (``check_clients_refinement``);
* ``witness``    -- the Fig-11 instrumented witness runner
  (``InstrumentedRunner.run`` with the row's invariant and guarantee).

Every Table-1 row is linearizable, refines and has a passing witness.
The Sec-2.4 racy counter is refused by all three deciders; its witness
fails at the ``return`` obligation.

This module imports nothing from ``repro``: the parent process reads it
to name the workloads, and only the child processes pay for the import.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: The default sequential engine: every reduction the program's
#: eligibility allows, compiled stepping, no memo cache.
SEQUENTIAL = ("sequential", "por+sym+tsym", 0)
#: Unreduced sequential search, for rows that no reduction may touch.
UNREDUCED = ("sequential", "none", 0)
#: The parallel driver at two worker processes.
PARALLEL_2 = ("parallel", "por+sym+tsym", 2)

#: The registry name standing for the Sec-2.4 racy counter.
RACY = "racy_counter"


@dataclass(frozen=True)
class Row:
    """One check: ``decider`` on ``algorithm`` at ``threads`` x ``ops``."""

    decider: str
    algorithm: str
    threads: int
    ops: int
    #: The known verdict: True = linearizable / refines / witness holds.
    expect_ok: bool
    #: ``(kind, reduce, workers)`` of the pinned engine.
    engine: Tuple[str, str, int] = SEQUENTIAL
    #: For a witness row that must fail: the failing obligation's kind.
    expect_failure: Optional[str] = None
    #: Kept in the 2x1 smoke size (rows whose 2x1 size takes several
    #: seconds are left out of it).
    smoke: bool = True

    @property
    def name(self) -> str:
        return f"{self.algorithm}:{self.threads}x{self.ops}"

    @property
    def exact(self) -> bool:
        """Node and history counts are exact only for sequential engines."""

        return self.engine[0] == "sequential"


def _product(alg, threads, ops, engine=SEQUENTIAL, **kw) -> Row:
    return Row("product", alg, threads, ops, alg != RACY, engine, **kw)


def _refinement(alg, threads, ops, engine=SEQUENTIAL, **kw) -> Row:
    return Row("refinement", alg, threads, ops, alg != RACY, engine, **kw)


def _witness(alg, threads, ops, **kw) -> Row:
    if alg == RACY:
        return Row("witness", alg, threads, ops, False,
                   expect_failure="return", **kw)
    return Row("witness", alg, threads, ops, True, **kw)


#: Workloads the benchmark gates (named in BENCHMARK.json).  Row sizes
#: are chosen so one pass takes about five seconds on a 2-core box.
WORKLOADS: Dict[str, Tuple[Row, ...]] = {
    # The parallel row is the smallest product row that outgrows the
    # driver's 2,000-node sequential warm-up (4,530 nodes), so it runs
    # the pool while adding little of the parallel driver's timing noise.
    "product": (
        _product("treiber", 3, 1),
        _product("ms_lock_free_queue", 2, 1),
        _product("hsy_stack", 2, 1, smoke=False),
        _product(RACY, 3, 1),
        _product("pair_snapshot", 2, 2, engine=PARALLEL_2),
    ),
    "refinement": (
        _refinement("treiber", 2, 1),
        _refinement("hsy_stack", 2, 1, smoke=False),
        _refinement("pair_snapshot", 2, 1, engine=UNREDUCED),
        _refinement(RACY, 3, 1),
    ),
    "witness": (
        _witness("treiber", 2, 1),
        _witness("hsy_stack", 2, 1, smoke=False),
        _witness("ccas", 2, 1),
        _witness("pair_snapshot", 2, 2),
        _witness(RACY, 2, 1),
    ),
}

#: Workloads run by hand for NOTES.md and never gated: the larger rows
#: whose single check outlasts a benchmark run.
NOTES_WORKLOADS: Dict[str, Tuple[Row, ...]] = {
    "notes-ms-3x1": (
        _product("ms_lock_free_queue", 3, 1),
        _product("ms_lock_free_queue", 3, 1,
                 engine=("sequential", "por+sym", 0)),
    ),
    "notes-product-large": (
        _product("treiber", 3, 1),
        _product("ms_lock_free_queue", 2, 2),
        _product("hsy_stack", 2, 1),
    ),
    "notes-parallel-large": (
        _product("treiber", 3, 1, engine=PARALLEL_2),
        _product("ms_lock_free_queue", 2, 2, engine=PARALLEL_2),
        _product("hsy_stack", 2, 1, engine=PARALLEL_2),
    ),
}

SIZES = ("full", "smoke")


def rows_for(workload: str, size: str = "full") -> Tuple[Row, ...]:
    """The rows of ``workload`` at ``size`` (``smoke``: sequential rows
    at 2x1; a parallel row keeps its size, since at 2x1 it would finish
    inside the driver's sequential warm-up)."""

    rows = {**WORKLOADS, **NOTES_WORKLOADS}[workload]
    if size == "smoke":
        rows = tuple(r if r.engine[0] == "parallel"
                     else replace(r, threads=2, ops=1)
                     for r in rows if r.smoke)
    return rows


def judge(row: Row, check: dict) -> str:
    """Why ``check`` (a child's per-check record) misses ``row``'s known
    answer; ``""`` when it matches.

    A check fails when it raised, when it ended ``bounded`` (the bound
    cut the search, so the verdict is not the exhaustive one), when its
    verdict differs from the paper's, or when a witness that must fail
    failed at another obligation.
    """

    if check.get("error"):
        return f"raised {check['error']}"
    if check["bounded"]:
        return "bounded"
    if check["ok"] != row.expect_ok:
        want = "holds" if row.expect_ok else "is refused"
        return f"verdict {check['ok']}, but the {row.decider} check {want}"
    if row.expect_failure and check.get("failure") != row.expect_failure:
        return (f"failed at {check.get('failure')!r}, expected "
                f"{row.expect_failure!r}")
    return ""
