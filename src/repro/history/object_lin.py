"""Definition 2 — bounded object linearizability checking.

``Π ≼_φ Γ`` quantifies over all clients and initial states.  The bounded
check explores the most-general client (every interleaving of ``threads``
threads each performing ``ops`` nondeterministic calls from a menu) and
verifies that *every* reachable history is linearizable w.r.t. Γ.

Two engines are provided:

* :func:`check_program_linearizable` — the main engine: a product
  exploration of the program's configuration graph with the forward
  :class:`~repro.history.monitor.SpecMonitor`.  Nodes are deduplicated on
  ``(configuration, monitor state)``, which collapses the exponentially
  many interleaving paths that reach the same state.
* :func:`check_program_linearizable_definitional` — the literal Def-1/2
  pipeline (collect histories, check each by backtracking search).  It is
  exponentially slower and kept as the definitional baseline; the E10
  scaling bench compares the two.

The refinement-mapping side condition ``φ(σ_o) = θ`` of Definition 2 is
checked on the initial object memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..lang.program import ObjectImpl, Program
from ..memory.store import Store
from ..semantics.events import Trace, format_trace, trace_order
from ..semantics.mgc import CallMenu, mgc_program
from ..semantics.scheduler import Explorer, Limits, explore
from ..semantics.search import Node, SearchStats, StopSearch, search, stats_of
from ..spec.gamma import OSpec
from ..spec.refmap import RefMap
from .linearize import find_linearization
from .monitor import SpecMonitor


@dataclass
class ObjectLinResult(SearchStats):
    """Outcome of a bounded Definition-2 check.

    A non-exhaustive engine (random-walk) can only report "no violation
    *found*", never a verified bound: reporting must read ``exhaustive``.
    Under the product engine ``expanded_keys`` collects
    ``(config, states)``.
    """

    ok: bool = True
    histories_checked: int = 0
    aborted: bool = False
    counterexample: Optional[Trace] = None
    reason: str = ""
    #: The distinct histories the product search reached (prefix-closed,
    #: with the empty one); ``histories_checked`` is their number.
    histories: Set[Trace] = field(default_factory=set, repr=False)

    @property
    def nodes_explored(self) -> int:
        """``nodes``, under its old name: the benchmark harness
        ``perfbench/child.py`` reads it and is kept unchanged."""
        return self.nodes

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.exhaustive:
            status = "LINEARIZABLE" if self.ok else "NOT LINEARIZABLE"
        else:
            status = ("NO VIOLATION FOUND (sampled)" if self.ok
                      else "NOT LINEARIZABLE")
        extra = " (bounded)" if self.bounded else ""
        msg = (f"{status}{extra}: {self.nodes} product states, "
               f"{self.histories_checked} histories")
        if self.counterexample is not None:
            msg += f"; counterexample: {format_trace(self.counterexample)}"
        if self.reason:
            msg += f" [{self.reason}]"
        return msg


#: A product-engine search node (see :mod:`repro.semantics.search`)
#: whose label is (monitor state set, history for counterexample
#: reporting); the dedup key is ``(config, states)`` — the history is
#: *not* part of it.
ProductNode = Node


def _violation(out: ObjectLinResult, hist: Trace, reason: str) -> None:
    out.ok = False
    out.counterexample = hist
    out.reason = reason
    raise StopSearch


def _hist_threads(label) -> Set[int]:
    """Threads an object event of the node's history has pinned.

    The product search tracks histories only; threads that have emitted
    no object event are interchangeable for the monitor (it never sees
    client-side output events), so hist-only pinning keeps the verdict
    exact.
    """

    return {e.thread for e in label[1]}


class ProductSearch:
    """The Def-2 product search of one program against one Γ."""

    def __init__(self, program: Program, spec: OSpec,
                 limits: Optional[Limits] = None, theta=None,
                 reduce: Optional[str] = None,
                 semantics: Optional[str] = None):
        self.limits = limits or Limits()
        self.monitor = SpecMonitor(spec)
        self.explorer = Explorer(program, reduce=reduce,
                                 semantics=semantics)
        self.states0 = self.monitor.initial(theta)

    def new_result(self, **fields) -> ObjectLinResult:
        """A passing result carrying the explorer's provenance (the
        empty history is always reached)."""

        explorer = self.explorer
        out = ObjectLinResult(
            ok=True, reduce=explorer.policy.effective,
            reduce_reasons=explorer.policy.reasons,
            semantics=explorer.semantics,
            semantics_reasons=explorer.semantics_reasons, **fields)
        out.histories.add(())
        return out

    def start_nodes(self) -> List[ProductNode]:
        """The explorer's deduplicated start configurations, each with
        the initial monitor states."""

        states0 = self.states0
        return [(start, (states0, ()), 0, (start, states0))
                for start, _label, _depth, _key
                in self.explorer.start_nodes()]

    def run_from(self, frontier: Sequence[ProductNode], node_budget: int,
                 out: ObjectLinResult) -> List[ProductNode]:
        """Expand up to ``node_budget`` product nodes from ``frontier``.

        Mutates ``out`` in place; returns the spilled frontier when the
        budget runs out, or ``[]`` when the subtree is exhausted *or* a
        violation was found (``out.ok`` turns False).  This is the unit
        of work the parallel engine distributes; the search is
        :func:`~repro.semantics.search.search`.
        """

        return search(frontier, node_budget, out,
                      max_depth=self.limits.max_depth,
                      pinned=_hist_threads, **self.hooks(out))

    def hooks(self, out: ObjectLinResult) -> dict:
        """The search hooks of a run into ``out``, shared by
        :meth:`run_from` and the random walk
        (:func:`~repro.semantics.search.walk`): the label is the node's
        (monitor state set, history), ``out.histories`` collects the
        distinct histories, and a violation ends the run through
        :class:`~repro.semantics.search.StopSearch`."""

        monitor = self.monitor
        histories = out.histories

        def advance(next_config, label, event):
            object_event = event is not None and event.is_object_event
            if next_config is None:
                # An abort ends the path; an object fault is a violation
                # in its own right, reported before the monitor would
                # read it as an empty Σ.
                out.aborted = True
                if object_event:
                    hist = label[1] + (event,)
                    histories.add(hist)
                    _violation(out, hist, "object code aborted")
                return None
            if object_event:
                states, hist = label
                states = monitor.step(states, event)
                hist = hist + (event,)
                histories.add(hist)
                if not states:
                    _violation(out, hist,
                               "history has no legal linearization")
                label = (states, hist)
            return label, (next_config, label[0])

        return {"advance": advance, "explorer": self.explorer}

    def run(self) -> ObjectLinResult:
        """The exact sequential search."""

        out = self.new_result()
        if self.run_from(self.start_nodes(), self.limits.max_nodes, out):
            out.bounded = True
        out.histories_checked = len(out.histories)
        return out


def check_program_linearizable(program: Program, spec: OSpec,
                               limits: Optional[Limits] = None,
                               theta=None, engine=None) -> ObjectLinResult:
    """Product exploration: program configurations × speculation monitor.

    ``engine`` selects the exploration engine (see
    :func:`repro.engine.resolve_engine`); the default is the exact
    sequential search, :meth:`ProductSearch.run`.
    """

    from ..engine.api import resolve_engine
    from ..engine.dispatch import dispatch_product_lin

    return dispatch_product_lin(program, spec, limits, theta,
                                resolve_engine(engine))


def check_program_linearizable_definitional(
        program: Program, spec: OSpec,
        limits: Optional[Limits] = None, engine=None) -> ObjectLinResult:
    """The literal Definition-2 pipeline (baseline; exponentially slower).

    Collects the prefix-closed history set and checks each maximal history
    by the Def-1 backtracking search.  ``engine`` selects how the history
    set is collected; a random-walk collection makes the verdict
    non-exhaustive (``exhaustive=False``).
    """

    result = explore(program, limits, engine=engine)
    out = ObjectLinResult(aborted=result.aborted, **stats_of(result))
    if result.aborted:
        out.ok = False
        out.reason = "some execution aborts (object or client fault)"
    # Linearizability is prefix-closed and the explored history set is
    # prefix-closed by construction, so the maximal histories cover all.
    for history in maximal_histories(result.histories):
        out.histories_checked += 1
        lin = find_linearization(history, spec)
        if not lin.ok:
            out.ok = False
            out.counterexample = history
            out.reason = lin.reason
            break
    return out


def maximal_histories(histories) -> Tuple[Trace, ...]:
    """Histories that are not a strict prefix of another in the set,
    longest first, in reverse :func:`~repro.semantics.events.trace_order`
    (so the first failing one does not depend on ``PYTHONHASHSEED``).

    Assumes the input set is prefix-closed (as produced by the explorer).
    """

    non_maximal = {h[:-1] for h in histories if h}
    return tuple(sorted((h for h in histories if h not in non_maximal),
                        key=trace_order, reverse=True))


def check_object_linearizable(impl: ObjectImpl, spec: OSpec, menu: CallMenu,
                              threads: int = 2, ops_per_thread: int = 2,
                              limits: Optional[Limits] = None,
                              phi: Optional[RefMap] = None,
                              definitional: bool = False,
                              engine=None) -> ObjectLinResult:
    """Bounded ``Π ≼_φ Γ`` via the most-general client.

    When ``phi`` is given, the initial-state side condition ``φ(σ_o) = θ``
    is verified first.  ``engine`` selects the exploration engine for the
    product search (sequential / parallel / random-walk, optionally
    memoized — see :mod:`repro.engine`).
    """

    if phi is not None:
        theta = phi.of(Store(impl.initial_memory))
        if theta is None:
            return ObjectLinResult(
                ok=False,
                reason="φ(σ_o) undefined: initial object memory malformed")
        if theta != spec.initial:
            return ObjectLinResult(
                ok=False,
                reason=f"φ(σ_o) = {theta!r} differs from Γ's initial "
                       f"abstract object {spec.initial!r}")
    program = mgc_program(impl, menu, threads=threads,
                          ops_per_thread=ops_per_thread)
    if definitional:
        return check_program_linearizable_definitional(program, spec, limits,
                                                       engine=engine)
    return check_program_linearizable(program, spec, limits, engine=engine)
