"""Semantics of abstract programs ``with Γ do C1 ∥ ... ∥ Cn`` (Sec. 3.2).

The abstract semantics is the concrete one except that a method call
executes its abstract atomic operation γ in a single step, over the
abstract object θ, emitting the invocation and return events atomically
(the paper: "the abstract operation generates a pair of invocation and
return events atomically").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..errors import AtomicLoopDivergence, BoundExceeded, EvalError
from ..lang.ast import Call, Stmt
from ..memory.store import Store
from ..spec.absobj import AbsObj
from ..spec.gamma import OSpec
from .eval import eval_in
from .events import (
    CltAbortEvent,
    Event,
    InvokeEvent,
    ObjAbortEvent,
    ReturnEvent,
    Trace,
)
from .scheduler import Limits
from .search import Expansion, SearchStats, search
from .thread import (
    ThreadState,
    expand_until_visible,
    initial_thread,
    thread_step,
)


@dataclass(frozen=True)
class AbsConfig:
    threads: Tuple[ThreadState, ...]
    sigma_c: Store
    theta: AbsObj

    @property
    def quiescent(self) -> bool:
        return all(t.finished for t in self.threads)


@dataclass
class AbsExplorationResult(SearchStats):
    histories: Set[Trace] = field(default_factory=set)
    observables: Set[Trace] = field(default_factory=set)
    aborted: bool = False

    def add_prefixes(self, trace: Trace) -> None:
        for i in range(len(trace) + 1):
            self.observables.add(trace[:i])


@dataclass(frozen=True)
class AbstractProgram:
    """``with Γ do C1 ∥ ... ∥ Cn``.

    ``private_client_vars`` has the same meaning as on
    :class:`~repro.lang.program.Program`.
    """

    spec: OSpec
    clients: Tuple[Stmt, ...]
    initial_client_memory: Tuple[Tuple[str, int], ...] = ()
    private_client_vars: bool = False


class AbstractExplorer:
    """Exhaustive bounded exploration of an abstract program."""

    def __init__(self, program: AbstractProgram, limits: Optional[Limits] = None):
        self.program = program
        self.spec = program.spec
        self.limits = limits or Limits()

    def run(self) -> AbsExplorationResult:
        """The exact bounded search (:func:`~repro.semantics.search.search`
        over nodes labelled (history, observable trace))."""

        result = AbsExplorationResult()
        result.histories.add(())
        result.observables.add(())
        label = ((), ())
        frontier = []
        for key in dict.fromkeys((start, label)
                                 for start in self.initial_nodes()):
            frontier.append((key[0], label, 0, key))

        def advance(next_config, label, events):
            if events:
                hist, obs = label
                for event in events:
                    if event.is_object_event:
                        hist = hist + (event,)
                        result.histories.add(hist)
                    if event.is_observable:
                        obs = obs + (event,)
                        result.add_prefixes(obs)
                label = (hist, obs)
            if next_config is None:
                result.aborted = True
                return None
            return label, (next_config, label)

        if search(frontier, self.limits.max_nodes, result, advance,
                  self.limits.max_depth, expand=self._expand):
            result.bounded = True
        return result

    def initial_nodes(self) -> List[AbsConfig]:
        start = AbsConfig(
            tuple(initial_thread(c) for c in self.program.clients),
            Store(dict(self.program.initial_client_memory)),
            self.program.spec.initial,
        )
        configs = [start]
        empty = Store()
        for idx in range(len(start.threads)):
            nxt: List[AbsConfig] = []
            for config in configs:
                expanded = expand_until_visible(
                    config.threads[idx], config.sigma_c, empty,
                    self.program.private_client_vars)
                for ts, sc in expanded:
                    threads = (config.threads[:idx] + (ts,)
                               + config.threads[idx + 1:])
                    nxt.append(AbsConfig(threads, sc, config.theta))
            configs = nxt
        return configs

    def _expand(self, config: AbsConfig, _label, _sleep, _full) -> Expansion:
        """The search's ``expand`` hook: the successors of ``config``,
        with one cut per divergent atomic block (no reduction here, so
        the label, sleep set and ``full`` change nothing)."""

        out: List[Tuple[Optional[AbsConfig], Tuple[Event, ...]]] = []
        cuts: Tuple[str, ...] = ()
        for idx, tstate in enumerate(config.threads):
            tid = idx + 1
            if not tstate.control:
                continue
            stmt = tstate.control[0]
            if isinstance(stmt, Call):
                out.extend(self._expand_call(config, idx, tid, stmt, tstate))
                continue
            try:
                outcomes = thread_step(tstate, tid, config.sigma_c,
                                       Store(), None)
            except AtomicLoopDivergence as exc:
                # Divergent atomic block: the transition is cut, but the
                # truncation is surfaced instead of dropped silently.
                cuts += (f"thread {tid}: {exc}",)
                continue
            except BoundExceeded:
                continue
            for outcome in outcomes:
                events = (outcome.event,) if outcome.event is not None else ()
                if outcome.aborted:
                    out.append((None, events))
                    continue
                expanded = expand_until_visible(
                    outcome.thread_state, outcome.sigma_c, Store(),
                    self.program.private_client_vars)
                for ts, sc in expanded:
                    threads = (config.threads[:idx] + (ts,)
                               + config.threads[idx + 1:])
                    out.append((
                        AbsConfig(threads, sc, config.theta),
                        events,
                    ))
        return Expansion(tuple(out), None, 0, 0, 0, 0, cuts)

    def _expand_call(self, config: AbsConfig, idx: int, tid: int,
                     stmt: Call, tstate: ThreadState) -> List[
                         Tuple[Optional[AbsConfig], Tuple[Event, ...]]]:
        try:
            arg = eval_in(stmt.arg, config.sigma_c)
        except EvalError:
            return [(None, (CltAbortEvent(tid),))]
        spec = self.spec.method(stmt.method)
        results = spec.results(arg, config.theta)
        invoke = InvokeEvent(tid, stmt.method, arg)
        if not results:
            # The abstract operation is blocked: an illegal call aborts the
            # abstract object (keeps Def. 3 inclusions meaningful).
            return [(None, (invoke, ObjAbortEvent(tid)))]
        out = []
        for ret, theta2 in results:
            sigma_c = config.sigma_c
            if stmt.var:
                sigma_c = sigma_c.set(stmt.var, ret)
            expanded = expand_until_visible(
                ThreadState(tstate.control[1:], None), sigma_c, Store(),
                self.program.private_client_vars)
            for ts, sc in expanded:
                threads = (config.threads[:idx] + (ts,)
                           + config.threads[idx + 1:])
                out.append((
                    AbsConfig(threads, sc, theta2),
                    (invoke, ReturnEvent(tid, ret)),
                ))
        return out


def explore_abstract(program: AbstractProgram,
                     limits: Optional[Limits] = None) -> AbsExplorationResult:
    return AbstractExplorer(program, limits).run()
