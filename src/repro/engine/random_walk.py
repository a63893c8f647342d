"""Seeded random-walk exploration — the fallback for unexhaustible bounds.

When the bounded state space is too large to exhaust, a random walk
samples complete executions instead: starting from a uniformly chosen
initial node, repeatedly pick one enabled successor uniformly at random
until the execution quiesces, aborts, or hits the depth bound.  Every
walk is a genuine execution path of the sequential explorer, so

* every history / observable trace a walk records is in the exhaustive
  engine's (prefix-closed) sets — random-walk results are always an
  *under*-approximation;
* any violation a walk finds (non-linearizable history, failed
  instrumented obligation) is a real counterexample.

What a walk can *not* do is prove absence: results carry
``exhaustive=False`` and the reporting layer renders them as "no
violation found (sampled)", never as a verified bound.  Walks are driven
by ``random.Random(seed)`` — the same seed, walk count and source tree
reproduce the same result exactly.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Optional

from ..semantics.scheduler import (
    ExplorationResult,
    Explorer,
    Limits,
    Program,
)
from ..semantics.search import Expansion, SearchStats, note_diagnostics


def random_walk_explore(program: Program, limits: Optional[Limits] = None,
                        walks: int = 256, seed: int = 0,
                        reduce: Optional[str] = None,
                        semantics: Optional[str] = None
                        ) -> ExplorationResult:
    """Sample ``walks`` executions; returns a partial exploration result.

    Walks sample paths of the (possibly reduced) exploration graph; the
    reduced graph's paths reach exactly the same history/observable sets,
    so the under-approximation guarantee is unchanged.
    """

    explorer = Explorer(program, limits, reduce=reduce,
                        semantics=semantics)
    limits = explorer.limits
    rng = random.Random(seed)
    result = explorer.new_result(engine="random-walk", exhaustive=False)
    started = perf_counter()
    starts = explorer.start_nodes()
    if not starts:
        return result

    for _ in range(walks):
        config, (hist, obs), depth, _key = starts[rng.randrange(len(starts))]
        while True:
            result.nodes += 1
            successors = _keep(result, explorer._expand(config))
            if not successors:
                result.add_prefixes(obs)
                result.terminal_configs.add(config)
                break
            if depth >= limits.max_depth:
                result.bounded = True
                result.add_prefixes(obs)
                break
            next_config, event = successors[rng.randrange(len(successors))]
            if event is not None:
                if event.is_object_event:
                    hist = hist + (event,)
                    result.histories.add(hist)
                if event.is_observable:
                    obs = obs + (event,)
                    result.add_prefixes(obs)
            if next_config is None:
                result.aborted = True
                break
            config = next_config
            depth += 1
    result.elapsed = perf_counter() - started
    return result


def _keep(result: SearchStats, expansion: Expansion) -> tuple:
    """Charge a walk step's expansion to ``result``, note its cuts, and
    return its successors."""

    result.charge(expansion)
    note_diagnostics(result, expansion.cuts)
    return expansion.successors


def random_walk_lin(program: Program, spec, limits: Optional[Limits] = None,
                    walks: int = 256, seed: int = 0, theta=None,
                    reduce: Optional[str] = None,
                    semantics: Optional[str] = None):
    """Sampled Definition-2 check: walk the product graph, monitor Δ.

    A violation found is real; ``ok=True`` only means no violation was
    found on the sampled paths (``exhaustive=False``).
    """

    from ..history.object_lin import ProductSearch

    product = ProductSearch(program, spec, limits, theta, reduce=reduce,
                            semantics=semantics)
    out = product.new_result(engine="random-walk", exhaustive=False)
    started = perf_counter()
    _walk_product(product, out, walks, seed)
    out.histories_checked = len(out.histories)
    out.elapsed = perf_counter() - started
    return out


def _walk_product(product, out, walks: int, seed: int) -> None:
    """The walks of :func:`random_walk_lin`; a violation ends them."""

    explorer, monitor, limits = (product.explorer, product.monitor,
                                 product.limits)
    rng = random.Random(seed)
    distinct = out.histories
    starts = explorer.initial_nodes()
    if not starts:
        return
    states0 = product.states0

    for _ in range(walks):
        config = starts[rng.randrange(len(starts))]
        states = states0
        hist = ()
        depth = 0
        while True:
            out.nodes += 1
            successors = _keep(out, explorer._expand(config))
            if not successors:
                break
            if depth >= limits.max_depth:
                out.bounded = True
                break
            next_config, event = successors[rng.randrange(len(successors))]
            object_event = event is not None and event.is_object_event
            if object_event:
                hist = hist + (event,)
                distinct.add(hist)
            if next_config is None:
                # Checked before the monitor, which reads an object
                # fault as an empty Σ (see ``product_run_from``).
                out.aborted = True
                if object_event:
                    _walk_violation(out, hist, "object code aborted")
                    return
                break
            if object_event:
                states = monitor.step(states, event)
                if not states:
                    _walk_violation(
                        out, hist, "history has no legal linearization")
                    return
            config = next_config
            depth += 1


def _walk_violation(out, hist, reason: str) -> None:
    out.ok = False
    out.counterexample = hist
    out.reason = reason


def random_walk_instrumented(runner, walks: int = 256, seed: int = 0):
    """Sampled instrumented-obligation check over one runner workload."""

    result = runner.new_result(engine="random-walk", exhaustive=False)
    started = perf_counter()
    _walk_witness(runner, result, walks, seed)
    result.ok = not result.failures
    result.elapsed = perf_counter() - started
    return result


def _walk_witness(runner, result, walks: int, seed: int) -> None:
    """The walks of :func:`random_walk_instrumented`; a bad start (its
    failure recorded) or ``max_failures`` failures end them."""

    start = runner.initial_config(result)
    if start is None:
        return
    rng = random.Random(seed)
    limits = runner.limits

    for _ in range(walks):
        config, hist, depth = start, (), 0
        while True:
            result.nodes += 1
            before = len(result.failures)
            successors = runner._expand(config, hist, result)
            if successors and depth >= limits.max_depth:
                # The depth rule of the exhaustive search: a node at the
                # cap is expanded only to tell a terminal node from a
                # cut one, and the cut transitions' failures are dropped.
                result.bounded = True
                del result.failures[before:]
                break
            if len(result.failures) > before and \
                    len(result.failures) >= runner.max_failures:
                return
            live = []
            for nxt, event in successors:
                new_hist = hist + (event,) if event is not None else hist
                if event is not None:
                    result.histories.add(new_hist)
                if nxt is not None:
                    live.append((nxt, new_hist))
            if not live:
                break
            config, hist = live[rng.randrange(len(live))]
            depth += 1
