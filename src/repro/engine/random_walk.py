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
from typing import Optional

from ..semantics.scheduler import (
    ExplorationResult,
    Explorer,
    Limits,
    Program,
)


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
    starts = explorer.start_nodes()
    if not starts:
        return result

    for _ in range(walks):
        config, (hist, obs), depth, _key = starts[rng.randrange(len(starts))]
        while True:
            result.nodes += 1
            successors = explorer._expand(config)
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
    if explorer.diagnostics:
        result.bounded = True
        result.diagnostics = tuple(explorer.diagnostics)
    return result


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
    explorer, monitor, limits = (product.explorer, product.monitor,
                                 product.limits)
    rng = random.Random(seed)
    out = product.new_result(engine="random-walk", exhaustive=False)
    distinct = out.histories
    starts = explorer.initial_nodes()
    if not starts:
        out.histories_checked = len(distinct)
        return out
    states0 = product.states0

    for _ in range(walks):
        config = starts[rng.randrange(len(starts))]
        states = states0
        hist = ()
        depth = 0
        while True:
            out.nodes_explored += 1
            successors = explorer._expand(config)
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
                    return _walk_violation(out, hist, "object code aborted")
                break
            if object_event:
                states = monitor.step(states, event)
                if not states:
                    return _walk_violation(
                        out, hist, "history has no legal linearization")
            config = next_config
            depth += 1
    out.histories_checked = len(distinct)
    if explorer.diagnostics:
        out.bounded = True
        out.diagnostics = tuple(explorer.diagnostics)
    return out


def _walk_violation(out, hist, reason: str):
    out.ok = False
    out.counterexample = hist
    out.reason = reason
    out.histories_checked = len(out.histories)
    return out


def random_walk_instrumented(runner, walks: int = 256, seed: int = 0):
    """Sampled instrumented-obligation check over one runner workload."""

    rng = random.Random(seed)
    result = runner.new_result(engine="random-walk", exhaustive=False)
    start = runner.initial_config(result)
    if start is None:
        result.ok = False
        return result
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
                result.ok = False
                return result
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
    result.ok = not result.failures
    return result
