"""Seeded random-walk exploration — the fallback for unexhaustible bounds.

When the bounded state space is too large to exhaust, a random walk
samples complete executions instead.  Each function here only sets a
decider up and runs its own search hooks through
:func:`~repro.semantics.search.walk`, the search core's sampler, which
also states why a walk's results under-approximate the exhaustive
engine's.  Results carry ``exhaustive=False``.
"""

from __future__ import annotations

from typing import Optional

from ..semantics.scheduler import ExplorationResult, Explorer, Limits, Program
from ..semantics.search import walk


def random_walk_explore(program: Program, limits: Optional[Limits] = None,
                        walks: int = 256, seed: int = 0,
                        reduce: Optional[str] = None,
                        semantics: Optional[str] = None
                        ) -> ExplorationResult:
    """Sample ``walks`` executions; returns a partial exploration result."""

    explorer = Explorer(program, limits, reduce=reduce,
                        semantics=semantics)
    result = explorer.new_result(engine="random-walk", exhaustive=False)
    walk(explorer.start_nodes(), walks, seed, result,
         max_depth=explorer.limits.max_depth, **explorer.hooks(result))
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
    out = product.new_result(engine="random-walk", exhaustive=False)
    walk(product.start_nodes(), walks, seed, out,
         max_depth=product.limits.max_depth, **product.hooks(out))
    out.histories_checked = len(out.histories)
    return out


def random_walk_instrumented(runner, walks: int = 256, seed: int = 0):
    """Sampled instrumented-obligation check over one runner workload."""

    result = runner.new_result(engine="random-walk", exhaustive=False)
    start = runner.initial_config(result)
    if start is not None:
        walk([runner.root(start)], walks, seed, result,
             max_depth=runner.limits.max_depth, **runner.hooks(result))
    result.ok = not result.failures
    return result
