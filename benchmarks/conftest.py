"""Shared benchmark configuration.

Verification runs are deterministic and expensive, so every benchmark
uses a single round (``pedantic(rounds=1, iterations=1)``) — the timings
reported are per-pipeline wall-clock costs, not micro-benchmarks.

The ``REPRO_ENGINE`` environment variable selects the exploration
engine for the verification benches (E1/E4/E5/E7/E8): unset means the
sequential default; any :func:`repro.engine.resolve_engine` spelling
works, e.g. ``REPRO_ENGINE=parallel``, ``parallel+noreduce`` or
``sequential+por``.  Every engine produces
identical verdicts and history/observable sets, so the benches assert
the same outcomes regardless — only the timings change.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

#: Engine override for the verification benches (None = sequential).
BENCH_ENGINE = os.environ.get("REPRO_ENGINE") or None


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under the benchmark timer."""

    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def runner(func, *args, **kwargs):
        return run_once(benchmark, func, *args, **kwargs)

    return runner
