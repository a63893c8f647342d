"""Fig-11 witness guards on the transition tables, at sizes tier-1 does
not run.

Marked ``guard`` and deselected by default (``pyproject.toml``); run
them with ``PYTHONPATH=src python -m pytest -m guard -s``.  Each prints
the figures it checks.

* Compiled-vs-interp equality on every registry algorithm and both
  synthesized entries: same verdict, same node count, same complete
  history set.
* Node-count baseline: HSY 2x1, the witness benchmark's largest row,
  expands exactly its committed node count on the compiled tables.
"""

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.instrument.runner import InstrumentedRunner

pytestmark = pytest.mark.guard


def witness(alg, engine, history_complete):
    return InstrumentedRunner(
        alg.instrumented, alg.workload.menu, 2, 1, alg.limits,
        alg.invariant, alg.guarantee,
        history_complete=history_complete, engine=engine).run()


@pytest.mark.parametrize("name", algorithm_names(include_synthesized=True))
def test_witness_compiled_equals_interp(name):
    alg = get_algorithm(name)
    interp = witness(alg, "sequential+interp", True)
    compiled = witness(alg, "sequential+compiled", True)
    assert compiled.semantics == "compiled", (
        f"{name}: tables degraded: {compiled.semantics_reasons}")
    assert compiled.ok and interp.ok, name
    assert compiled.nodes == interp.nodes, name
    assert compiled.histories == interp.histories, name
    print(f"{name}: witness compiled == interp, "
          f"{compiled.nodes} nodes, "
          f"{len(compiled.histories)} histories")


def test_hsy_stack_2x1_witness_node_baseline():
    """Committed baseline: exactly 40,297 nodes, compiled."""

    HSY_WITNESS_NODES = 40297
    result = witness(get_algorithm("hsy_stack"), None, False)
    print(f"hsy_stack 2x1 witness: {result.nodes} nodes, "
          f"semantics={result.semantics}")
    assert result.ok and not result.bounded
    assert result.semantics == "compiled", result.semantics_reasons
    assert result.nodes == HSY_WITNESS_NODES, result.nodes
