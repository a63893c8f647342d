"""Tests for Table-1 tooling, the pretty-printer, and example health."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.table import PAPER_TABLE1, Table1Row, render_table1, verify_row
from repro.semantics import Limits

EXAMPLES = Path(__file__).parent.parent / "examples"


class TestTable1Tooling:
    def test_paper_matrix_has_twelve_rows(self):
        assert len(PAPER_TABLE1) == 12

    def test_verify_row_smoke(self):
        row = verify_row("pair_snapshot", Limits(4000, 1_000_000))
        assert row.verified
        assert row.future_lp and not row.helping
        assert row.seconds > 0
        assert "2 threads" in row.workload

    def test_render_layout(self):
        row = verify_row("pair_snapshot", Limits(4000, 1_000_000))
        text = render_table1([row])
        lines = text.splitlines()
        assert lines[0].startswith("Objects")
        assert "Pair snapshot" in lines[2]
        assert "Y" in lines[2]

    def test_render_without_timings(self):
        row = verify_row("pair_snapshot", Limits(4000, 1_000_000))
        text = render_table1([row], timings=False)
        assert "Time" not in text

    def test_row_carries_reduction_counters(self):
        from repro.table import table1_json

        row = verify_row("treiber", Limits(4000, 1_000_000))
        assert row.verified
        lin = row.report.linearizability
        assert lin.reduce == "por+sym+tsym"
        assert lin.nodes > 0 and lin.nodes_per_sec > 0
        assert lin.por_pruned + lin.sym_merged > 0
        payload = table1_json([row])[0]
        assert payload["reduce"] == "por+sym+tsym"
        assert payload["nodes"] == lin.nodes
        assert payload["por_pruned"] == lin.por_pruned
        assert payload["sym_merged"] == lin.sym_merged
        assert payload["sleep_skipped"] == lin.sleep_skipped
        assert payload["tsym_merged"] == lin.tsym_merged
        assert payload["reexplored"] == lin.reexplored
        assert 0.0 <= payload["dedup_hit_rate"] <= 1.0


class TestPretty:
    def test_listing_contains_instrumentation(self):
        from repro.algorithms import get_algorithm
        from repro.pretty import render_method

        alg = get_algorithm("ccas")
        listing = render_method(alg.instrumented.methods["CCAS"])
        assert "trylin(" in listing
        assert "commit(" in listing
        assert "local" in listing

    def test_plain_listing_has_no_aux(self):
        from repro.algorithms import get_algorithm
        from repro.pretty import render_method

        alg = get_algorithm("ccas")
        listing = render_method(alg.impl.methods["CCAS"])
        assert "linself" not in listing and "trylin" not in listing

    def test_atomic_single_line(self):
        from repro.lang.builders import assign, atomic
        from repro.pretty import render_stmt

        lines = render_stmt(atomic(assign("x", 1)))
        assert lines == ["< x := 1; >"]


@pytest.mark.parametrize("name", [
    "quickstart",
    "helping_hsy_stack",
    "future_lp_pair_snapshot",
    "nonlinearizable_counter",
    "client_refinement",
    "parsed_object",
])
def test_example_imports(name):
    """Each example module loads cleanly (mains are exercised by CI runs
    of the scripts themselves; loading catches API drift)."""

    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main")
