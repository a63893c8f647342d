"""E1 — regenerate Table 1, the paper's evaluation.

One benchmark per row: the full verification pipeline (erasure,
instrumented obligations with I and G, independent Definition-2 model
check) at the row's standard workload.  The final case renders the
complete table and cross-checks the feature matrix against the paper's.

Each row's ``bounded`` cut-off flag, engine, and exhaustiveness are
recorded in the benchmark JSON (``extra_info``) so artifact consumers can
distinguish exhaustive verdicts from bound-cut or sampled ones.
"""

import pytest

from conftest import BENCH_ENGINE
from repro.algorithms import algorithm_names
from repro.table import (
    Table1Row,
    check_feature_matrix,
    render_table1,
    table1_json,
    verify_row,
)

_rows = {}


@pytest.mark.parametrize("name", algorithm_names())
def test_table1_row(benchmark, name):
    row = benchmark.pedantic(verify_row, args=(name,),
                             kwargs=dict(engine=BENCH_ENGINE),
                             rounds=1, iterations=1)
    _rows[name] = row
    benchmark.extra_info["bounded"] = row.bounded
    benchmark.extra_info["engine"] = row.engine
    benchmark.extra_info["exhaustive"] = row.exhaustive
    benchmark.extra_info["workload"] = row.workload
    lin = row.report.linearizability
    benchmark.extra_info["reduce"] = lin.reduce
    benchmark.extra_info["nodes"] = lin.nodes
    benchmark.extra_info["nodes_per_sec"] = round(lin.nodes_per_sec, 1)
    benchmark.extra_info["por_pruned"] = lin.por_pruned
    benchmark.extra_info["sym_merged"] = lin.sym_merged
    benchmark.extra_info["dedup_hit_rate"] = round(lin.dedup_hit_rate, 4)
    assert row.verified, row.report.summary()
    assert not row.report.instrumented.bounded
    assert not row.report.linearizability.bounded


def test_table1_render_and_feature_matrix():
    assert check_feature_matrix() == []
    rows = [_rows[n] for n in algorithm_names() if n in _rows]
    if rows:
        print("\n" + render_table1(rows))
        for entry in table1_json(rows):
            assert entry["verified"] and not entry["bounded"]
        assert all(r.verified for r in rows)
