"""Self-test of the benchmark harness at its smoke size (2x1 rows).

Usage, from the root of a checkout: ``python3 perfbench/selftest.py``.
Takes under a minute.  It checks that

* ``BENCHMARK.json`` names exactly the workloads and metrics (with their
  units) that ``run.py`` reports;
* every workload, untraced and traced, ends correct with every metric
  named, and the traced run reaches the layers its workload exercises;
* the verdict gate refuses wrong, bounded and raising checks;
* in a directory that holds only the benchmark, ``run.py`` fails without
  printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import RACY, WORKLOADS, Row, judge  # noqa: E402

#: Per-layer metrics each workload must make non-zero when traced.
REACHED = {
    "product": ("compile.step_calls", "monitor.step_calls",
                "symmetry.canon_calls", "ownership.owner_calls",
                "intern.calls", "parallel.tasks", "canonical.digest_s",
                "parallel.merge_s", "parallel.useful_ratio"),
    "refinement": ("compile.step_calls", "symmetry.canon_calls",
                   "abstract.s", "refinement.inclusion_s",
                   "symmetry.close_s"),
    "witness": ("thread.step_calls", "instrument.obligation_calls",
                "instrument.aux_s", "runner.self_s"),
}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def check_declaration(spec: dict) -> None:
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == END_TO_END, (declared, END_TO_END)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}


def check_workload(workload: str, trace: int, spec: dict) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
               "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, trace, got)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        for name in REACHED[workload]:
            assert values[name] > 0, (workload, name)
    else:
        assert all(v > 0 for v in values.values()), (workload, values)


def check_gate() -> None:
    good = {"ok": True, "bounded": False, "failure": None}
    row = Row("product", "treiber", 2, 1, True)
    assert judge(row, good) == ""
    assert judge(row, {**good, "ok": False})
    assert judge(row, {**good, "bounded": True})
    assert judge(row, {**good, "error": "RuntimeError: boom"})
    racy = Row("witness", RACY, 2, 1, False, expect_failure="return")
    refused = {"ok": False, "bounded": False, "failure": "return"}
    assert judge(racy, refused) == ""
    assert judge(racy, {**refused, "failure": "guarantee"})
    assert judge(racy, {**refused, "ok": True})


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "product", "--seed", "1", "--seconds",
               "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declaration(spec)
    check_gate()
    check_bare_directory()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace, spec)
            print(f"ok {workload} --trace {trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
