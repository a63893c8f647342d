"""The checker benchmark: time to verdict, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload product --seed 1 --seconds 30 \
        --trace 0 [--size full|smoke]

Each pass runs in a fresh child process (``child.py``) with the memo
cache off and ``REPRO_ENGINE`` / ``REPRO_ENGINE_CACHE`` removed: it sets
up, reports ready, runs the workload's checks once and reports them.
Passes repeat until ``--seconds`` is spent (at least two).  The seed is
the children's ``PYTHONHASHSEED``, alternating between ``seed`` and
``seed + 1``, so every run also checks that node and history counts do
not depend on hashing (sequential checks only).  Every time is
scaled to a fixed machine speed by the speed samples the child takes
around and during it (``speed.py``); measured times are in the report.

``--trace 0`` reports the end-to-end metrics (medians over the passes).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (medians over the traced passes) plus the tracing
overhead; the span log of the last traced pass is written under
``.perfbench_out/``.  Every check's verdict is compared with the paper's
known answer; the last line of output is one JSON object, and the exit
code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import (  # noqa: E402
    NOTES_WORKLOADS,
    SIZES,
    WORKLOADS,
    judge,
    rows_for,
)

OUT_DIR = Path(".perfbench_out")
#: A pass that runs longer than this is killed and counts as failed.
PASS_TIMEOUT_S = 150
#: Environment the checkers read that would change what a pass runs.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_ENGINE_CACHE", "PYTHONPATH")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "nodes": "count",
    "nodes_per_s": "1/s",
    "histories": "count",
    "peak_rss_mb": "MB",
    "passed_share": "ratio",
}


class PassFailed(Exception):
    pass


def run_pass(workload: str, size: str, mode: str, hash_seed: int) -> dict:
    """One fresh child process; returns its report plus ``setup_s``."""

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = str(hash_seed)
    cmd = [sys.executable, str(HERE / "child.py"), workload, size, mode,
           str(OUT_DIR / f"spans-{workload}.bin")]
    started = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"{workload} pass exceeded {PASS_TIMEOUT_S}s")
    if not ready.startswith("READY ") or proc.returncode != 0:
        raise PassFailed(f"{workload} child exited {proc.returncode}:\n"
                         f"{ready}{out}{err[-4000:]}")
    _, sampling_s, setup_speed = ready.split()
    setup_s -= float(sampling_s)
    if mode == "setup":
        return {"setup_s": setup_s}
    if err.strip():
        sys.stderr.write(err)
    report = json.loads(out.strip().splitlines()[-1])
    # Times scaled to nominal machine speed (speed.py).
    for c in report["checks"]:
        c["scaled_s"] = c["seconds"] * c["speed"]
    report["raw_setup_s"] = setup_s
    report["setup_s"] = setup_s * float(setup_speed)
    report["speed"] = mean(c["speed"] for c in report["checks"])
    report["hash_seed"] = hash_seed
    report["mode"] = mode
    report["raw_wall_s"] = sum(c["seconds"] for c in report["checks"])
    report["wall_s"] = sum(c["scaled_s"] for c in report["checks"])
    report["nodes"] = sum(c["nodes"] for c in report["checks"])
    report["histories"] = sum(c["histories"] for c in report["checks"])
    return report


def measure(workload: str, size: str, seed: int, seconds: float,
            traced: bool) -> list:
    """Passes until ``seconds`` is spent (at least two, and in a traced
    run at least one of each kind)."""

    run_pass(workload, size, "setup", seed)  # fill the bytecode cache
    modes = ("plain", "traced") if traced else ("plain",)
    passes = []
    deadline = perf_counter() + seconds
    while True:
        i = len(passes)
        started = perf_counter()
        passes.append(run_pass(workload, size, modes[i % len(modes)],
                               seed + i % 2))
        took = perf_counter() - started
        if len(passes) >= 2 and perf_counter() + took > deadline:
            return passes


def failures(workload: str, size: str, passes: list) -> list:
    """Every check that missed its known answer, and every count of a
    sequential check that changed between passes."""

    rows = rows_for(workload, size)
    found = []
    for p in passes:
        for row, check in zip(rows, p["checks"]):
            why = judge(row, check)
            if why:
                found.append(f"{check['name']} ({row.decider}, hash seed "
                             f"{p['hash_seed']}): {why}")

    def counts(p: dict) -> list:
        return [(c["nodes"], c["histories"])
                for row, c in zip(rows, p["checks"]) if row.exact]

    for p in passes[1:]:
        if counts(p) != counts(passes[0]):
            found.append(f"nodes/histories differ between hash seeds "
                         f"{passes[0]['hash_seed']} and {p['hash_seed']}: "
                         f"{counts(passes[0])} vs {counts(p)}")
    return found


def end_to_end(passes: list, n_checks: int, n_failed: int) -> dict:
    attempted = n_checks * len(passes)
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(p["setup_s"] for p in passes),
        "nodes": median(p["nodes"] for p in passes),
        "nodes_per_s": median(p["nodes"] / p["wall_s"] for p in passes),
        "histories": median(p["histories"] for p in passes),
        "peak_rss_mb": median(p["rss_mb"] for p in passes),
        "passed_share": (attempted - n_failed) / attempted,
    }


def per_layer(plain: list, traced: list) -> dict:
    """Medians over the traced passes; times scaled by each pass's speed."""

    def value(p: dict, name: str) -> float:
        v = p["layers"][name]
        return v * p["speed"] if LAYER_METRICS[name] == "s" else v

    metrics = {name: median(value(p, name) for p in traced)
               for name in LAYER_METRICS}
    # Measured, not scaled, times: traced and plain passes alternate, and
    # the two are scaled from different kinds of speed sample.
    metrics["trace.overhead_ratio"] = (
        median(p["raw_wall_s"] for p in traced)
        / median(p["raw_wall_s"] for p in plain))
    return metrics


def print_checks(passes: list) -> None:
    print(f"# per-check rows (pass 1 of {len(passes)}, hash seed "
          f"{passes[0]['hash_seed']})")
    for c in passes[0]["checks"]:
        print(f"#   {c['name']:<24} {c['decider']:<10} {c['engine']:<22} "
              f"{c['scaled_s']:8.3f}s {c['nodes']:>8} nodes "
              f"{c['histories']:>6} hist ok={c['ok']} bounded={c['bounded']}"
              f" reduce={c.get('reduce')} semantics={c.get('semantics')}")
    for i, p in enumerate(passes, 1):
        print(f"# pass {i}: {p['mode']:<6} hash seed {p['hash_seed']} "
              f"setup {p['setup_s']:.3f}s wall {p['wall_s']:.3f}s "
              f"(measured {p['raw_setup_s']:.3f}s and {p['raw_wall_s']:.3f}s "
              f"at speed {p['speed']:.2f}) rss {p['rss_mb']:.1f}MB")


def print_breakdown(traced: list) -> None:
    """Where a traced pass's time went: self time per layer."""

    last = traced[-1]
    total = last["raw_wall_s"]
    print(f"# traced pass self time by layer (of {total:.3f}s in checks; "
          f"set-up spans included)")
    for layer, secs in sorted(last["self_s"].items(), key=lambda kv: -kv[1]):
        if secs > 0:
            print(f"#   {layer:<22} {secs:8.3f}s {100 * secs / total:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted({**WORKLOADS, **NOTES_WORKLOADS}))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)

    if not Path("src/repro/__init__.py").is_file():
        print("run.py: run from the root of a checkout that holds "
              "src/repro", file=sys.stderr)
        return 2
    seed = args.seed % (2 ** 32 - 1)
    try:
        passes = measure(args.workload, args.size, seed, args.seconds,
                         bool(args.trace))
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    rows = rows_for(args.workload, args.size)
    failed = failures(args.workload, args.size, passes)
    for line in failed:
        print(f"# FAILED {line}")

    print_checks(passes)
    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    if traced:
        print_breakdown(traced)
        values = per_layer(plain, traced)
        units = {**LAYER_METRICS, "trace.overhead_ratio": "ratio"}
    else:
        values = end_to_end(passes, len(rows), len(failed))
        units = END_TO_END
    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"passes": passes, "failed": failed,
                                  "metrics": values}, indent=1))
    print(f"# full report: {report}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(rows) * len(passes),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
