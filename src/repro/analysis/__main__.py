"""``python -m repro.analysis`` — run the static layer from the shell.

Two subcommands:

* ``lint`` — the diagnostic passes (Fig-11 instrumentation lint, race
  lint, escape analysis) over the registry + the ``examples/``
  counters.  ``--baseline PATH`` compares diagnostic keys against the
  checked-in baseline and exits non-zero on **any** drift (new *or*
  resolved), so CI gates on the exit code alone;
  ``--write-baseline PATH`` refreshes it.
* ``infer`` — the linearization-point inference
  (:mod:`repro.analysis.lp_infer`) over the registry (hand +
  synthesized entries) plus the racy-counter negative control.
  ``--baseline PATH`` pins the inferred discipline and LP sites
  (``lp_baseline.json``) and exits non-zero on any diff; with named
  targets only those are compared, and the other baseline entries are
  reported as not re-checked.

A bare invocation (no subcommand) is a backward-compatible alias for
``lint`` with the pre-subcommand semantics: resolved baseline entries
are reported but benign, and only *new* diagnostics fail the run.
Both subcommands accept ``--json`` for machine-readable reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from .diagnostics import AnalysisReport, analyze_all

_SUBCOMMANDS = ("lint", "infer")


def _baseline_map(reports: List[AnalysisReport]) -> Dict[str, List[str]]:
    return {r.name: sorted(d.key() for d in r.diagnostics)
            for r in reports}


def _lint_parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Static analysis over the Table-1 algorithms and "
                    "the examples/ counters.")
    parser.add_argument("names", nargs="*",
                        help="registry algorithms to analyze "
                             "(default: all 12 + builtin examples)")
    parser.add_argument("--json", action="store_true",
                        help="emit full JSON reports")
    parser.add_argument("--baseline", metavar="PATH",
                        help="fail on diagnostics drifting from this "
                             "baseline")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the current diagnostics as baseline")
    return parser


def run_lint(argv: List[str], prog: str, strict: bool) -> int:
    """The diagnostics subcommand.

    ``strict`` (the ``lint`` subcommand) exits non-zero on any baseline
    drift; the legacy bare invocation keeps resolved entries benign.
    """

    args = _lint_parser(prog).parse_args(argv)
    reports = analyze_all(args.names or None)

    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for report in reports:
            print(report.summary())
        total = sum(len(r.diagnostics) for r in reports)
        print(f"-- {len(reports)} target(s), {total} diagnostic(s)")

    if args.write_baseline:
        with open(args.write_baseline, "w") as fh:
            json.dump(_baseline_map(reports), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.write_baseline}")

    status = 0
    if args.baseline:
        with open(args.baseline) as fh:
            baseline: Dict[str, List[str]] = json.load(fh)
        current = _baseline_map(reports)
        for name, keys in sorted(current.items()):
            known = set(baseline.get(name, []))
            new = [k for k in keys if k not in known]
            gone = [k for k in known if k not in keys]
            for key in new:
                print(f"NEW diagnostic in {name}: {key}")
                status = 1
            for key in gone:
                print(f"resolved (update baseline?) {name}: {key}")
                if strict:
                    status = 1
        missing = set(baseline) - set(current)
        for name in sorted(missing):
            if baseline[name]:
                print(f"baseline target {name} not analyzed; "
                      f"its diagnostics were not re-checked")
        if status == 0:
            print("baseline check: OK")
    return status


def _infer_targets(names: List[str]):
    """(name, ObjectInference) pairs for the requested targets."""

    from .diagnostics import analysis_targets
    from .lp_infer import infer_object

    return [(name, infer_object(target["impl"], name=name))
            for name, target in analysis_targets(names)]


def _infer_map(results) -> Dict[str, dict]:
    return {name: inf.to_json() for name, inf in results}


def run_infer(argv: List[str], prog: str) -> int:
    """The LP-inference subcommand."""

    parser = argparse.ArgumentParser(
        prog=prog,
        description="Infer linearization-point disciplines for the "
                    "registry algorithms (plus the racy-counter "
                    "negative control).")
    parser.add_argument("names", nargs="*",
                        help="registry algorithms to infer (default: "
                             "all, incl. synthesized + examples)")
    parser.add_argument("--json", action="store_true",
                        help="emit full JSON reports")
    parser.add_argument("--baseline", metavar="PATH",
                        help="fail on any diff against this baseline "
                             "(lp_baseline.json)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the current inference as baseline")
    args = parser.parse_args(argv)

    results = _infer_targets(args.names)
    current = _infer_map(results)

    if args.json:
        print(json.dumps(current, indent=2, sort_keys=True))
    else:
        for name, inf in results:
            if not inf.ok:
                print(f"{name}: uninferable — {inf.reason}")
                continue
            methods = ", ".join(
                f"{m}={inf.methods[m].discipline}"
                for m in sorted(inf.methods))
            print(f"{name}: discipline={inf.discipline} ({methods})")
        ok = sum(1 for _, inf in results if inf.ok)
        print(f"-- {len(results)} target(s), {ok} inferred, "
              f"{len(results) - ok} uninferable")

    if args.write_baseline:
        with open(args.write_baseline, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.write_baseline}")

    status = 0
    if args.baseline:
        with open(args.baseline) as fh:
            baseline: Dict[str, dict] = json.load(fh)
        for name in sorted(set(baseline) | set(current)):
            if name not in current and args.names:
                print(f"baseline target {name} not inferred; its sites "
                      f"were not re-checked")
            elif name not in current:
                print(f"baseline target {name} not inferred")
                status = 1
            elif name not in baseline:
                print(f"NEW inference target {name} not in baseline")
                status = 1
            elif baseline[name] != current[name]:
                print(f"inference drift in {name}:")
                print(f"  baseline: {json.dumps(baseline[name], sort_keys=True)}")
                print(f"  current : {json.dumps(current[name], sort_keys=True)}")
                status = 1
        if status == 0:
            print("baseline check: OK")
    return status


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    prog = "python -m repro.analysis"
    if argv and argv[0] in _SUBCOMMANDS:
        cmd, rest = argv[0], argv[1:]
        if cmd == "infer":
            return run_infer(rest, f"{prog} infer")
        return run_lint(rest, f"{prog} lint", strict=True)
    # Backward-compatible bare invocation == non-strict lint.
    return run_lint(argv, prog, strict=False)


if __name__ == "__main__":
    sys.exit(main())
