"""Registry-wide probe: every decider's counts, sets and failures as JSON.

On every registry algorithm (the synthesized entries included) and the
Sec-2.4 racy counter, at 2 threads x 1 operation, the probe runs

* the explorer, on the compiled tables and on the interpreter;
* the Def-2 product (``check_program_linearizable``);
* the definitional Def-2 engine (collected histories, each checked by
  the Def-1 search), whose counterexample is the first failing maximal
  history in a hash-independent order;
* Def-3 refinement with printing clients (its concrete exploration and
  the verdict);
* the Fig-11 witness, with and without complete histories, and its
  seeded random walk (64 walks, seed 0);
* LP inference on the plain code and, where it succeeds, the
  synthesis of instrumentation from its plan;

and records node counts, digests of the history and observable sets,
the reduction and dedup counters, the failure records, the inferred
disciplines and LP sites, and a digest of the synthesized bodies.  Run as a
script it prints the JSON::

    PYTHONPATH=src python tests/registry_probe.py > probe.json

The output must not depend on ``PYTHONHASHSEED``; the tests compare
:func:`probe` with the step memos on and off.
"""

from __future__ import annotations

import hashlib
import json
import sys
from types import SimpleNamespace

from repro.algorithms import algorithm_names, get_algorithm
from repro.algorithms.base import DEFAULT_LIMITS
from repro.algorithms.counter_nonatomic import (
    instrumented_racy_counter,
    racy_counter,
)
from repro.algorithms.specs import counter_spec
from repro.analysis import infer_object, synthesize_object
from repro.engine.random_walk import random_walk_instrumented
from repro.history.object_lin import (
    check_program_linearizable,
    check_program_linearizable_definitional,
)
from repro.instrument.runner import InstrumentedRunner
from repro.lang.program import Program
from repro.refinement.contextual import check_clients_refinement
from repro.semantics.mgc import mgc_program, printing_client
from repro.semantics.scheduler import explore

RACY = "racy_counter"
THREADS, OPS = 2, 1
#: The SearchStats counters every decider's result carries.
COUNTERS = ("por_pruned", "sym_merged", "sleep_skipped", "tsym_merged",
            "dedup_hits", "dedup_lookups")


def probe_names():
    return algorithm_names(include_synthesized=True) + [RACY]


def algorithm(name: str):
    if name != RACY:
        return get_algorithm(name)
    return SimpleNamespace(
        impl=racy_counter(), spec=counter_spec(),
        instrumented=instrumented_racy_counter(),
        workload=SimpleNamespace(menu=[("inc", 0)]),
        invariant=None, guarantee=None, limits=DEFAULT_LIMITS)


def digest(traces) -> str:
    """An order-independent digest of a set of traces."""

    text = "\n".join(sorted(repr(t) for t in traces))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _search(result) -> dict:
    return {"nodes": result.nodes, "bounded": result.bounded,
            **{k: getattr(result, k) for k in COUNTERS}}


def _explore(result) -> dict:
    return {**_search(result),
            "histories": digest(result.histories),
            "observables": digest(result.observables),
            "aborted": result.aborted,
            "terminal": len(result.terminal_configs),
            "semantics": result.semantics}


def witness_record(result) -> dict:
    return {**_search(result), "ok": result.ok,
            "histories": digest(result.histories),
            "failures": [[f.kind, f.message, repr(f.history)]
                         for f in result.failures],
            "semantics": result.semantics}


def inference_record(alg, name: str) -> dict:
    inf = infer_object(alg.impl, name=name)
    synth = None
    if inf.ok:
        syn = synthesize_object(alg.impl, alg.spec, inference=inf,
                                name=name)
        text = "\n".join(repr(syn.methods[m].body)
                         for m in sorted(syn.methods))
        synth = hashlib.sha256(text.encode()).hexdigest()[:16]
    return {"inferred": inf.to_json(), "synthesized": synth}


def probe_one(name: str) -> dict:
    alg = algorithm(name)
    menu = alg.workload.menu
    program = mgc_program(alg.impl, menu, threads=THREADS,
                          ops_per_thread=OPS)
    out = {
        "explore": _explore(explore(program, engine="sequential+compiled")),
        "explore-interp": _explore(
            explore(program, engine="sequential+interp")),
    }
    product = check_program_linearizable(program, alg.spec, alg.limits)
    out["product"] = {**_search(product), "ok": product.ok,
                      "histories": digest(product.histories),
                      "counterexample": repr(product.counterexample)}
    definitional = check_program_linearizable_definitional(
        program, alg.spec, alg.limits)
    out["definitional"] = {
        "ok": definitional.ok, "reason": definitional.reason,
        "checked": definitional.histories_checked,
        "counterexample": repr(definitional.counterexample)}

    clients = tuple(printing_client(menu, OPS, prefix=f"t{t}")
                    for t in range(1, THREADS + 1))
    concrete = explore(Program(alg.impl, clients, (), True))
    refines = check_clients_refinement(alg.impl, alg.spec, clients,
                                       alg.limits, private_client_vars=True)
    out["refinement"] = {**_explore(concrete), "ok": refines.ok,
                         "abstract": refines.abstract_traces,
                         "missing": repr(refines.missing)}

    for complete in (False, True):
        runner = InstrumentedRunner(
            alg.instrumented, menu, THREADS, OPS, alg.limits,
            alg.invariant, alg.guarantee, history_complete=complete)
        key = "witness-complete" if complete else "witness"
        out[key] = witness_record(runner.run())
    runner = InstrumentedRunner(alg.instrumented, menu, THREADS, OPS,
                                alg.limits, alg.invariant, alg.guarantee)
    out["witness-walk"] = witness_record(
        random_walk_instrumented(runner, walks=64, seed=0))
    out["infer"] = inference_record(alg, name)
    return out


def probe(names=None) -> dict:
    return {name: probe_one(name) for name in (names or probe_names())}


if __name__ == "__main__":
    json.dump(probe(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
