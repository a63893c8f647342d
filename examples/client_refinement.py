#!/usr/bin/env python
"""Contextual refinement as a client-reasoning tool (end of Sec. 4.3).

Because a verified object contextually refines its specification
(Theorem 8), a client program can be analysed against the *abstract*
object — "separation and information hiding": the analysis never looks
at the linked list, cas loops or version numbers.

We take a producer/consumer client over the verified MS lock-free queue
and compute its observable behaviours twice: against the real
implementation (expensive — every interleaving of the cas loops) and
against the atomic specification (cheap).  Refinement guarantees the
concrete behaviours are contained in the abstract ones; the abstract
analysis is both sound and an order of magnitude smaller.
"""

import time

from repro import Limits, get_algorithm
from repro.lang import Call, Const, Print, Var, seq
from repro.refinement import abstract_observables, concrete_observables
from repro.semantics.events import format_trace

LIMITS = Limits(max_depth=4000, max_nodes=2_000_000)


def producer():
    return seq(Call("", "enq", Const(1)),
               Call("", "enq", Const(2)))


def consumer():
    return seq(Call("a", "deq", Const(0)),
               Call("b", "deq", Const(0)),
               Print(Var("a")),
               Print(Var("b")))


def main():
    alg = get_algorithm("ms_lock_free_queue")
    clients = (producer(), consumer())

    print("analysing the client against the ABSTRACT queue (with Γ do ...)")
    t0 = time.perf_counter()
    abstract = abstract_observables(alg.spec, clients, LIMITS)
    t_abs = time.perf_counter() - t0
    print(f"  {len(abstract.observables)} observable traces, "
          f"{abstract.nodes} states, {t_abs:.2f}s")

    print("analysing the client against the CONCRETE queue (let Π in ...)")
    t0 = time.perf_counter()
    concrete = concrete_observables(alg.impl, clients, LIMITS)
    t_conc = time.perf_counter() - t0
    print(f"  {len(concrete.observables)} observable traces, "
          f"{concrete.nodes} states, {t_conc:.2f}s")

    assert concrete.observables <= abstract.observables, \
        "refinement violated — the object would be non-linearizable"
    print("\nO[[let Π in C]] ⊆ O[[with Γ do C]]  — refinement confirmed")
    speedup = concrete.nodes / max(abstract.nodes, 1)
    print(f"abstract analysis explores {speedup:.0f}x fewer states")

    print("\nmaximal observable outcomes (consumer's two dequeues):")
    maximal = {t for t in abstract.observables
               if not any(t == u[:len(t)] and len(u) > len(t)
                          for u in abstract.observables)}
    for trace in sorted(maximal, key=repr):
        print("  ", format_trace(trace))


if __name__ == "__main__":
    main()
