"""Search-core guards at sizes tier-1 does not run.

Marked ``guard`` and deselected by default (``pyproject.toml``); run
them with ``PYTHONPATH=src python -m pytest -m guard -s``.  Each prints
the figures it checks.

* The collector pause: the search core pauses the cyclic collector for
  the length of a search.  The verdicts must hold, the collector must be
  back on afterwards, and no check may leave cyclic garbage (search
  state forms no cycles, so the pause cannot hide a leak).
* Hash-consing: the explorer interns every store, frame and thread
  state where it makes them, so no configuration a search expanded holds
  an unshared component.
* The seeded walks run the search core's rules through its ``walk()``,
  with the same pause: on the Sec-2.4 racy counter they must refuse.
"""

import gc

import pytest

from repro.algorithms import get_algorithm
from repro.algorithms.counter_nonatomic import (
    instrumented_racy_counter,
    racy_counter,
)
from repro.algorithms.specs import counter_spec
from repro.engine.random_walk import random_walk_instrumented, random_walk_lin
from repro.history import check_object_linearizable
from repro.history.object_lin import ProductSearch
from repro.instrument.runner import InstrumentedRunner
from repro.memory.store import Store
from repro.semantics.mgc import mgc_program

pytestmark = pytest.mark.guard


def gc_guarded(label, check):
    """Run ``check`` and assert its verdict, the collector back on and
    no cyclic garbage left; prints the gen-2 collections it ran."""

    gc.collect()
    before = gc.get_stats()[2]["collections"]
    result = check()
    during = gc.get_stats()[2]["collections"] - before
    assert gc.isenabled(), f"{label}: collector left off"
    garbage = gc.collect()
    print(f"{label}: nodes={result.nodes} ok={result.ok} "
          f"gen2_collections={during} "
          f"cyclic_garbage={garbage}")
    assert result.ok and not result.bounded, label
    assert garbage == 0, f"{label}: {garbage} objects in cycles"


def test_collector_pause_ms_lock_free_2x2_product():
    ms = get_algorithm("ms_lock_free_queue")
    gc_guarded("ms_lock_free_queue 2x2 product",
               lambda: check_object_linearizable(
                   ms.impl, ms.spec, ms.workload.menu, 2, 2,
                   ms.limits, phi=ms.phi))


def test_collector_pause_hsy_stack_2x1_witness():
    hsy = get_algorithm("hsy_stack")
    gc_guarded("hsy_stack 2x1 witness",
               lambda: InstrumentedRunner(
                   hsy.instrumented, hsy.workload.menu, 2, 1,
                   hsy.limits, hsy.invariant, hsy.guarantee).run())


def test_hash_consing_ms_lock_free_2x2_product():
    """No configuration the MS 2x2 product expanded holds an unshared
    σ_c, σ_o, frame (or frame locals) or thread state; prints the live
    stores against their distinct values."""

    ms = get_algorithm("ms_lock_free_queue")
    search = ProductSearch(
        mgc_program(ms.impl, ms.workload.menu, threads=2,
                    ops_per_thread=2), ms.spec, ms.limits)
    result = search.new_result(expanded_keys=[])
    search.run_from(search.start_nodes(), ms.limits.max_nodes, result)
    assert result.ok and not result.bounded
    configs = [config for config, _states in result.expanded_keys]
    threads = [t for c in configs for t in c.threads]
    frames = [t.frame for t in threads if t.frame is not None]
    parts = {"sigma_c": [c.sigma_c for c in configs],
             "sigma_o": [c.sigma_o for c in configs],
             "locals": [f.locals for f in frames],
             "frames": frames,
             "threads": threads}

    def unshared(objs):
        canonical = {}
        return sum(canonical.setdefault(o, o) is not o for o in objs)

    gc.collect()
    stores = [o for o in gc.get_objects() if type(o) is Store]
    print(f"ms_lock_free_queue 2x2 product: nodes={result.nodes} "
          f"live stores={len(stores)} "
          f"distinct values={len(set(stores))}")
    for part, objs in parts.items():
        assert unshared(objs) == 0, (
            f"{part}: {unshared(objs)} unshared components")


RACY = mgc_program(racy_counter(), [("inc", 0)], threads=2,
                   ops_per_thread=1)

WALKS = {
    "product": lambda: random_walk_lin(
        RACY, counter_spec(), walks=64, seed=0),
    "witness": lambda: random_walk_instrumented(
        InstrumentedRunner(instrumented_racy_counter(),
                           [("inc", 0)], 2, 1),
        walks=64, seed=0),
}


@pytest.mark.parametrize("label", sorted(WALKS))
def test_racy_counter_walk_refuses(label):
    """The product and witness walks refuse the racy counter, with the
    collector back on and no cyclic garbage left."""

    gc.collect()
    result = WALKS[label]()
    assert gc.isenabled(), f"racy {label} walk: collector left off"
    garbage = gc.collect()
    print(f"racy_counter 2x1 {label} walk: nodes={result.nodes} "
          f"ok={result.ok} cyclic_garbage={garbage}")
    assert not result.ok, f"racy {label} walk accepted"
    assert garbage == 0, f"racy {label} walk: {garbage} in cycles"
