"""Unit tests for :mod:`repro.reduce` — eligibility, symmetry, interning.

The set-level soundness of the reductions is established end-to-end in
``test_engine_equivalence.py`` / ``test_differential_history.py``; here
the individual pieces are pinned down: the static eligibility scan, the
canonicalization pass (permutation invariance, garbage collection,
anomaly bail-out, escape detection) and the hash-consing interner.
"""

import pytest

from repro.algorithms import get_algorithm
from repro.lang import MethodDef, ObjectImpl, seq
from repro.lang.ast import BinOp, Const, Var
from repro.lang.builders import assign, ret, store
from repro.memory.store import Store
from repro.reduce import (
    DEFAULT_REDUCE,
    Interner,
    canonicalize_config,
    resolve_policy,
    scan_program,
    SYM_BASE,
    SYM_STRIDE,
)
from repro.reduce.symmetry import AddressEscapeError, check_event_escape
from repro.semantics.events import ReturnEvent
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import Config
from repro.semantics.thread import Frame, ThreadState


def _program_for(name, threads=2, ops=1):
    alg = get_algorithm(name)
    return mgc_program(alg.impl, alg.workload.menu,
                       threads=threads, ops_per_thread=ops)


# ---------------------------------------------------------------------------
# Eligibility scan
# ---------------------------------------------------------------------------


def test_treiber_fully_eligible():
    elig = scan_program(_program_for("treiber"))
    assert elig.por and elig.sym
    assert elig.max_alloc <= SYM_STRIDE
    assert elig.max_offset < SYM_STRIDE


def test_ccas_pointer_packing_ineligible():
    elig = scan_program(_program_for("ccas"))
    assert not elig.por and not elig.sym
    assert elig.reason


@pytest.mark.parametrize("name,expect_por,expect_sym", [
    ("treiber", True, True),
    ("ms_lock_free_queue", True, True),
    ("ccas", False, False),
    ("rdcss", False, False),
    ("pair_snapshot", False, False),
])
def test_eligibility_per_algorithm(name, expect_por, expect_sym):
    elig = scan_program(_program_for(name))
    assert elig.por == expect_por
    assert elig.sym == expect_sym


@pytest.mark.parametrize("name", ["ccas", "rdcss", "pair_snapshot",
                                  "harris_michael_list"])
def test_eligibility_reasons_are_canonically_sorted(name):
    """Reasons are a *set* of disqualifying constructs; the scan visits
    them in body order, which is an implementation accident.  The
    published tuple must be sorted and duplicate-free so baselines and
    Table-1 JSON stay stable across refactors of the scan order."""

    from repro.reduce.eligibility import scan_thread_symmetry

    prog = _program_for(name)
    for reasons in (scan_program(prog).reasons,
                    scan_thread_symmetry(prog).reasons,
                    resolve_policy(prog, None).reasons):
        assert list(reasons) == sorted(set(reasons))


def test_value_constants_are_collected():
    body = seq(assign("t", Const(3)), store(Var("t"), Const(7)), ret("t"))
    impl = ObjectImpl({"m": MethodDef("m", "v", ("t",), body)}, {"g": 0})
    prog = mgc_program(impl, [("m", 0)], threads=1, ops_per_thread=1)
    elig = scan_program(prog)
    assert elig.por
    assert 3 in elig.value_consts  # `t := 3; [t] := 7` conjures address 3


def test_computed_value_disqualifies():
    body = seq(assign("t", BinOp("+", Var("t"), Const(1))), ret("t"))
    impl = ObjectImpl({"m": MethodDef("m", "v", ("t",), body)}, {"g": 0})
    prog = mgc_program(impl, [("m", 0)], threads=1, ops_per_thread=1)
    elig = scan_program(prog)
    assert not elig.por and not elig.sym
    assert "computed value" in elig.reason


def test_resolve_policy_default_and_none():
    prog = _program_for("treiber")
    policy = resolve_policy(prog, None)
    assert policy.mode == DEFAULT_REDUCE
    assert policy.por and policy.sym
    inert = resolve_policy(prog, "none")
    assert not inert.por and not inert.sym
    assert inert.effective == "none"
    with pytest.raises(Exception):
        resolve_policy(prog, "bogus")


def test_resolve_policy_degrades_for_ineligible():
    policy = resolve_policy(_program_for("ccas"), "por+sym")
    assert not policy.por and not policy.sym
    assert policy.effective == "none"


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def _block(base, *values):
    return {base + i: v for i, v in enumerate(values)}


def _config(sigma_o, threads=(), sigma_c=()):
    return Config(threads=tuple(threads), sigma_c=Store(dict(sigma_c)),
                  sigma_o=Store(sigma_o))


B0 = SYM_BASE
B1 = SYM_BASE + SYM_STRIDE
B2 = SYM_BASE + 2 * SYM_STRIDE


def test_canonicalize_identity_is_unchanged():
    config = _config({"S": B0, **_block(B0, 7, 0)})
    out, changed = canonicalize_config(config, Store)
    assert out is config and not changed


def test_canonicalize_swaps_blocks_to_discovery_order():
    # S points at the *second* block; canonical form renames it to B0.
    config = _config({"S": B1, **_block(B0, 1, 0), **_block(B1, 2, B0)})
    out, changed = canonicalize_config(config, Store)
    assert changed
    assert out.sigma_o["S"] == B0
    assert out.sigma_o[B0] == 2 and out.sigma_o[B0 + 1] == B1
    assert out.sigma_o[B1] == 1 and out.sigma_o[B1 + 1] == 0


def test_canonicalize_is_permutation_invariant():
    """Both address assignments of the same two-node list canonicalize
    to the same representative — the merge the reduction relies on."""

    a = _config({"S": B0, **_block(B0, 1, B1), **_block(B1, 2, 0)})
    b = _config({"S": B1, **_block(B1, 1, B0), **_block(B0, 2, 0)})
    ca, _ = canonicalize_config(a, Store)
    cb, _ = canonicalize_config(b, Store)
    assert ca == cb


def test_canonicalize_collects_garbage():
    """Unreachable blocks are erased: configurations differing only in
    dead-node placement or contents merge."""

    live = {"S": B0, **_block(B0, 5, 0)}
    with_garbage_a = _config({**live, **_block(B1, 1, 0)})
    with_garbage_b = _config({"S": B1, **_block(B1, 5, 0),
                              **_block(B0, 2, B1)})
    clean = _config(live)
    ca, changed_a = canonicalize_config(with_garbage_a, Store)
    cb, changed_b = canonicalize_config(with_garbage_b, Store)
    assert changed_a and changed_b
    assert ca == cb == canonicalize_config(clean, Store)[0]
    assert all(not (isinstance(k, int) and k >= B1) for k in ca.sigma_o)


def test_canonicalize_renames_frame_locals_and_clients():
    frame = Frame(locals=Store({"x": B1}), retvar="r",
                  caller_control=(), method="m")
    config = _config({**_block(B0, 9, 0), **_block(B1, 3, B0)},
                     threads=[ThreadState(control=(), frame=frame)],
                     sigma_c={"t1_r": B1})
    out, changed = canonicalize_config(config, Store)
    assert changed
    new_addr = out.threads[0].frame.locals["x"]
    assert new_addr == B0  # first discovered root
    assert out.sigma_c["t1_r"] == new_addr
    assert out.sigma_o[new_addr] == 3


def test_canonicalize_bails_on_anomalous_address():
    # A value in the sparse range that is not an allocated block: the
    # pass must return the configuration unchanged rather than guess.
    config = _config({"S": B2 + 3, **_block(B0, 1, 0)})
    out, changed = canonicalize_config(config, Store)
    assert out is config and not changed


def test_event_escape_raises():
    check_event_escape(ReturnEvent(1, 7))  # fine: small value
    with pytest.raises(AddressEscapeError):
        check_event_escape(ReturnEvent(1, SYM_BASE + 4))


# ---------------------------------------------------------------------------
# Interner
# ---------------------------------------------------------------------------


def test_interner_returns_identical_objects():
    interner = Interner()
    mk = lambda: _config({"S": B0, **_block(B0, 1, 0)},
                         sigma_c={"a": 1})
    c1 = interner.config(mk())
    c2 = interner.config(mk())
    assert c1 is c2
    t1 = interner.thread_state(ThreadState(control=()))
    t2 = interner.thread_state(ThreadState(control=()))
    assert t1 is t2


def test_interner_shares_frames_and_their_locals():
    """A thread state is interned after its frame, and a frame after its
    locals: every thread state handed out holds the canonical frame, and
    every frame the canonical locals store."""

    interner = Interner()

    def frame(x):
        return Frame(Store({"x": x}), "r", (), "m")

    locals_ = interner.value(Store({"x": 1}))
    f1 = interner.frame(frame(1))
    assert f1.locals is locals_
    t1 = interner.thread_state(ThreadState((), frame(1)))
    assert t1.frame is f1
    assert interner.thread_state(ThreadState((), frame(1))) is t1
    assert interner.frame(frame(2)) is not f1


def test_config_hash_is_cached_and_stable():
    config = _config({"S": 0})
    h1 = hash(config)
    assert config.__dict__.get("_hash") == h1
    assert hash(config) == h1
    assert config == _config({"S": 0})
    assert config != _config({"S": 1})


# ---------------------------------------------------------------------------
# Perf-counter rendering
# ---------------------------------------------------------------------------


def test_render_perf_reports_reduction_counters():
    from repro.pretty import render_perf
    from repro.semantics.scheduler import Explorer

    result = Explorer(_program_for("treiber")).run()
    line = render_perf(result)
    assert f"nodes={result.nodes}" in line
    assert "reduce=por+sym" in line
    assert "por-pruned=" in line and "sym-merged=" in line
    assert "dedup-hit-rate=" in line

    plain = Explorer(_program_for("ccas")).run()
    assert "reduce=none" in render_perf(plain)
    assert "por-pruned" not in render_perf(plain)
