"""Tests for :mod:`repro.analysis` — CFGs, dataflow, and the three
client passes (instrumentation linter, escape/ownership analysis, race
lint), plus their wiring into eligibility, the reductions and Table 1.

The set-level soundness of the quarantine-enabled reduction over a
``dispose``-ing program is asserted end-to-end here (reduced vs.
unreduced history/observable sets on the two-lock queue dispose
variant), complementing the dispose-free equivalence suite in
``test_engine_equivalence.py``.
"""

import pytest

from repro.algorithms import algorithm_names, get_algorithm
from repro.algorithms.counter_nonatomic import (
    atomic_counter,
    instrumented_atomic_counter,
    instrumented_racy_counter,
    racy_counter,
)
from repro.algorithms.ms_two_lock_queue import dispose_variant
from repro.analysis import (
    AnalysisReport,
    Diagnostic,
    analyze_algorithm,
    analyze_escape,
    analyze_object,
    build_cfg,
    lint_instrumented,
    lint_races,
    solve_disjunctive,
    solve_lattice,
)
from repro.analysis.cfg import ASSUME, STMT
from repro.instrument import (
    InstrumentedMethod,
    InstrumentedObject,
    ghost,
    linself,
    trylinself,
)
from repro.lang import MethodDef, ObjectImpl, seq
from repro.lang.ast import Const, Dispose, Var
from repro.lang.builders import (
    Record,
    add,
    assign,
    atomic,
    eq,
    if_,
    ret,
    while_,
)
from repro.lang.parser import parse_methods
from repro.memory.heap import QUARANTINE_KEY, allocate
from repro.memory.store import Store
from repro.pretty import render_perf
from repro.reduce import SYM_STRIDE, scan_program
from repro.semantics.events import ReturnEvent
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import Limits, explore
from repro.semantics.search import SearchStats


def _program_for(name, threads=2, ops=1):
    alg = get_algorithm(name)
    return mgc_program(alg.impl, alg.workload.menu,
                       threads=threads, ops_per_thread=ops)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


def test_cfg_straight_line():
    cfg = build_cfg(seq(assign("t", "x"), ret("t")))
    assert cfg.entry == 0 and cfg.exit == -1
    kinds = [e.kind for e in cfg.edges]
    assert kinds.count(STMT) == 2
    rets = cfg.return_edges()
    assert len(rets) == 1 and rets[0].dst == cfg.exit


def test_cfg_if_produces_assume_edges():
    cfg = build_cfg(if_(eq("t", 0), assign("r", 1), assign("r", 2)))
    assumes = [e for e in cfg.edges if e.kind == ASSUME]
    assert {e.polarity for e in assumes} == {True, False}
    assert all(e.cond is not None for e in assumes)


def test_cfg_while_has_back_edge():
    cfg = build_cfg(seq(while_(eq("t", 0), assign("t", "x")), ret(0)))
    # Some node must be reachable from itself through the loop body.
    assumes = [e for e in cfg.edges if e.kind == ASSUME]
    head = {e.src for e in assumes}
    assert len(head) == 1  # both branch polarities leave the same node
    stmt_edges = [e for e in cfg.edges if e.kind == STMT]
    assert any(e.dst in head for e in stmt_edges)  # the back edge


def test_cfg_atomic_region_ids():
    cfg = build_cfg(seq(assign("a", 1),
                        atomic(assign("b", 2), assign("c", 3)),
                        assign("d", 4)))
    regions = {str(e.stmt): e.atomic for e in cfg.edges if e.kind == STMT}
    assert regions[str(assign("a", 1))] == 0
    assert regions[str(assign("d", 4))] == 0
    inner = {v for k, v in regions.items() if "b" in k or "c" in k}
    assert inner != {0} and len(inner) == 1


# ---------------------------------------------------------------------------
# Dataflow solvers
# ---------------------------------------------------------------------------


def test_solve_lattice_constant_propagation():
    cfg = build_cfg(seq(assign("t", 1),
                        if_(eq("u", 0), assign("t", 1), assign("t", 2)),
                        ret("t")))

    def transfer(edge, state):
        if edge.kind != STMT or not hasattr(edge.stmt, "var"):
            return state
        expr = edge.stmt.expr
        val = frozenset({expr.value}) if isinstance(expr, Const) \
            else frozenset({1, 2})
        return {**state, edge.stmt.var: val}

    def join(a, b):
        keys = set(a) | set(b)
        return {k: a.get(k, frozenset()) | b.get(k, frozenset())
                for k in keys}

    states = solve_lattice(cfg, {}, transfer, join)
    assert states[cfg.exit]["t"] == frozenset({1, 2})


def test_solve_lattice_divergence_guard():
    cfg = build_cfg(seq(while_(eq("t", 0), assign("t", add("t", 1))),
                        ret("t")))

    def transfer(edge, n):
        return n + 1  # strictly ascending: never stabilizes

    with pytest.raises(RuntimeError):
        solve_lattice(cfg, 0, transfer, max, max_iterations=500)


def test_solve_disjunctive_tracks_paths_separately():
    cfg = build_cfg(seq(if_(eq("u", 0), assign("t", 1), assign("t", 2)),
                        ret("t")))

    def transfer(edge, fact):
        if edge.kind == STMT and hasattr(edge.stmt, "var") \
                and isinstance(edge.stmt.expr, Const):
            return [(edge.stmt.var, edge.stmt.expr.value)]
        return [fact]

    facts = solve_disjunctive(cfg, [("t", 0)], transfer)
    # Disjunctive: both branch outcomes survive at the exit un-joined.
    assert {("t", 1), ("t", 2)} <= facts[cfg.exit]


# ---------------------------------------------------------------------------
# Instrumentation linter (Fig. 11 well-formedness)
# ---------------------------------------------------------------------------


def _counter_iobj(body) -> InstrumentedObject:
    from repro.algorithms.counter_nonatomic import counter_phi
    from repro.algorithms.specs import counter_spec

    inc = InstrumentedMethod("inc", "u", ("t",), body)
    return InstrumentedObject("test-counter", {"inc": inc}, counter_spec(),
                              {"x": 0}, phi=counter_phi())


def _codes(diags):
    return {d.code for d in diags}


def test_lint_clean_on_well_instrumented_counter():
    assert lint_instrumented(instrumented_atomic_counter()) == []


def test_lint_no_self_lin():
    body = seq(atomic(assign("t", "x"), assign("x", add("t", 1))),
               ret(add("t", 1)))
    assert "no-self-lin" in _codes(lint_instrumented(_counter_iobj(body)))


def test_lint_double_self_lin():
    body = seq(atomic(assign("t", "x"), assign("x", add("t", 1)),
                      linself(), linself()),
               ret(add("t", 1)))
    assert "double-self-lin" in _codes(
        lint_instrumented(_counter_iobj(body)))


def test_lint_unresolved_speculation():
    # ``trylinself`` with no commit resolving it before the return.
    body = seq(atomic(assign("t", "x"), assign("x", add("t", 1)),
                      trylinself()),
               ret(add("t", 1)))
    assert "unresolved-speculation" in _codes(
        lint_instrumented(_counter_iobj(body)))


def test_lint_aux_flow_ghost_read_by_real_code():
    body = seq(atomic(assign("t", "x"), assign("x", add("t", 1)),
                      linself(), ghost(assign("_g", 1))),
               ret(add("t", "_g")))  # real code reads the ghost var
    assert "aux-flow" in _codes(lint_instrumented(_counter_iobj(body)))


@pytest.mark.parametrize("name", algorithm_names())
def test_registry_lint_baseline_and_eligibility(name):
    """Every Table-1 algorithm is diagnostic-free, and the static
    eligibility verdict matches the pinned per-algorithm expectation."""

    expected = {
        "treiber": (True, True),
        "hsy_stack": (True, True),  # needs the field-sensitive analysis
        "ms_two_lock_queue": (True, True),
        "ms_lock_free_queue": (True, True),
        "dglm_queue": (True, True),
        "lock_coupling_list": (True, True),
        "optimistic_list": (True, True),
        "lazy_list": (True, True),
        "harris_michael_list": (False, False),  # pointer packing
        "pair_snapshot": (False, False),        # computed addresses
        "ccas": (False, False),                 # pointer packing
        "rdcss": (False, False),                # pointer packing
    }
    report = analyze_algorithm(get_algorithm(name))
    assert report.clean, report.summary()
    elig = scan_program(_program_for(name))
    assert (elig.por, elig.sym) == expected[name]
    if not elig.sym:
        assert elig.reasons and elig.reason


# ---------------------------------------------------------------------------
# Race lint (Sec. 2.4 counter)
# ---------------------------------------------------------------------------


def test_race_lint_fires_on_racy_counter():
    diags = lint_races(racy_counter())
    assert [d.code for d in diags] == ["unsynchronized-rmw"]
    assert diags[0].method == "inc"


def test_race_lint_silent_on_atomic_counter():
    assert lint_races(atomic_counter()) == []


def test_race_lint_silent_on_lock_based_queue():
    # Reads/writes happen under HLock/TLock spin locks: no diagnostic.
    assert lint_races(get_algorithm("ms_two_lock_queue").impl) == []


def test_analyze_object_report_shape():
    report = analyze_object("racy", instrumented=instrumented_racy_counter(),
                            impl=racy_counter(), menu=[("inc", 0)])
    assert isinstance(report, AnalysisReport)
    assert not report.clean
    keys = {d.key() for d in report.diagnostics}
    assert "races:inc:unsynchronized-rmw" in keys
    js = report.to_json()
    assert js["races"] == ["races:inc:unsynchronized-rmw"]
    assert js["eligibility"]["por"] is not None


# ---------------------------------------------------------------------------
# Escape / ownership analysis
# ---------------------------------------------------------------------------


def test_escape_hsy_stack_field_bound_and_static_cells():
    info = analyze_escape(_program_for("hsy_stack"))
    assert info.ok
    assert info.field_offset == 2
    # The collision-array cells are proven thread-confined statics.
    assert info.static_cells == {61, 62}


def test_escape_treiber_field_bound():
    info = analyze_escape(_program_for("treiber"))
    assert info.ok and info.field_offset == 1
    assert not info.static_cells


def test_field_sensitive_eligibility_tightens_hsy():
    program = _program_for("hsy_stack")
    coarse = scan_program(program, field_sensitive=False)
    fine = scan_program(program)
    assert not coarse.sym and coarse.reasons
    assert fine.sym and fine.max_offset == 2
    assert fine.max_offset < coarse.max_offset


def test_parser_built_program_scans():
    methods = parse_methods("""
        push(v) {
            local x, t, r;
            x := new node(v, 0);
            while (1 = 1) {
                t := S;
                [x + 1] := t;
                r := cas(&S, t, x);
                if (r = 1) { return 0; }
            }
        }
    """, records={"node": Record("node", "val", "next")})
    impl = ObjectImpl(methods, {"S": 0}, name="parsed-stack")
    elig = scan_program(mgc_program(impl, [("push", 1)], threads=2,
                                    ops_per_thread=1))
    assert elig.por and elig.sym
    assert lint_races(impl) == []


def test_oversized_record_ineligible():
    fields = tuple(f"f{i}" for i in range(SYM_STRIDE + 1))
    rec = Record("big", *fields)
    mk = MethodDef("mk", "v", ("x",),
                   seq(rec.alloc("x", **{f: 0 for f in fields}), ret("x")))
    impl = ObjectImpl({"mk": mk}, {}, name="oversized")
    elig = scan_program(mgc_program(impl, [("mk", 0)], threads=1,
                                    ops_per_thread=1))
    assert not elig.sym
    assert any("alloc" in r or "stride" in r for r in elig.reasons)


# ---------------------------------------------------------------------------
# Freed-block quarantine
# ---------------------------------------------------------------------------


def test_allocate_skips_quarantined_slot():
    store = Store({QUARANTINE_KEY: 0b1})  # slot 0 is quarantined
    _, addr = allocate(store, (7, 8), base=60, stride=16)
    assert addr == 76  # base + stride, not base


def test_allocate_reuses_slot_without_quarantine():
    _, addr = allocate(Store({}), (7, 8), base=60, stride=16)
    assert addr == 60


def test_dispose_then_realloc_gets_fresh_address():
    """End-to-end: a method that disposes its block and allocates again
    never re-observes the freed address under the quarantine."""

    node = Record("node", "val")
    m = MethodDef("cycle", "v", ("a", "b"),
                  seq(node.alloc("a", val="v"),
                      Dispose(Var("a")),
                      node.alloc("b", val="v"),
                      if_(eq("a", "b"), ret(1), ret(0))))
    impl = ObjectImpl({"cycle": m}, {}, name="realloc")

    program = mgc_program(impl, [("cycle", 3)], threads=1,
                          ops_per_thread=1)
    elig = scan_program(program)
    assert elig.sym and elig.has_dispose
    red = explore(program, Limits(max_nodes=50_000, max_depth=200),
                  engine="sequential")
    assert red.reduce == "por+sym" and not red.aborted
    # Under quarantine the second alloc never equals the freed block, so
    # the method always returns 0.
    rets = {e.value for h in red.histories for e in h
            if isinstance(e, ReturnEvent)}
    assert rets == {0}


def test_dispose_variant_sym_eligible_and_sets_equal():
    """The dispose-ing two-lock queue is sym-eligible (quarantine) and
    the reduced exploration preserves the exact history/observable
    sets."""

    impl = dispose_variant()
    menu = [("enq", 1), ("deq", 0)]
    program = mgc_program(impl, menu, threads=2, ops_per_thread=1)

    coarse = scan_program(program, field_sensitive=False)
    assert not coarse.sym
    assert "dispose without quarantine" in coarse.reasons

    fine = scan_program(program)
    assert fine.sym and fine.has_dispose

    limits = Limits(max_nodes=500_000, max_depth=400)
    red = explore(program, limits, engine="sequential")
    base = explore(program, limits, engine="sequential+noreduce")
    # The default engine now stacks thread-identity symmetry on top;
    # what matters here is that the sym layer engaged (quarantine).
    assert red.reduce in ("por+sym", "por+sym+tsym")
    assert base.reduce == "none"
    assert not red.aborted and not base.aborted
    assert red.nodes < base.nodes
    assert red.histories == base.histories
    assert red.observables == base.observables


# ---------------------------------------------------------------------------
# Eligibility reasons + render_perf (satellites)
# ---------------------------------------------------------------------------


def test_eligibility_records_all_reasons():
    elig = scan_program(_program_for("ccas"))
    assert isinstance(elig.reasons, tuple)
    assert len(elig.reasons) > 1  # ccas packs pointers in several spots
    assert elig.reason == "; ".join(elig.reasons)
    assert any("computed value" in r for r in elig.reasons)


def test_eligible_program_has_empty_reasons():
    elig = scan_program(_program_for("treiber"))
    assert elig.reasons == () and elig.reason == ""


def test_render_perf_zero_elapsed():
    text = render_perf(SearchStats(nodes=0, elapsed=0.0))
    assert text.startswith("nodes=0")
    assert "nodes/sec" not in text  # and no ZeroDivisionError


def test_render_perf_counters_and_reasons():
    text = render_perf(SearchStats(
        nodes=100, elapsed=2.0, dedup_lookups=10, dedup_hits=5,
        reduce="por", por_pruned=3, sym_merged=0,
        reduce_reasons=("dispose without quarantine",)))
    assert "nodes/sec=50" in text
    assert "dedup-hit-rate=50.0%" in text
    assert "por-pruned=3" in text
    assert "reduce-held-back=[dispose without quarantine]" in text


def test_table1_row_carries_diagnostics_and_reasons():
    from repro.table.table1 import table1_json, verify_row

    row = verify_row("treiber", limits=Limits(max_nodes=4000,
                                              max_depth=60))
    assert row.diagnostics == ()
    js = table1_json([row])[0]
    assert js["diagnostics"] == [] and js["reduce_reasons"] == []
