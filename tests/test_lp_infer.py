"""LP-inference and instrumentation-synthesis differential suite.

:mod:`repro.analysis.lp_infer` classifies every method of the *plain*
(erased) registry code into one of the four LP disciplines — fixed,
read-only, speculative, helping — and :mod:`repro.analysis.synth`
re-emits the Fig-7/Fig-11 ghost statements from the plan.  The claim
checked here is differential: erasing the hand instrumentation,
re-inferring and re-synthesizing must reproduce instrumentation that

* erases back to the original code (``Er(synth) = C`` fixpoint),
* is Fig-11 lint clean,
* matches the hand version structurally (all algorithms except
  harris_michael_list, whose synthesized version is a deliberate
  hook *superset* — extra ``trylin_ro`` hooks on value loads), and
* produces the *identical* instrumented history set on the seed
  workloads.

The racy counter is the negative control: the inference must refuse it
with an actionable reason, not mis-instrument it.
"""

import json
import pathlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import algorithm_names, get_algorithm, synthesized_names
from repro.algorithms.counter_nonatomic import atomic_counter, racy_counter
from repro.analysis import (
    DISCIPLINES,
    Uninferable,
    infer_algorithm,
    infer_object,
    lint_instrumented,
    synthesize_algorithm,
    synthesize_object,
)
from repro.instrument.erase import normalize
from repro.instrument.runner import verify_instrumented
from repro.lang import ObjectImpl
from repro.lang.ast import structural_eq
from repro.lang.parser import parse_method
from repro.spec import OSpec, abs_obj, deterministic

REPO = pathlib.Path(__file__).resolve().parent.parent

#: The one algorithm whose synthesized instrumentation is a strict hook
#: superset of the hand version (read-only helpers on *every* shared
#: value load, where the hand version hooks only the next-pointer
#: loads).  It is validated dynamically instead of structurally.
HOOK_SUPERSET = ("harris_michael_list",)

STRUCTURAL = [n for n in algorithm_names() if n not in HOOK_SUPERSET]

ALL_TARGETS = list(algorithm_names()) + list(synthesized_names())


# ---------------------------------------------------------------------------
# Differential: erase -> infer -> synthesize reproduces the hand version
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", STRUCTURAL)
def test_synthesis_matches_hand_structurally(name):
    alg = get_algorithm(name)
    inference = infer_algorithm(alg)
    assert inference.ok, inference.reason
    syn = synthesize_algorithm(alg, inference=inference)
    for mname, hand in alg.instrumented.methods.items():
        got = normalize(syn.methods[mname].body)
        want = normalize(hand.body)
        assert structural_eq(got, want), \
            f"{name}.{mname}: synthesized instrumentation differs"


@pytest.mark.parametrize("name", ALL_TARGETS)
def test_synthesis_erasure_fixpoint_and_lint(name):
    """Er(synthesize(C)) = C and the result is Fig-11 clean — for the
    12 hand rows *and* the two synthesized registry entries."""

    alg = get_algorithm(name)
    syn = synthesize_algorithm(alg)
    assert syn.check_erasure_against(alg.impl) == []
    assert lint_instrumented(syn) == []


@pytest.mark.parametrize(
    "name", ["treiber", "ms_lock_free_queue", "hsy_stack"] +
            list(HOOK_SUPERSET))
def test_synthesis_dynamic_differential(name):
    """Hand and synthesized instrumentation yield the identical
    instrumented history set on the seed workload at 2 threads x 1 op."""

    alg = get_algorithm(name)
    syn = synthesize_algorithm(alg)
    menu = alg.workload.menu
    hand = verify_instrumented(alg.instrumented, menu, 2, 1, alg.limits,
                               alg.invariant, alg.guarantee)
    got = verify_instrumented(syn, menu, 2, 1, alg.limits,
                              alg.invariant, alg.guarantee)
    assert hand.ok and got.ok
    assert hand.histories == got.histories


# ---------------------------------------------------------------------------
# Discipline pins
# ---------------------------------------------------------------------------


def test_discipline_pins_cover_all_four():
    """One registry pin per discipline (the method-level classifier)."""

    pins = {
        ("treiber", "push"): "fixed",
        ("treiber", "pop"): "read-only",
        ("ms_lock_free_queue", "deq"): "speculative",
        ("pair_snapshot", "readPair"): "speculative",
        ("rdcss", "RDCSS"): "helping",
        ("lazy_list", "contains"): "helping",
    }
    for (alg_name, method), want in pins.items():
        inf = infer_algorithm(get_algorithm(alg_name))
        assert inf.ok, inf.reason
        assert inf.methods[method].discipline == want, (alg_name, method)
    assert set(pins.values()) == set(DISCIPLINES) - {"read-only"} \
        | {"read-only"}


def test_object_discipline_is_join_over_methods():
    inf = infer_algorithm(get_algorithm("treiber"))
    # push is fixed, pop is read-only; the object takes the max rank.
    assert inf.discipline == "read-only"
    inf = infer_algorithm(get_algorithm("rdcss"))
    assert inf.discipline == "helping"


def test_racy_counter_is_uninferable_with_reason():
    inf = infer_object(racy_counter(), name="racy_counter")
    assert not inf.ok
    assert inf.discipline == "uninferable"
    assert "racy read-modify-write" in inf.reason
    with pytest.raises(Uninferable):
        synthesize_object(racy_counter(), _mini_spec("inc"))


def test_atomic_counter_is_fixed():
    inf = infer_object(atomic_counter(), name="atomic_counter")
    assert inf.ok and inf.discipline == "fixed"


# ---------------------------------------------------------------------------
# Classifier unit pins on minimal hand-rolled programs
# ---------------------------------------------------------------------------


def _mini(name, source, mem=None):
    return ObjectImpl({name: parse_method(source)}, mem or {"x": 0},
                      name="mini")


def _mini_spec(name):
    return OSpec({name: deterministic(name, lambda _, th: (0, th))},
                 abs_obj(x=0), name="mini")


def test_classify_atomic_rmw_is_fixed():
    inf = infer_object(_mini(
        "inc", "inc(v) { local t; < t := x; x := t + 1; > return t; }"))
    assert inf.ok
    m = inf.methods["inc"]
    assert m.discipline == "fixed"
    assert [s.kind for s in m.sites] == ["rmw"]


def test_classify_read_return_is_fixed():
    inf = infer_object(_mini("get", "get(v) { local t; t := x; return t; }"))
    assert inf.ok
    assert [s.kind for s in inf.methods["get"].sites] == ["read-return"]
    assert inf.methods["get"].discipline == "fixed"


def test_classify_cas_retry_loop():
    inf = infer_object(_mini(
        "set",
        "set(v) { local t, b; b := 0;"
        " while (b = 0) { t := x;"
        " < if (x = t) { x := v; b := 1; } else { b := 0; } > }"
        " return t; }"))
    assert inf.ok
    m = inf.methods["set"]
    assert m.discipline == "fixed"
    assert [s.kind for s in m.sites] == ["cas-success"]


def test_unsynchronized_rmw_is_rejected():
    inf = infer_object(_mini(
        "inc", "inc(v) { local t; t := x; x := t + 1; return t; }"))
    assert not inf.ok and "racy" in inf.reason


# ---------------------------------------------------------------------------
# Synthesized registry entries
# ---------------------------------------------------------------------------


def test_synthesized_registry_is_separate():
    assert list(synthesized_names()) == ["cas_stack", "helped_register"]
    assert len(algorithm_names()) == 12
    assert not set(synthesized_names()) & set(algorithm_names())
    assert set(synthesized_names()) <= \
        set(algorithm_names(include_synthesized=True))


@pytest.mark.parametrize("name", list(HOOK_SUPERSET) + synthesized_names())
def test_synthesized_instrumentation_is_pinned(name):
    """The rows no structural test covers (the hook-superset list and the
    two synthesized entries) render exactly as checked in under
    ``tests/synthesized/``."""

    from repro.pretty import render_method

    syn = synthesize_algorithm(get_algorithm(name))
    text = "\n".join(render_method(syn.methods[m])
                     for m in sorted(syn.methods))
    pinned = (REPO / "tests" / "synthesized" / f"{name}.txt").read_text()
    assert text + "\n" == pinned


@pytest.mark.parametrize("name", synthesized_names())
def test_synthesized_algorithms_verify(name):
    alg = get_algorithm(name)
    assert alg.source == "synthesized"
    # The checked-in instrumentation really is machine-made: it must be
    # reproducible from the plain code alone.
    inf = infer_object(alg.impl, name=alg.name)
    assert inf.ok, inf.reason
    small = replace(alg.workload, threads=2, ops_per_thread=1)
    report = alg.verify(workload=small)
    assert report.ok, report.summary()


def test_hand_rows_tagged_hand():
    for name in algorithm_names():
        assert get_algorithm(name).source == "hand"


# ---------------------------------------------------------------------------
# The checked-in lp_baseline.json pin
# ---------------------------------------------------------------------------


def test_lp_baseline_matches_current_inference():
    """The CI gate: the checked-in baseline is exactly what the
    inference produces today, for every target including the negative
    control."""

    from repro.analysis.__main__ import _infer_map, _infer_targets

    with open(REPO / "lp_baseline.json") as fh:
        baseline = json.load(fh)
    current = _infer_map(_infer_targets([]))
    assert current == baseline
    assert baseline["racy_counter"]["discipline"] == "uninferable"
    assert set(baseline) >= set(ALL_TARGETS)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def test_cli_infer_baseline_ok(capsys):
    from repro.analysis.__main__ import main

    rc = main(["infer", "--baseline", str(REPO / "lp_baseline.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "baseline check: OK" in out
    assert "racy_counter: uninferable" in out


def test_cli_infer_baseline_drift_fails(tmp_path, capsys):
    from repro.analysis.__main__ import main

    with open(REPO / "lp_baseline.json") as fh:
        baseline = json.load(fh)
    baseline["treiber"]["discipline"] = "helping"
    tampered = tmp_path / "lp.json"
    tampered.write_text(json.dumps(baseline))
    rc = main(["infer", "--baseline", str(tampered)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "inference drift in treiber" in out


def test_cli_infer_single_target(capsys):
    from repro.analysis.__main__ import main

    rc = main(["infer", "treiber", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["treiber"]["discipline"] == "read-only"
    assert data["treiber"]["methods"]["push"]["discipline"] == "fixed"


def test_cli_infer_named_subset_against_full_baseline(tmp_path, capsys):
    """Naming targets compares only those against the full baseline; the
    other entries are reported as not re-checked, and a drift in a named
    target still fails."""

    from repro.analysis.__main__ import main

    full = REPO / "lp_baseline.json"
    rc = main(["infer", "treiber", "--baseline", str(full)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "baseline check: OK" in out
    assert "baseline target rdcss not inferred; its sites were not " \
           "re-checked" in out

    baseline = json.loads(full.read_text())
    baseline["treiber"]["discipline"] = "helping"
    tampered = tmp_path / "lp.json"
    tampered.write_text(json.dumps(baseline))
    rc = main(["infer", "treiber", "--baseline", str(tampered)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "inference drift in treiber" in out


def test_cli_infer_names_a_builtin_extra(capsys):
    """``infer racy_counter`` resolves the name among the builtin extra
    targets and gives the full run's record: uninferable, with its
    reason."""

    from repro.analysis.__main__ import _infer_map, _infer_targets, main

    full = _infer_map(_infer_targets([]))
    assert _infer_map(_infer_targets(["racy_counter"])) == {
        "racy_counter": full["racy_counter"]}
    assert full["racy_counter"]["discipline"] == "uninferable"
    rc = main(["infer", "racy_counter"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "racy_counter: uninferable — inc: racy read-modify-write" in out


def test_cli_lint_names_a_builtin_extra(capsys):
    """``lint racy_counter`` resolves the name among the builtin extra
    targets and gives the full run's report: the race diagnostic fires."""

    from repro.analysis import analyze_all
    from repro.analysis.__main__ import main

    (full,) = [r for r in analyze_all() if r.name == "racy_counter"]
    (named,) = analyze_all(["racy_counter"])
    assert named.to_json() == full.to_json()
    assert "races:inc:unsynchronized-rmw" in {d.key()
                                              for d in named.diagnostics}
    rc = main(["lint", "racy_counter"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[races:unsynchronized-rmw] inc:" in out


def test_cli_unknown_target_lists_both_sets():
    from repro.analysis import analyze_all
    from repro.errors import ReproError

    with pytest.raises(ReproError) as err:
        analyze_all(["no_such_object"])
    assert "treiber" in str(err.value) and "racy_counter" in str(err.value)


def test_cli_lint_strict_fails_on_resolved(tmp_path, capsys):
    """The ``lint`` subcommand is strict: a *resolved* baseline entry
    (stale pin) fails the run, where the legacy bare invocation only
    warns."""

    from repro.analysis.__main__ import main

    stale = {"treiber": ["lint:push:ghost-of-a-diagnostic"]}
    path = tmp_path / "stale.json"
    path.write_text(json.dumps(stale))

    rc_bare = main(["treiber", "--baseline", str(path)])
    out_bare = capsys.readouterr().out
    assert rc_bare == 0
    assert "resolved" in out_bare and "baseline check: OK" in out_bare

    rc_strict = main(["lint", "treiber", "--baseline", str(path)])
    out_strict = capsys.readouterr().out
    assert rc_strict == 1
    assert "resolved" in out_strict


# ---------------------------------------------------------------------------
# erase . synthesize fixpoint on generated programs
# ---------------------------------------------------------------------------

_EXPRS = ("0", "1", "v", "t", "x", "t + 1", "x + v")
_CONDS = ("x = 0", "t < v", "x <= 1")

_simple = st.sampled_from([f"{lhs} := {e};" for lhs in ("t", "x")
                           for e in _EXPRS])
_atomic = st.lists(_simple, min_size=1, max_size=3).map(
    lambda body: "< %s >" % " ".join(body))
_branch = st.tuples(st.sampled_from(_CONDS),
                    st.lists(_simple, min_size=1, max_size=2),
                    st.lists(_simple, min_size=1, max_size=2)).map(
    lambda cb: "if (%s) { %s } else { %s }"
               % (cb[0], " ".join(cb[1]), " ".join(cb[2])))
_exit = st.sampled_from(_CONDS).map(
    lambda c: "if (%s) { b := 1; } else { skip; }" % c)
#: A cas retry loop, so generated programs reach the loop paths of the
#: completion checks and, through an early exit, the restart commit.
_loop = st.tuples(st.lists(_simple | _branch | _exit, max_size=2),
                  st.sampled_from(("v", "t + 1", "1"))).map(
    lambda lc: "b := 0; while (b = 0) { t := x; %s "
               "< if (x = t) { x := %s; b := 1; } else { b := 0; } > }"
               % (" ".join(lc[0]), lc[1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(_simple | _atomic | _branch | _loop, min_size=1,
                max_size=4),
       st.sampled_from(["t", "0"]))
def test_generated_program_synthesis_erases_back(stmts, retval):
    """For every generated program the inference either refuses (with a
    reason) or synthesizes instrumentation that erases back to the
    original — and does so deterministically."""

    source = "m(v) { local t, b; t := 0; %s return %s; }" \
             % (" ".join(stmts), retval)
    impl = ObjectImpl({"m": parse_method(source)}, {"x": 0}, name="gen")
    inf = infer_object(impl)
    if not inf.ok:
        assert inf.reason
        return
    syn = synthesize_object(impl, _mini_spec("m"), inference=inf)
    assert syn.check_erasure_against(impl) == []
    again = synthesize_object(impl, _mini_spec("m"))
    assert structural_eq(normalize(syn.methods["m"].body),
                         normalize(again.methods["m"].body))
