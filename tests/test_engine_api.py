"""Engine selection and canonical state hashing.

Covers the engine spellings (the ``"+"``-joined string form, its
round trip and its malformed cases), the refusal of the removed
persistent verdict cache, and the process-independence of canonical
digests — the property that lets the parallel seen-set key on
structure instead of identity.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.algorithms import get_algorithm
from repro.engine import (
    EngineSpec,
    canonical_bytes,
    canonical_digest,
    resolve_engine,
)
from repro.errors import ReproError
from repro.memory.store import Store
from repro.semantics.mgc import mgc_program
from repro.semantics.scheduler import initial_config

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ---------------------------------------------------------------------------
# Canonical hashing
# ---------------------------------------------------------------------------


def test_canonical_digest_structural_not_identity():
    s1 = Store({"x": 1, 2: 3})
    s2 = Store({2: 3, "x": 1})
    assert s1 is not s2
    assert canonical_digest(s1) == canonical_digest(s2)
    assert canonical_digest(s1) != canonical_digest(Store({"x": 1, 2: 4}))
    assert canonical_bytes((1, "a")) != canonical_bytes((1, "b"))
    assert canonical_bytes(frozenset({1, 2})) == \
        canonical_bytes(frozenset({2, 1}))


def test_canonical_digest_of_configs_survives_pickling():
    """A Config pickled through another interpreter canonicalises to the
    same digest — statement objects differ, structure doesn't."""

    alg = get_algorithm("pair_snapshot")
    program = mgc_program(alg.impl, alg.workload.menu,
                          threads=2, ops_per_thread=1)
    config = initial_config(program)
    local = canonical_digest(config).hex()

    code = (
        "import pickle, sys; sys.path.insert(0, %r); "
        "from repro.engine import canonical_digest; "
        "cfg = pickle.loads(sys.stdin.buffer.read()); "
        "print(canonical_digest(cfg).hex())" % SRC
    )
    out = subprocess.run([sys.executable, "-c", code],
                         input=pickle.dumps(config),
                         capture_output=True, check=True)
    assert out.stdout.decode().strip() == local


def test_canonical_rejects_opaque_objects():
    with pytest.raises(TypeError):
        canonical_bytes(lambda: None)


# ---------------------------------------------------------------------------
# Engine spellings
# ---------------------------------------------------------------------------


def test_resolve_engine_spellings():
    assert resolve_engine(None).kind == "sequential"
    assert resolve_engine("parallel").kind == "parallel"
    spec = resolve_engine("random-walk+por")
    assert spec.kind == "random-walk" and spec.reduce == "por"
    same = EngineSpec("parallel", workers=3)
    assert resolve_engine(same) is same
    with pytest.raises(Exception):
        resolve_engine("fancy")


def test_engine_spelling_order_insensitive_round_trip():
    """Modifier tokens parse in any order, and ``spec.spelling()``
    round-trips through ``resolve_engine`` for every string-expressible
    field."""

    for text in [
        "sequential",
        "parallel",
        "sequential+por",
        "sequential+por+sym",
        "sequential+por+sym+tsym",
        "parallel+por+sym+tsym+compiled",
        "random-walk+noreduce+interp",
    ]:
        spec = resolve_engine(text)
        again = resolve_engine(spec.spelling())
        assert again == spec, text

    scrambled = resolve_engine("parallel+compiled+tsym+sym+por")
    canonical = resolve_engine("parallel+por+sym+tsym+compiled")
    assert scrambled == canonical


@pytest.mark.parametrize("bad", [
    "sequential+smy",           # typo must raise, not silently ignore
    "sequential+tsym",          # tsym requires sym
    "sequential+sym",           # sym requires por
    "sequential+sym+tsym",      # still missing por
    "sequential+por+por",       # duplicate modifier
    "sequential+interp+compiled",
    "sequential+noreduce+por",
    "bogus+por",
    "sequential+",
    "sequential+POR",           # spellings are case-sensitive
    "sequential+coarse",        # the retired ownership ablation
    "sequential+memo",          # the removed persistent verdict cache
])
def test_engine_spelling_rejects_malformed(bad):
    with pytest.raises(Exception):
        resolve_engine(bad)


def test_memo_spec_is_refused():
    """No verdict is served from a cache: asking for one raises."""

    with pytest.raises(ReproError, match="verdict cache was removed"):
        EngineSpec(memo=True)
    with pytest.raises(ReproError, match="verdict cache was removed"):
        EngineSpec("random-walk", memo=True)
    with pytest.raises(ReproError, match="unknown engine modifier 'memo'"):
        resolve_engine("sequential+memo")
    assert not EngineSpec(memo=False).memo
