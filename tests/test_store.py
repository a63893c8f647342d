"""Unit and property tests for the persistent stores σ (Fig. 4)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SemanticsError
from repro.memory import EMPTY_STORE, Store

keys = st.one_of(st.text(min_size=1, max_size=3),
                 st.integers(min_value=0, max_value=20))
stores = st.dictionaries(keys, st.integers(-5, 5), max_size=6).map(Store)


class TestStoreBasics:
    def test_empty(self):
        assert len(EMPTY_STORE) == 0
        assert "x" not in EMPTY_STORE

    def test_init_from_dict(self):
        s = Store({"x": 1, 3: 4})
        assert s["x"] == 1
        assert s[3] == 4
        assert len(s) == 2

    def test_init_from_any_mapping_or_pairs(self):
        from collections import OrderedDict
        from types import MappingProxyType

        expected = Store({"x": 1, 3: 4})
        sources = (expected, OrderedDict([("x", 1), (3, 4)]),
                   MappingProxyType({"x": 1, 3: 4}), [("x", 1), (3, 4)])
        for source in sources:
            s = Store(source)
            assert s == expected and hash(s) == hash(expected)
        # The dict is copied, never aliased.
        data = {"x": 1}
        s = Store(data)
        data["x"] = 2
        assert s["x"] == 1

    def test_set_is_persistent(self):
        s1 = Store({"x": 1})
        s2 = s1.set("x", 2)
        assert s1["x"] == 1
        assert s2["x"] == 2

    def test_set_many(self):
        s = EMPTY_STORE.set_many([("a", 1), ("b", 2)])
        assert dict(s) == {"a": 1, "b": 2}

    def test_remove(self):
        s = Store({"x": 1, "y": 2}).remove("x")
        assert dict(s) == {"y": 2}

    def test_remove_unbound_raises(self):
        with pytest.raises(SemanticsError):
            Store({"x": 1}).remove("z")

    def test_remove_many(self):
        s = Store({"x": 1, "y": 2, "z": 3}).remove_many(["x", "z"])
        assert dict(s) == {"y": 2}

    def test_restrict(self):
        s = Store({"x": 1, "y": 2}).restrict(["y"])
        assert dict(s) == {"y": 2}

    def test_restrict_unbound_raises(self):
        with pytest.raises(SemanticsError):
            Store({"x": 1}).restrict(["q"])

    def test_without(self):
        s = Store({"x": 1, "y": 2}).without(["x", "nope"])
        assert dict(s) == {"y": 2}

    def test_repr_is_sorted_and_stable(self):
        s = Store({3: 1, "a": 2, 1: 0})
        assert repr(s) == "Store({'a': 2, 1: 0, 3: 1})"

    def test_items_sorted(self):
        s = Store({2: 0, "b": 1, "a": 3})
        assert s.items_sorted() == (("a", 3), ("b", 1), (2, 0))


class TestSeparation:
    def test_disjoint(self):
        assert Store({"x": 1}).disjoint(Store({"y": 2}))
        assert not Store({"x": 1}).disjoint(Store({"x": 2}))

    def test_union(self):
        s = Store({"x": 1}).union(Store({2: 3}))
        assert dict(s) == {"x": 1, 2: 3}

    def test_union_overlap_raises(self):
        with pytest.raises(SemanticsError):
            Store({"x": 1}).union(Store({"x": 1}))


class TestHashingEquality:
    def test_equal_stores_hash_equal(self):
        assert hash(Store({"x": 1, "y": 2})) == hash(Store({"y": 2, "x": 1}))
        assert Store({"x": 1}) == Store({"x": 1})

    def test_eq_with_plain_mapping(self):
        assert Store({"x": 1}) == {"x": 1}
        assert Store({"x": 1}) != {"x": 2}
        assert Store({"x": 1}) != [("x", 1)]  # not a mapping

    def test_usable_in_sets(self):
        s = {Store({"x": 1}), Store({"x": 1}), Store({"x": 2})}
        assert len(s) == 2


class TestStoreProperties:
    @given(stores, keys, st.integers(-5, 5))
    def test_set_then_get(self, s, k, v):
        assert s.set(k, v)[k] == v

    @given(stores, stores)
    def test_union_commutes_when_disjoint(self, s1, s2):
        if s1.disjoint(s2):
            assert s1.union(s2) == s2.union(s1)

    @given(stores)
    def test_split_rejoin(self, s):
        ks = [k for i, k in enumerate(sorted(s, key=repr)) if i % 2 == 0]
        left = s.restrict(ks)
        right = s.without(ks)
        assert left.disjoint(right)
        assert left.union(right) == s

    @given(stores, keys, st.integers(-5, 5))
    def test_persistence(self, s, k, v):
        before = dict(s)
        s.set(k, v)
        assert dict(s) == before
