"""Immutable, hashable stores σ (Fig. 4: ``(Mem) σ ∈ PVar ∪ Nat → Int``).

A :class:`Store` maps program variables (strings) and heap addresses
(positive integers) to integer values.  Stores are persistent: update
operations return new stores.  They are hashable so that whole machine
configurations can be memoized during state-space exploration, and they
support the disjoint-union operation ``⊎`` used throughout the paper's
assertion semantics (Fig. 8).
"""

from __future__ import annotations

from collections.abc import Mapping as AbcMapping
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

from ..errors import SemanticsError

Key = Union[str, int]


def _key_sort(key: Key) -> Tuple[int, object]:
    return (0, key) if isinstance(key, str) else (1, key)


class Store(Mapping[Key, int]):
    """A persistent finite map used for σ_c, σ_o, σ_l and abstract θ."""

    __slots__ = ("_data", "_hash")

    def __init__(self, mapping: Union[Mapping, Iterable, None] = None):
        # Plain dicts first, by exact type: stores are built from them on
        # hot paths.  Any other mapping or iterable of pairs goes through
        # ``dict``.
        if type(mapping) is dict:
            data: Dict[Key, int] = dict(mapping)
        elif mapping is None:
            data = {}
        elif isinstance(mapping, Store):
            data = dict(mapping._data)
        else:
            data = dict(mapping)
        self._data = data
        self._hash: Optional[int] = None

    # -- Mapping interface --------------------------------------------------

    def __getitem__(self, key: Key) -> int:
        return self._data[key]

    def __iter__(self) -> Iterator[Key]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    # -- persistence --------------------------------------------------------

    def set(self, key: Key, value: int) -> "Store":
        """Return a store with ``key`` bound to ``value``."""
        new = dict(self._data)
        new[key] = value
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    def set_many(self, items: Iterable[Tuple[Key, int]]) -> "Store":
        new = dict(self._data)
        for k, v in items:
            new[k] = v
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    def remove(self, key: Key) -> "Store":
        if key not in self._data:
            raise SemanticsError(f"Store.remove: {key!r} unbound")
        new = dict(self._data)
        del new[key]
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    def remove_many(self, keys: Iterable[Key]) -> "Store":
        new = dict(self._data)
        for k in keys:
            if k not in new:
                raise SemanticsError(f"Store.remove_many: {k!r} unbound")
            del new[k]
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    # -- separation-logic operations ----------------------------------------

    def disjoint(self, other: "Store") -> bool:
        """``σ1 ⊥ σ2`` — disjoint domains."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return not any(k in large._data for k in small._data)

    def union(self, other: "Store") -> "Store":
        """Disjoint union ``σ1 ⊎ σ2``; raises if domains overlap."""
        if not self.disjoint(other):
            overlap = set(self._data) & set(other._data)
            raise SemanticsError(f"Store.union: domains overlap on {overlap}")
        new = dict(self._data)
        new.update(other._data)
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    def restrict(self, keys: Iterable[Key]) -> "Store":
        """The sub-store on ``keys`` (all of which must be bound)."""
        new = {}
        for k in keys:
            if k not in self._data:
                raise SemanticsError(f"Store.restrict: {k!r} unbound")
            new[k] = self._data[k]
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    def without(self, keys: Iterable[Key]) -> "Store":
        """The sub-store dropping ``keys`` (missing keys are ignored)."""
        drop = set(keys)
        new = {k: v for k, v in self._data.items() if k not in drop}
        out = Store.__new__(Store)
        out._data = new
        out._hash = None
        return out

    # -- equality & hashing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Store):
            return self._data == other._data
        if isinstance(other, AbcMapping):
            return dict(self._data) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._data.items()))
        return self._hash

    def __repr__(self) -> str:
        items = ", ".join(
            f"{k!r}: {v}" for k, v in sorted(self._data.items(), key=lambda kv: _key_sort(kv[0]))
        )
        return f"Store({{{items}}})"

    def items_sorted(self) -> Tuple[Tuple[Key, int], ...]:
        return tuple(sorted(self._data.items(), key=lambda kv: _key_sort(kv[0])))


EMPTY_STORE = Store()
