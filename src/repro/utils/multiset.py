"""Immutable multiset primitives.

Configurations in the black-white formalism are multisets of labels
(paper §2).  The library represents them as canonically-sorted tuples, which
makes them hashable, comparable and cheap to deduplicate.  This module holds
the generic multiset algebra; :mod:`repro.formalism.configurations` builds
the formalism-specific layer on top of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations_with_replacement
from typing import TypeVar

T = TypeVar("T")


def canonical(items: Iterable[T]) -> tuple[T, ...]:
    """Return the canonical (sorted) tuple representation of a multiset."""
    return tuple(sorted(items))


def is_submultiset(small: Mapping[T, int], big: Mapping[T, int]) -> bool:
    """Return True if ``small`` is contained in ``big`` with multiplicities."""
    return all(big.get(item, 0) >= count for item, count in small.items())


def replace_one(items: tuple[T, ...], old: T, new: T) -> tuple[T, ...]:
    """Return the multiset with one occurrence of ``old`` replaced by ``new``.

    Raises ValueError if ``old`` does not occur.
    """
    as_list = list(items)
    as_list.remove(old)  # raises ValueError when absent
    as_list.append(new)
    return canonical(as_list)


def all_multisets(universe: Iterable[T], size: int) -> Iterator[tuple[T, ...]]:
    """Yield every multiset of ``size`` elements drawn from ``universe``.

    The universe is deduplicated and sorted first so the iteration order is
    deterministic and each multiset is yielded exactly once, in canonical
    form.
    """
    ordered = sorted(set(universe))
    yield from combinations_with_replacement(ordered, size)


def submultisets(items: Mapping[T, int], size: int) -> Iterator[tuple[T, ...]]:
    """Yield every sub-multiset of the given multiset with exactly ``size``
    elements, each in canonical form, without duplicates."""
    elements = sorted(items)

    def recurse(index: int, remaining: int, chosen: list[T]) -> Iterator[tuple[T, ...]]:
        if remaining == 0:
            yield tuple(chosen)
            return
        if index >= len(elements):
            return
        element = elements[index]
        available = items[element]
        # Choose k copies of this element, for each feasible k.
        max_take = min(available, remaining)
        for take in range(max_take, -1, -1):
            # Feasibility prune: enough items left in the tail?
            tail_capacity = sum(items[e] for e in elements[index + 1 :])
            if remaining - take > tail_capacity:
                continue
            yield from recurse(index + 1, remaining - take, chosen + [element] * take)

    yield from recurse(0, size, [])
