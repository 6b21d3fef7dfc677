"""Unit and property tests for the multiset primitives."""

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.multiset import (
    all_multisets,
    canonical,
    is_submultiset,
    replace_one,
    submultisets,
)

items = st.lists(st.sampled_from("ABCD"), max_size=6)


class TestCanonical:
    def test_sorts(self):
        assert canonical("CAB") == ("A", "B", "C")

    @given(items)
    def test_idempotent(self, values):
        once = canonical(values)
        assert canonical(once) == once


class TestSubmultiset:
    def test_respects_multiplicity(self):
        assert is_submultiset(Counter("AA"), Counter("AAB"))
        assert not is_submultiset(Counter("AAA"), Counter("AAB"))


class TestReplaceOne:
    def test_replaces_exactly_one(self):
        assert replace_one(("A", "A", "B"), "A", "C") == ("A", "B", "C")

    def test_missing_raises(self):
        with pytest.raises(ValueError):
            replace_one(("A",), "B", "C")


class TestEnumeration:
    def test_all_multisets_count_matches_formula(self):
        for universe, size in [("AB", 3), ("ABC", 2), ("ABCD", 4)]:
            enumerated = list(all_multisets(universe, size))
            # Stars and bars: C(|U| + k − 1, k) multisets of size k.
            assert len(enumerated) == math.comb(len(universe) + size - 1, size)
            assert len(set(enumerated)) == len(enumerated)

    def test_all_multisets_canonical(self):
        for multiset in all_multisets("CBA", 2):
            assert tuple(sorted(multiset)) == multiset

    def test_empty_universe(self):
        assert list(all_multisets("", 0)) == [()]
        assert list(all_multisets("", 2)) == []

    @given(items.filter(bool), st.integers(min_value=0, max_value=4))
    def test_submultisets_are_valid(self, values, size):
        counter = Counter(values)
        seen = set()
        for sub in submultisets(counter, size):
            assert len(sub) == size
            assert is_submultiset(Counter(sub), counter)
            assert sub not in seen
            seen.add(sub)
