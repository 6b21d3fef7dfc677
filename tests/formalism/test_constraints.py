"""Unit tests for constraints."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formalism.configurations import Configuration, condensed
from repro.formalism.constraints import Constraint, sub_multiset_closure
from repro.utils import ArityMismatchError, UnknownLabelError

label_strategy = st.sampled_from(["A", "B", "C", "D"])
slot_strategy = st.frozensets(label_strategy, min_size=1)
config_strategy = st.lists(label_strategy, min_size=3, max_size=3).map(Configuration)
constraint_strategy = st.sets(config_strategy, min_size=1, max_size=8).map(Constraint)


def mm_black(delta: int = 3) -> Constraint:
    """Black constraint of maximal matching: M[OP]^{Δ-1} | O^Δ."""
    return Constraint.from_condensed(
        [condensed("M", *(["OP"] * (delta - 1))), condensed(*(["O"] * delta))]
    )


class TestConstraint:
    def test_mixed_sizes_rejected(self):
        with pytest.raises(ArityMismatchError):
            Constraint([Configuration("A"), Configuration("AB")])

    def test_size_of_empty_constraint(self):
        assert Constraint([]).size == 0
        assert len(Constraint([])) == 0

    def test_from_condensed_expands_union(self):
        constraint = mm_black(3)
        assert Configuration("MOO") in constraint
        assert Configuration("MOP") in constraint
        assert Configuration("MPP") in constraint
        assert Configuration("OOO") in constraint
        assert Configuration("POO") not in constraint
        assert len(constraint) == 4

    def test_labels(self):
        assert mm_black().labels == frozenset("MOP")

    def test_allows_multiset(self):
        assert mm_black().allows_multiset(["O", "M", "P"])

    def test_allows_partial(self):
        constraint = mm_black(3)
        assert constraint.allows_partial(Counter("M"), 1)
        assert constraint.allows_partial(Counter("PP"), 2)
        # Two M's can never extend.
        assert not constraint.allows_partial(Counter("MM"), 2)
        # Too many labels placed.
        assert not constraint.allows_partial(Counter("MOPO"), 4)

    def test_completions(self):
        constraint = mm_black(3)
        assert constraint.completions(Counter("PP")) == frozenset("M")
        assert constraint.completions(Counter("OO")) == frozenset("MO")
        assert constraint.completions(Counter("MOP")) == frozenset()

    def test_restrict_labels(self):
        within = {config for config in mm_black(3) if config.support <= frozenset("MO")}
        assert within == {Configuration("MOO"), Configuration("OOO")}

    def test_map_labels(self):
        mapped = mm_black(3).map_labels({"P": "O"})
        assert Configuration("MOO") in mapped
        assert len(mapped) == 2  # MOO and OOO

    def test_check_alphabet(self):
        with pytest.raises(UnknownLabelError):
            mm_black().check_alphabet(frozenset("MO"))
        mm_black().check_alphabet(frozenset("MOPX"))

    def test_occurrence_signature_invariant_under_renaming(self):
        constraint = mm_black(3)
        renamed = constraint.map_labels({"M": "Q", "O": "R", "P": "S"})
        assert constraint.label_occurrence_signature(
            "M"
        ) == renamed.label_occurrence_signature("Q")

    @given(constraint_strategy)
    def test_partial_query_agrees_with_closure(self, constraint):
        """allows_partial must agree with the explicit sub-multiset closure."""
        closure = sub_multiset_closure(constraint)
        for partial in closure:
            counter = Counter(partial)
            assert constraint.allows_partial(counter, len(partial))

    @given(constraint_strategy, st.lists(label_strategy, min_size=1, max_size=3))
    def test_partial_query_no_false_positives(self, constraint, labels):
        counter = Counter(labels)
        expected = tuple(sorted(labels)) in sub_multiset_closure(constraint)
        assert constraint.allows_partial(counter, len(labels)) == expected

    @given(constraint_strategy, st.lists(label_strategy, min_size=0, max_size=2))
    def test_completions_are_sound_and_complete(self, constraint, labels):
        counter = Counter(labels)
        completions = constraint.completions(counter)
        closure = sub_multiset_closure(constraint)
        for label in ["A", "B", "C", "D"]:
            extended = tuple(sorted(labels + [label]))
            assert (label in completions) == (extended in closure)

    @given(constraint_strategy, st.lists(slot_strategy, min_size=3, max_size=3))
    def test_exists_choice_agrees_with_brute_force(self, constraint, slots):
        """The pruned search finds a choice exactly when one of the
        slots' full product is allowed."""
        expected = any(
            constraint.allows_multiset(choice) for choice in product(*slots)
        )
        assert constraint.exists_choice(slots) == expected
