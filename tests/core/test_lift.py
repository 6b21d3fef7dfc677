"""Unit tests for the lift operator (Definition 3.1)."""

import pytest
from itertools import product

from repro.core.lift import lift
from repro.formalism.diagrams import black_diagram, is_right_closed
from repro.formalism.labels import set_label_members
from repro.problems import (
    maximal_matching_problem,
    pi_arbdefective,
    pi_matching_endpoint,
    sinkless_orientation_problem,
)
from repro.utils import InvalidParameterError


class TestLiftConstruction:
    def test_arity_guards(self):
        so = sinkless_orientation_problem(3)
        with pytest.raises(InvalidParameterError):
            lift(so, delta=2, rank=2)  # Δ < Δ'
        with pytest.raises(InvalidParameterError):
            lift(so, delta=3, rank=1)  # r < r'

    def test_labels_are_right_closed(self):
        problem = pi_matching_endpoint(4, 1)
        lifted = lift(problem, 5, 5)
        diagram = black_diagram(problem)
        for label_set in lifted.label_sets:
            assert is_right_closed(diagram, label_set)
            assert label_set  # non-empty

    def test_matching_endpoint_label_sets(self):
        """§4.2 lists the right-closed sets of Π_Δ'(x',y); the mechanical
        strength relation at the endpoint refines the drawn Figure 1
        (O and X become equivalent), giving the 5-set sub-family — a
        reproduction finding (README, "Findings")."""
        problem = pi_matching_endpoint(4, 1)
        lifted = lift(problem, 4, 4)
        sets = {frozenset(s) for s in lifted.label_sets}
        assert sets == {
            frozenset("OX"),
            frozenset("MOX"),
            frozenset("OPX"),
            frozenset("MOPX"),
            frozenset("MOPXZ"),
        }

    def test_maximal_matching_label_sets_match_appendix_a(self):
        """For the Appendix A encoding, right-closed sets of the diagram
        {P→O} are M, O, MO, OP, MOP."""
        problem = maximal_matching_problem(3)
        lifted = lift(problem, 3, 3)
        sets = {frozenset(s) for s in lifted.label_sets}
        assert sets == {
            frozenset("M"),
            frozenset("O"),
            frozenset("MO"),
            frozenset("OP"),
            frozenset("MOP"),
        }


class TestLiftPredicates:
    def test_black_condition_universal(self):
        """Definition 3.1 black: every r'-subset, every choice in C_B."""
        so = sinkless_orientation_problem(2)
        lifted = lift(so, 2, 2)
        o_set, i_set = frozenset("O"), frozenset("I")
        assert lifted.black_allows([o_set, i_set])
        assert not lifted.black_allows([o_set, o_set])
        assert not lifted.black_allows([frozenset("IO"), i_set])

    def test_white_condition_existential(self):
        so = sinkless_orientation_problem(2)
        lifted = lift(so, 3, 2)
        o_set, i_set = frozenset("O"), frozenset("I")
        full = frozenset("IO")
        # Every 2-subset of {O},{O},{I} admits a choice with one O.
        assert lifted.white_allows([o_set, o_set, i_set])
        # The 2-subset ({I},{I}) has no choice containing O.
        assert not lifted.white_allows([i_set, i_set, o_set])
        # Full sets always admit a choice.
        assert lifted.white_allows([full, full, full])

    def test_wrong_arity_rejected(self):
        so = sinkless_orientation_problem(2)
        lifted = lift(so, 3, 2)
        assert not lifted.white_allows([frozenset("O")])
        assert not lifted.black_allows([frozenset("O")])


class TestExplicitMaterialization:
    def test_to_problem_agrees_with_predicates(self):
        problem = pi_arbdefective(2, 2)
        lifted = lift(problem, 3, 2)
        explicit = lifted.to_problem()
        assert explicit.white_arity == 3
        assert explicit.black_arity == 2
        # Every explicit white configuration passes the predicate.
        for config in explicit.white:
            sets = [set_label_members(label) for label in config]
            assert lifted.white_allows(sets)
        for config in explicit.black:
            sets = [set_label_members(label) for label in config]
            assert lifted.black_allows(sets)

    def test_to_problem_is_exhaustive(self):
        """No valid multiset is missing from the materialization."""
        so = sinkless_orientation_problem(2)
        lifted = lift(so, 2, 2)
        explicit = lifted.to_problem()
        from repro.utils.multiset import all_multisets

        names = {s: frozenset(s) for s in explicit.alphabet}
        decoded = {name: set_label_members(name) for name in explicit.alphabet}
        for multiset in all_multisets(explicit.alphabet, 2):
            sets = [decoded[name] for name in multiset]
            from repro.formalism.configurations import Configuration

            assert lifted.white_allows(sets) == (
                Configuration(multiset) in explicit.white
            )
            assert lifted.black_allows(sets) == (
                Configuration(multiset) in explicit.black
            )

    def test_right_close(self):
        problem = maximal_matching_problem(3)
        lifted = lift(problem, 3, 3)
        assert lifted.right_close(["P"]) == frozenset("OP")
        assert lifted.right_close(["M", "P"]) == frozenset("MOP")
