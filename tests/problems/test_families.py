"""Tests for the paper's problem family constructions (§4-§6, App. A)."""

import pytest

from repro.formalism import (
    black_diagram,
    diagram_edges,
    is_relaxation_via_config_map,
    parse_configuration,
    right_closed_subsets,
)
from repro.problems import (
    arbdefective_alphabet,
    available_families,
    build_problem,
    maximal_matching_problem,
    mis_family_problem,
    nonempty_color_subsets,
    pi_arbdefective,
    pi_matching,
    pi_matching_endpoint,
    pi_ruling,
    proper_coloring_problem,
    sinkless_coloring_problem,
    sinkless_orientation_problem,
    xy_relaxation_config_map,
)
from repro.utils import InvalidParameterError


class TestMatchingFamily:
    def test_appendix_a_diagram(self):
        """Appendix A: the black diagram of maximal matching is {P→O}."""
        problem = maximal_matching_problem(4)
        assert diagram_edges(black_diagram(problem)) == frozenset({("P", "O")})

    def test_white_constraint_shapes(self):
        problem = pi_matching(5, 1, 2)
        assert parse_configuration("X M O^3") in problem.white
        assert parse_configuration("X^2 O P^2") in problem.white
        assert parse_configuration("X^2 Z O^2") in problem.white
        assert len(problem.white) == 3

    def test_figure1_diagram_at_generic_parameters(self):
        """At x = 0 the mechanical diagram matches Figure 1 exactly:
        {Z→M, Z→P, Z→O, Z→X, P→O, P→X, O→X, M→X} (full relation;
        its reduction is the drawn Z→{M,P}, P→O, O→X, M→X)."""
        problem = pi_matching(5, 0, 1)
        edges = diagram_edges(black_diagram(problem))
        assert edges == frozenset(
            {
                ("Z", "M"),
                ("Z", "P"),
                ("Z", "O"),
                ("Z", "X"),
                ("P", "O"),
                ("P", "X"),
                ("O", "X"),
                ("M", "X"),
            }
        )

    def test_endpoint_diagram_refines_figure1(self):
        """Reproduction finding: at the endpoint x' = Δ'−1−y the relation
        gains M→O and X→O (O ≡ X), shrinking the right-closed family from
        the 7 sets listed in §4.2 to 5 — which only strengthens the
        Lemmas 4.8/4.9 counting (README, "Findings")."""
        problem = pi_matching_endpoint(4, 1)
        edges = diagram_edges(black_diagram(problem))
        assert ("X", "O") in edges and ("M", "O") in edges
        sets = {frozenset(s) for s in right_closed_subsets(black_diagram(problem))}
        paper_listed = {
            frozenset("X"),
            frozenset("OX"),
            frozenset("MX"),
            frozenset("MOX"),
            frozenset("POX"),
            frozenset("MPOX"),
            frozenset("MOPXZ"),
        }
        assert sets <= paper_listed
        assert len(sets) == 5

    def test_observation_43_witness(self):
        """Observation 4.3, executed: Π_Δ(x₂,y₂) relaxes Π_Δ(x,y)."""
        strict = pi_matching(6, 0, 1)
        relaxed = pi_matching(6, 2, 2)
        witness = xy_relaxation_config_map(6, 0, 1, 2, 2)
        assert is_relaxation_via_config_map(strict, relaxed, witness)

    def test_observation_43_direction_guard(self):
        with pytest.raises(InvalidParameterError):
            xy_relaxation_config_map(6, 2, 2, 0, 1)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            pi_matching(3, 3, 1)  # x + y > Δ
        with pytest.raises(InvalidParameterError):
            pi_matching(3, 0, 0)  # y < 1


class TestArbdefectiveFamily:
    def test_alphabet_size(self):
        assert len(arbdefective_alphabet(3)) == 2**3  # 7 subsets + X

    def test_white_configurations(self):
        problem = pi_arbdefective(3, 2)
        assert parse_configuration("{1} {1} {1}") in problem.white
        assert parse_configuration("{1,2} {1,2} X") in problem.white
        assert parse_configuration("{1} {2} {1}") not in problem.white

    def test_black_disjointness(self):
        problem = pi_arbdefective(3, 2)
        assert parse_configuration("{1} {2}") in problem.black
        assert parse_configuration("{1} {1,2}") not in problem.black
        assert parse_configuration("X {1,2}") in problem.black
        assert parse_configuration("X X") in problem.black

    def test_sinkless_coloring_alias(self):
        problem = sinkless_coloring_problem(3)
        assert problem.white_arity == 3
        assert len(problem.alphabet) == 2**3

    def test_color_cap(self):
        with pytest.raises(InvalidParameterError):
            pi_arbdefective(3, 7)

    def test_subset_enumeration(self):
        subsets = nonempty_color_subsets(3)
        assert len(subsets) == 7
        assert frozenset({1, 2, 3}) in subsets


class TestRulingFamily:
    def test_beta_zero_is_arbdefective(self):
        assert pi_ruling(3, 2, 0).same_constraints(pi_arbdefective(3, 2))

    def test_pointer_configurations(self):
        problem = pi_ruling(3, 1, 2)
        assert parse_configuration("P1 U1 U1") in problem.white
        assert parse_configuration("P2 U2 U2") in problem.white
        assert parse_configuration("P2 U1") in problem.black  # j < i
        assert parse_configuration("P1 U2") not in problem.black
        assert parse_configuration("U1 U2") in problem.black
        assert parse_configuration("P1 {1}") in problem.black
        assert parse_configuration("U1 {1}") in problem.black
        assert parse_configuration("P1 P2") not in problem.black

    def test_figure2_diagram_chain(self):
        """Figure 2 (c = 3, β = 2): the pointer chain P1→P2→U2→U1 and the
        color-set containment edges are present in the mechanical diagram."""
        problem = pi_ruling(3, 3, 2)
        edges = diagram_edges(black_diagram(problem))
        for chain_edge in [("P1", "P2"), ("P2", "U2"), ("U2", "U1")]:
            assert chain_edge in edges
        # Color containment: {1,2} → {1} (smaller sets are stronger).
        assert ("{1,2}", "{1}") in edges
        assert ("{1}", "{1,2}") not in edges
        # X is the top label.
        for label in sorted(problem.alphabet - {"X"}):
            assert (label, "X") in edges

    def test_mis_special_case(self):
        problem = mis_family_problem(3)
        assert problem.name == "Π_3(1,1)"


class TestClassicAndRegistry:
    def test_sinkless_orientation_shape(self):
        problem = sinkless_orientation_problem(4)
        # Configurations with ≥1 O out of 4 slots: multisets O^k I^{4-k}, k ≥ 1.
        assert len(problem.white) == 4

    def test_proper_coloring_shape(self):
        problem = proper_coloring_problem(3, 3)
        assert len(problem.white) == 3
        assert len(problem.black) == 3

    def test_registry_round_trip(self):
        problem = build_problem("matching", delta=4, x=0, y=1)
        assert problem.same_constraints(pi_matching(4, 0, 1))
        assert "matching" in available_families()

    def test_registry_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            build_problem("nonsense")
