"""Unit tests for relaxation checking and search."""

import pytest

from repro.formalism.configurations import Configuration
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem, problem_from_lines
from repro.formalism.relaxations import (
    find_config_map_relaxation,
    find_label_relaxation,
    is_relaxation_via_config_map,
    is_relaxation_via_label_map,
    receiver_sets,
)
from repro.utils import FormalismError


@pytest.fixture
def matching():
    return problem_from_lines(["M O^2", "P^3"], ["M [OP]^2", "O^3"], name="MM")


class TestLabelMapRelaxation:
    def test_missing_labels_raise(self, matching):
        with pytest.raises(FormalismError):
            is_relaxation_via_label_map(matching, matching, {"M": "M"})

    def test_matching_relaxes_to_weaker_matching(self):
        """Dropping the maximality label P relaxes the problem.

        The target allows unmatched white nodes to output O^Δ: mapping
        P → O witnesses the relaxation.
        """
        strict = problem_from_lines(["M O^2", "P^3"], ["M [OP]^2", "O^3"])
        relaxed = problem_from_lines(["M O^2", "O^3"], ["M O^2", "O^3"])
        mapping = {"M": "M", "O": "O", "P": "O"}
        assert is_relaxation_via_label_map(strict, relaxed, mapping)

    def test_non_relaxation_detected(self):
        strict = problem_from_lines(["M O^2", "P^3"], ["M [OP]^2", "O^3"])
        # Target black constraint forbids two O's — identity map fails.
        relaxed = problem_from_lines(["M O^2", "P^3"], ["M [OP]^2"])
        mapping = {"M": "M", "O": "O", "P": "P"}
        assert not is_relaxation_via_label_map(strict, relaxed, mapping)


class TestFindLabelRelaxation:
    def test_finds_identity_for_self(self, matching):
        mapping = find_label_relaxation(matching, matching)
        assert mapping is not None
        assert is_relaxation_via_label_map(matching, matching, mapping)

    def test_finds_nontrivial_map(self):
        strict = problem_from_lines(["M O^2", "P^3"], ["M [OP]^2", "O^3"])
        relaxed = problem_from_lines(["M O^2", "O^3"], ["M O^2", "O^3"])
        mapping = find_label_relaxation(strict, relaxed)
        assert mapping is not None
        assert is_relaxation_via_label_map(strict, relaxed, mapping)

    def test_returns_none_when_no_map_exists(self):
        strict = problem_from_lines(["A A"], ["A A"])
        # Target has no configuration at all on the black side of arity 2.
        relaxed = problem_from_lines(["B B"], ["B C"])
        # Mapping A→B: white BB ok; black: A A → B B not allowed. A→C: white
        # fails. So no map exists.
        assert find_label_relaxation(strict, relaxed) is None

    def test_found_map_respects_paper_definition(self, matching):
        """Any map the search returns must satisfy the checker."""
        relaxed = problem_from_lines(
            ["M O^2", "P^3", "O^3"], ["M [OP]^2", "O^3", "[OP]^3"]
        )
        mapping = find_label_relaxation(matching, relaxed)
        assert mapping is not None
        assert is_relaxation_via_label_map(matching, relaxed, mapping)


class TestConfigMapRelaxation:
    def test_receiver_sets(self):
        config_map = {("M", "O", "O"): ("M", "O", "X")}
        receivers = receiver_sets(config_map)
        assert receivers["M"] == frozenset("M")
        assert receivers["O"] == frozenset("OX")

    def test_arity_change_rejected(self):
        with pytest.raises(FormalismError):
            receiver_sets({("M", "O"): ("M",)})

    def test_config_map_matches_label_map_semantics(self, matching):
        """A config map induced by a label map passes iff the label map does."""
        relaxed = problem_from_lines(["M O^2", "O^3"], ["M O^2", "O^3"])
        label_map = {"M": "M", "O": "O", "P": "O"}
        config_map = {}
        for config in matching.white:
            source = tuple(config.labels)
            config_map[source] = tuple(label_map[lab] for lab in source)
        assert is_relaxation_via_config_map(matching, relaxed, config_map)

    def test_config_map_must_cover_all_white_configs(self, matching):
        config_map = {("M", "O", "O"): ("M", "O", "O")}
        assert not is_relaxation_via_config_map(matching, matching, config_map)

    def test_per_config_map_is_more_general_than_label_maps(self):
        """A map sending the same label to different targets in different
        configurations — inexpressible as a label map."""
        strict = problem_from_lines(["A A", "B B"], ["A B"])
        relaxed = problem_from_lines(["C C", "D D"], ["C D"])
        config_map = {
            ("A", "A"): ("C", "C"),
            ("B", "B"): ("D", "D"),
        }
        assert is_relaxation_via_config_map(strict, relaxed, config_map)


class TestFindConfigMapRelaxation:
    def test_black_configuration_without_labels_is_checked(self):
        """The empty black configuration has one choice, the empty one;
        outside the relaxed black constraint it refutes every map, though
        no receiver pair ever touches it."""
        strict = Problem(
            frozenset("AB"),
            Constraint([Configuration("A")]),
            Constraint([Configuration([])]),
        )
        refuting = Problem(
            frozenset("AB"),
            Constraint([Configuration("B")]),
            Constraint([Configuration("B")]),
        )
        assert find_config_map_relaxation(strict, refuting) is None
        admitting = Problem(
            frozenset("AB"),
            Constraint([Configuration("B")]),
            Constraint([Configuration([])]),
        )
        assert find_config_map_relaxation(strict, admitting) == {("A",): ("B",)}
