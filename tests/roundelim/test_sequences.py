"""Mechanical verification of the paper's lower bound sequences.

Corollary 4.6 / Lemma 4.5 ([BO20]): Π_Δ(x,y), Π_Δ(x+y,y), … is a lower
bound sequence.  The steps need the *general* configuration-map relaxation
notion — a reproduction finding (README, "Findings"): no label map
witnesses the Lemma 4.5 steps, while ordered-configuration maps do.
"""

import pytest

from repro.formalism.relaxations import (
    find_config_map_relaxation,
    find_label_relaxation,
    is_relaxation_via_config_map,
)
from repro.problems import matching_sequence_problems, pi_matching
from repro.roundelim import (
    LowerBoundSequence,
    compress_labels,
    round_elimination,
    sequence_from_family,
)
from repro.utils import InvalidParameterError


class TestLemma45:
    def test_step_delta3(self):
        """Π_3(1,1) is a relaxation of RE(Π_3(0,1)) — via a config map."""
        eliminated, _ = compress_labels(round_elimination(pi_matching(3, 0, 1)))
        target = pi_matching(3, 1, 1)
        witness = find_config_map_relaxation(eliminated, target)
        assert witness is not None
        assert is_relaxation_via_config_map(eliminated, target, witness)

    def test_step_needs_general_relaxation_notion(self):
        """Reproduction finding: no *label map* witnesses the step."""
        eliminated, _ = compress_labels(round_elimination(pi_matching(3, 0, 1)))
        assert find_label_relaxation(eliminated, pi_matching(3, 1, 1)) is None

    def test_step_delta4_second_step(self):
        """Π_4(2,1) is a relaxation of RE(Π_4(1,1))."""
        eliminated, _ = compress_labels(round_elimination(pi_matching(4, 1, 1)))
        target = pi_matching(4, 2, 1)
        witness = find_config_map_relaxation(eliminated, target)
        assert witness is not None


class TestCorollary46:
    def test_full_sequence_delta4(self):
        problems = matching_sequence_problems(4, 0, 1, steps=2)
        sequence = LowerBoundSequence(problems=tuple(problems))
        witnesses = sequence.verify()
        assert len(witnesses) == 2

    def test_parameter_guard(self):
        with pytest.raises(InvalidParameterError):
            matching_sequence_problems(3, 0, 1, steps=3)  # x+(k+1)y > Δ

    def test_sequence_from_family_builder(self):
        sequence = sequence_from_family(
            lambda index: pi_matching(4, index, 1), [0, 1, 2]
        )
        assert sequence.length == 2
        assert sequence.first.name == "Π_4(0,1)"
        assert sequence.last.name == "Π_4(2,1)"


class TestSequenceBasics:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            LowerBoundSequence(problems=())

    def test_invalid_step_raises(self):
        # Π_3(0,1) is not a relaxation of RE(Π_3(1,1)) (wrong direction —
        # the sequence must weaken over time).
        sequence = LowerBoundSequence(
            problems=(pi_matching(3, 1, 1), pi_matching(3, 0, 1))
        )
        with pytest.raises(ValueError):
            sequence.verify()
