"""Unit tests for the integer encoding layer (repro.formalism.encoding)."""

import pytest

from repro.formalism.configurations import Configuration
from repro.formalism.constraints import Constraint, sub_multiset_closure
from repro.formalism.encoding import (
    ConstraintTable,
    LabelEncoding,
    ProblemEncoding,
    bits_of,
    mask_sort_key,
)
from repro.formalism.parsing import parse_constraint
from repro.problems import maximal_matching_problem, pi_matching
from repro.utils import UnknownLabelError


class TestBits:
    def test_bits_of_zero(self):
        assert bits_of(0) == ()

    def test_bits_ascending(self):
        assert bits_of(0b101101) == (0, 2, 3, 5)

    def test_mask_sort_key_orders_by_size_then_members(self):
        # {0} < {2} < {0,1} — exactly the (len, sorted members) order the
        # reference implementation uses on decoded label sets.
        masks = [0b011, 0b100, 0b001]
        assert sorted(masks, key=mask_sort_key) == [0b001, 0b100, 0b011]


class TestLabelEncoding:
    def test_labels_sorted_and_order_preserving(self):
        encoding = LabelEncoding.for_alphabet(frozenset("OMP"))
        assert encoding.labels == ("M", "O", "P")
        assert [encoding.encode_label(label) for label in "MOP"] == [0, 1, 2]

    def test_label_round_trip(self):
        encoding = LabelEncoding.for_alphabet(frozenset("MOPXZ"))
        for label in "MOPXZ":
            assert encoding.decode_label(encoding.encode_label(label)) == label

    def test_unknown_label_raises(self):
        encoding = LabelEncoding.for_alphabet(frozenset("MO"))
        with pytest.raises(UnknownLabelError):
            encoding.encode_label("Q")

    def test_config_round_trip_is_sorted(self):
        encoding = LabelEncoding.for_alphabet(frozenset("MOP"))
        config = Configuration(["P", "M", "O", "M"])
        encoded = encoding.encode_config(config)
        assert encoded == tuple(sorted(encoded))
        assert encoding.decode_config(encoded) == config

    def test_config_with_unknown_label_raises(self):
        encoding = LabelEncoding.for_alphabet(frozenset("MO"))
        with pytest.raises(UnknownLabelError):
            encoding.encode_config(Configuration(["M", "Q"]))

    def test_set_round_trip(self):
        encoding = LabelEncoding.for_alphabet(frozenset("MOPXZ"))
        members = frozenset("MXZ")
        assert encoding.decode_mask(encoding.encode_set(members)) == members

    def test_full_mask(self):
        encoding = LabelEncoding.for_alphabet(frozenset("MOP"))
        assert encoding.full_mask == 0b111
        assert encoding.decode_mask(encoding.full_mask) == frozenset("MOP")


class TestConstraintTable:
    def setup_method(self):
        self.constraint = parse_constraint("M O O\nP P P")
        self.encoding = LabelEncoding.for_alphabet(frozenset("MOP"))
        self.table = ConstraintTable.compile(self.constraint, self.encoding)

    def test_allowed_matches_constraint(self):
        decoded = {
            self.encoding.decode_config(items) for items in self.table.allowed
        }
        assert decoded == set(self.constraint.configurations)

    def test_arity(self):
        assert self.table.arity == 3

    def test_partials_are_exactly_the_sub_multisets(self):
        # M O O has sub-multisets (), M, O, MO, OO, MOO; P P P adds
        # P, PP, PPP.
        encode = self.encoding.encode_config
        expected = {
            (),
            *(
                encode(Configuration(labels))
                for labels in (
                    ["M"], ["O"], ["M", "O"], ["O", "O"], ["M", "O", "O"],
                    ["P"], ["P", "P"], ["P", "P", "P"],
                )
            ),
        }
        assert set(self.table.partials) == expected

    @pytest.mark.parametrize("delta", [3, 5, 8])
    def test_partials_match_the_brute_force_closure(self, delta):
        """The level-wise closure on arities up to 8, where labels repeat
        up to Δ times in one configuration."""
        problem = pi_matching(delta, 0, 1)
        encoding = LabelEncoding.for_alphabet(problem.alphabet)
        for constraint in (problem.white, problem.black):
            table = ConstraintTable.compile(constraint, encoding)
            decoded = {encoding.decode_config(items).labels for items in table.partials}
            assert decoded == sub_multiset_closure(constraint)

    def test_extends_and_allows(self):
        encode = self.encoding.encode_config
        assert self.table.allows(encode(Configuration(["M", "O", "O"])))
        assert not self.table.allows(encode(Configuration(["M", "M", "O"])))
        assert self.table.extends(encode(Configuration(["M", "O"])))
        assert not self.table.extends(encode(Configuration(["M", "P"])))

    def test_empty_constraint(self):
        table = ConstraintTable.compile(Constraint([]), self.encoding)
        assert table.allowed == frozenset()
        assert table.partials == frozenset()
        assert table.arity == 0


class TestProblemEncoding:
    def test_compile_covers_both_sides(self):
        problem = maximal_matching_problem(3)
        compiled = ProblemEncoding.compile(problem)
        assert compiled.encoding.size == len(problem.alphabet)
        assert len(compiled.white.allowed) == len(problem.white)
        assert len(compiled.black.allowed) == len(problem.black)
