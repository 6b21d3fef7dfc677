"""Unit tests for configurations and condensed configurations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formalism.configurations import (
    CondensedConfiguration,
    Configuration,
    condensed,
    render_configuration,
)
from repro.utils import ArityMismatchError

LABELS = ["A", "B", "C", "M", "O", "P", "X"]
label_strategy = st.sampled_from(LABELS)
config_strategy = st.lists(label_strategy, min_size=1, max_size=6).map(Configuration)


class TestConfiguration:
    def test_canonical_order(self):
        assert Configuration(["B", "A", "B"]).labels == ("A", "B", "B")

    def test_equality_is_multiset_equality(self):
        assert Configuration("MOO") == Configuration(["O", "M", "O"])
        assert Configuration("MO") != Configuration("MOO")

    def test_size_counts_multiplicity(self):
        assert Configuration("MOO").size == 3

    def test_support(self):
        assert Configuration("MOO").support == frozenset({"M", "O"})

    def test_count(self):
        config = Configuration("MOO")
        assert config.count("O") == 2
        assert config.count("Z") == 0

    def test_replace_one(self):
        assert Configuration("MOO").replace_one("O", "X") == Configuration("MOX")

    def test_replace_one_missing_label_raises(self):
        with pytest.raises(ValueError):
            Configuration("MO").replace_one("Z", "X")

    def test_replace_all(self):
        assert Configuration("MOO").map_labels({"O": "X"}) == Configuration("MXX")

    def test_map_labels_keeps_unmapped(self):
        config = Configuration("MOO").map_labels({"O": "P"})
        assert config == Configuration("MPP")

    def test_is_submultiset_of(self):
        assert Configuration("MOO").extends(Configuration("MO").counter)
        assert not Configuration("MO").extends(Configuration("MOO").counter)

    def test_hashable(self):
        assert len({Configuration("MO"), Configuration("OM")}) == 1

    def test_render_round_trips_via_parser(self):
        from repro.formalism.parsing import parse_configuration

        config = Configuration(["M", "O", "O", "O"])
        assert parse_configuration(render_configuration(config)) == config

    @given(config_strategy)
    def test_canonical_is_sorted(self, config):
        assert list(config.labels) == sorted(config.labels)

    @given(config_strategy, label_strategy, label_strategy)
    def test_replace_one_preserves_size(self, config, old, new):
        if config.contains(old):
            assert config.replace_one(old, new).size == config.size

    @given(config_strategy)
    def test_counter_agrees_with_labels(self, config):
        assert sum(config.counter.values()) == config.size


class TestCondensedConfiguration:
    def test_expand_example_from_paper(self):
        # [AB][CD]E denotes {ACE, ADE, BCE, BDE} (paper §2).
        cc = condensed("AB", "CD", "E")
        assert cc.expand() == frozenset(
            {
                Configuration("ACE"),
                Configuration("ADE"),
                Configuration("BCE"),
                Configuration("BDE"),
            }
        )

    def test_expand_deduplicates(self):
        cc = condensed("AB", "AB")
        assert len(cc.expand()) == 3  # AA, AB, BB

    def test_contains_agrees_with_expand_positive(self):
        cc = condensed("AB", "CD", "E")
        for config in cc.expand():
            assert cc.contains(config)

    def test_contains_rejects_wrong_size(self):
        assert not condensed("AB").contains(Configuration("AB"))

    def test_contains_needs_bijective_assignment(self):
        # [AB][A] contains AB (A in slot 2, B in slot 1) but not BB.
        cc = condensed("AB", "A")
        assert cc.contains(Configuration("AB"))
        assert not cc.contains(Configuration("BB"))

    def test_contains_tricky_matching(self):
        # [AB][AC][BC]: the greedy assignment can fail where matching works.
        cc = condensed("AB", "AC", "BC")
        assert cc.contains(Configuration("ABC"))
        assert cc.contains(Configuration("ACB"))
        assert not cc.contains(Configuration("AAA"))

    def test_empty_slot_rejected(self):
        with pytest.raises(ArityMismatchError):
            CondensedConfiguration([[]])

    @given(
        st.lists(
            st.sets(label_strategy, min_size=1, max_size=3), min_size=1, max_size=4
        )
    )
    def test_contains_matches_expansion(self, slots):
        cc = CondensedConfiguration(slots)
        expansion = cc.expand()
        for config in expansion:
            assert cc.contains(config)
        # A configuration using a label absent from every slot is rejected.
        outside = Configuration(["Z"] * cc.size)
        assert not cc.contains(outside)
