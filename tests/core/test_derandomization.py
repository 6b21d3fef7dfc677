"""Appendix C, tested: instance counting and executable derandomization."""

import math
import random

import pytest

from repro.core.derandomization import (
    count_labeled_graphs,
    count_supported_instances_exact,
    derandomize_by_union_bound,
    deterministic_bound_to_randomized,
    hypergraph_instance_count_bound,
    randomized_rounds_from_deterministic,
    supported_instance_count_bound,
    supported_instance_count_exact_exponent,
    union_bound_guarantee,
)
from repro.utils import CertificateError


class TestInstanceCounting:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exact_count_below_paper_bound(self, n):
        """The paper's 2^{3n²} dominates the exact instance count."""
        exact = count_supported_instances_exact(n)
        assert exact <= supported_instance_count_bound(n)

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_exponent_decomposition_below_3n2(self, n):
        """C(n,2) + log₂(n!) + n² ≤ 3n² (the Appendix C computation)."""
        assert supported_instance_count_exact_exponent(n) <= 3 * n * n

    def test_hypergraph_bound_larger(self):
        for n in (2, 3, 5):
            assert hypergraph_instance_count_bound(n) >= supported_instance_count_bound(n)

    def test_exact_count_capped(self):
        with pytest.raises(CertificateError):
            count_supported_instances_exact(10)

    @pytest.mark.parametrize(
        "n,graphs", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 64), (5, 1024)]
    )
    def test_labeled_graph_factor(self, n, graphs):
        """Appendix C's first factor: 2^{C(n,2)} labeled graphs on n nodes
        (OEIS A006125), each one a support with an empty input subgraph."""
        assert count_labeled_graphs(n) == graphs
        assert graphs <= count_supported_instances_exact(n)


class TestBoundTransforms:
    def test_randomized_value_capped_by_instance_size(self):
        # At size n the randomized bound can't exceed sqrt(log2(n)/3).
        value = randomized_rounds_from_deterministic(100.0, n=2**48)
        assert value == pytest.approx(math.sqrt(48 / 3))

    def test_small_deterministic_value_passes_through(self):
        assert randomized_rounds_from_deterministic(1.0, n=2**300) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_lemma_c2_moves_bound_to_instance_count(self, n):
        """Lemma C.2: D_Π(n) ≥ d ⇒ R_Π(2^{3n²}) ≥ d.  Inverted at that
        size, the transform gives back min(d, n)."""
        rounds, size = deterministic_bound_to_randomized(3.0, n)
        assert (rounds, size) == (3.0, 2.0 ** (3 * n * n))
        assert randomized_rounds_from_deterministic(rounds, size) == min(3.0, n)


class TestUnionBound:
    def test_arithmetic_guarantee(self):
        assert union_bound_guarantee(10, 0.05)
        assert not union_bound_guarantee(10, 0.2)

    def test_executable_derandomization_finds_seed(self):
        """A randomized 'algorithm' failing on a seeded 10% of instances:
        with 8 instances and failure probability 1/10 < 1/8... the union
        bound promises a universally good seed, and the search finds it."""
        instances = list(range(8))
        seeds = list(range(64))

        def succeeds(instance: int, seed: int) -> bool:
            rng = random.Random(f"{instance}/{seed}")
            return rng.random() > 0.1

        result = derandomize_by_union_bound(instances, seeds, succeeds)
        assert result.succeeded
        for instance in instances:
            assert succeeds(instance, result.seed)

    def test_reports_failures_when_no_seed_works(self):
        instances = [0, 1]
        result = derandomize_by_union_bound(
            instances, seeds=[0, 1, 2], succeeds=lambda i, s: i == 0
        )
        assert not result.succeeded
        assert all(count == 1 for count in result.failure_counts.values())
