"""Executable-proof tests: Lemmas 4.7-4.9, 5.9, 5.10, 6.6.

Real solutions are produced by the Lemma 5.3 / 6.3 conversions from
concrete colorings/ruling sets computed by the algorithms package, then
pushed through the paper's extraction lemmas; corrupted solutions must be
rejected (failure injection).
"""

import networkx as nx
import pytest

from repro import api
from repro.analysis import (
    BarPiChecker,
    classify_types,
    contradiction_region,
    count_label_edges,
    decode_color_union,
    extract_coloring,
    extract_family_solution,
    hall_violator,
    matching_counting_certificate,
    palette_size,
    peel_once,
    type1_fraction_certificate,
)
from repro.checkers import check_half_edge_labeling, check_proper_coloring
from repro.formalism.diagrams import black_diagram, right_closure
from repro.graphs import cage, cycle, greedy_coloring
from repro.problems import (
    arbdefective_to_family_labels,
    pi_arbdefective,
    pi_ruling,
    pointer_label,
    ruling_set_to_family_labels,
)
from repro.utils import CertificateError


def _family_solution(graph, colors):
    """An honest Π_Δ((α+1)c) half-edge solution from a real coloring."""
    solution = api.solve(
        f"arbdefective:Δ=3,c={colors}",
        algorithm="arbdefective:class-sweep",
        graph=graph,
    ).outputs
    alpha = solution["alpha"]
    labels = arbdefective_to_family_labels(
        graph, solution["color_of"], solution["orientation"], alpha
    )
    return labels, (alpha + 1) * colors


class TestLemma53Conversion:
    # c = 1 would give α = ⌊Δ/c⌋ = Δ, outside Lemma 5.3's (α+1)c ≤ Δ-ish
    # regime (a node may orient all Δ edges outward, leaving no ℓ(C)
    # copies); c ≥ 2 keeps the class-sweep construction inside it.
    @pytest.mark.parametrize("colors", [2, 3])
    def test_conversion_is_valid_family_solution(self, colors):
        graph, _d, _g = cage("petersen")
        labels, k = _family_solution(graph, colors)
        problem = pi_arbdefective(3, k)
        assert check_half_edge_labeling(graph, problem, labels)


class TestHallViolator:
    def test_none_when_halls_condition_holds(self):
        # Each color missing from a distinct edge: perfect matching exists.
        sets = [frozenset({2, 3}), frozenset({1, 3}), frozenset({1, 2})]
        assert hall_violator(range(1, 4), sets) is None

    def test_violator_found(self):
        # Colors 1 and 2 are both present everywhere: H has no edges for
        # them; N({1,2}) = ∅.
        sets = [frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2})]
        violator = hall_violator(range(1, 3), sets)
        assert violator == {1, 2}

    def test_decode_color_union(self):
        assert decode_color_union(frozenset({"{1,2}", "{3}", "X"})) == frozenset(
            {1, 2, 3}
        )


class TestLemma59And510:
    def test_extraction_pipeline_on_real_solution(self):
        """Π_Δ(k) solution → (Lemma 5.9 on its trivial lift: singleton
        right-closed sets) → Π_Δ(k) solution → (Lemma 5.10) → 2k-coloring."""
        graph, _d, _g = cage("petersen")
        labels, k = _family_solution(graph, 2)
        problem = pi_arbdefective(3, k)
        diagram = black_diagram(problem)
        # Lift the concrete solution to label-sets by right-closure —
        # a valid lift_{Δ,2} solution (Theorem 3.2's closure step).
        half_edge_sets = {
            key: right_closure(diagram, [label]) for key, label in labels.items()
        }
        s_nodes = set(graph.nodes)
        family = extract_family_solution(graph, s_nodes, half_edge_sets, k)
        assert check_half_edge_labeling(graph, pi_arbdefective(3, k), family)

        coloring = extract_coloring(graph, s_nodes, family)
        assert check_proper_coloring(graph, coloring)
        assert palette_size(coloring) <= 2 * k

    def test_subset_s_extraction(self):
        graph, _d, _g = cage("heawood")
        labels, k = _family_solution(graph, 2)
        problem = pi_arbdefective(3, k)
        diagram = black_diagram(problem)
        half_edge_sets = {
            key: right_closure(diagram, [label]) for key, label in labels.items()
        }
        s_nodes = set(sorted(graph.nodes)[:8])
        family = extract_family_solution(graph, s_nodes, half_edge_sets, k)
        coloring = extract_coloring(graph, s_nodes, family)
        induced = graph.subgraph(s_nodes)
        assert check_proper_coloring(induced, coloring)

    def test_corrupted_solution_rejected(self):
        """Failure injection: intersecting color sets across an edge."""
        graph = cycle(4)
        bad = {}
        for u, v in graph.edges:
            bad[(u, v)] = frozenset({"{1}"})
            bad[(v, u)] = frozenset({"{1}"})
        with pytest.raises(CertificateError):
            extract_family_solution(graph, set(graph.nodes), bad, 1)


class TestLemma47Through49:
    def test_counting_certificate_on_assignment(self):
        """Synthetic assignment on a (Δ,Δ)-biregular graph: the counts and
        bound arithmetic are exact."""
        graph, _d, _g = cage("pappus")  # bipartite 3-regular, 18 nodes
        assignment = {}
        for index, edge in enumerate(sorted(graph.edges, key=str)):
            label_set = frozenset("OX") if index % 3 else frozenset("POX")
            assignment[frozenset(edge)] = label_set
        certificate = matching_counting_certificate(
            graph, assignment, delta=3, delta_prime=2, y=1
        )
        expected_p = sum(
            1 for index in range(graph.number_of_edges()) if index % 3 == 0
        )
        assert certificate.p_edges == expected_p
        assert certificate.m_edges == 0
        assert certificate.lemma_47_holds

    def test_contradiction_region_matches_paper(self):
        """§4.2 fixes Δ = 5Δ′ and derives the contradiction for y ≤ Δ′."""
        assert contradiction_region(delta=50, delta_prime=10, y=1)
        assert not contradiction_region(delta=12, delta_prime=10, y=1)

    def test_odd_graph_rejected(self):
        graph = cycle(5)
        with pytest.raises(CertificateError):
            matching_counting_certificate(graph, {}, 2, 2, 1)

    def test_count_label_edges(self):
        assignment = {1: frozenset("MP"), 2: frozenset("O"), 3: frozenset("MP")}
        assert count_label_edges(assignment, "M") == 2
        assert count_label_edges(assignment, "O") == 1


class TestLemma66Peeling:
    def _ruling_instance(self, beta):
        """A sequential class-sweep ruling set: one class per node, in
        (greedy class, ``str(node)``) order.  The default coloring would
        let a whole bipartition side select at once, which leaves no
        P_β/U_β labels to peel."""
        graph, _d, _g = cage("tutte_coxeter")
        greedy = greedy_coloring(graph)
        order = sorted(graph.nodes, key=lambda node: (greedy[node], str(node)))
        selected = api.solve(
            f"ruling-set:Δ=3,c=1,β={beta}",
            algorithm="ruling-set:class-sweep",
            graph=graph,
            coloring={node: index for index, node in enumerate(order)},
        ).outputs
        color_of = {node: 1 for node in selected}
        labels = ruling_set_to_family_labels(
            graph, selected, color_of, set(), alpha=0, beta=beta
        )
        return graph, labels

    def test_conversion_valid_for_family(self):
        graph, labels = self._ruling_instance(beta=2)
        problem = pi_ruling(3, 1, 2)
        assert check_half_edge_labeling(graph, problem, labels)

    def test_conversion_counts_hops_not_weights(self):
        graph = nx.path_graph(3)
        nx.set_edge_attributes(graph, 5, "weight")
        labels = ruling_set_to_family_labels(graph, {1}, {1: 1}, set(), alpha=0, beta=1)
        assert labels[(0, 1)] == labels[(2, 1)] == pointer_label(1)

    def test_classification_covers_s(self):
        graph, labels = self._ruling_instance(beta=2)
        problem = pi_ruling(3, 1, 2)
        diagram = black_diagram(problem)
        sets = {key: right_closure(diagram, [label]) for key, label in labels.items()}
        type1, type2, type3, untouched = classify_types(
            graph, set(graph.nodes), sets, delta=3, delta_prime=1, beta=2
        )
        assert type1 | type2 | type3 | untouched == set(graph.nodes)

    def test_fraction_certificate_guard(self):
        with pytest.raises(CertificateError):
            type1_fraction_certificate(10, 1, delta=4, delta_prime=2)
        assert type1_fraction_certificate(10, 5, delta=9, delta_prime=3)

    def test_peel_removes_deepest_pointers(self):
        graph, labels = self._ruling_instance(beta=2)
        problem = pi_ruling(3, 1, 2)
        diagram = black_diagram(problem)
        sets = {key: right_closure(diagram, [label]) for key, label in labels.items()}
        result = peel_once(
            graph, set(graph.nodes), sets, delta=3, delta_prime=1, k=1, beta=2
        )
        assert result.fraction_ok
        for node in result.s_prime:
            for neighbor in graph.neighbors(node):
                label_set = result.assignment[(node, neighbor)]
                assert "P2" not in label_set
                assert "U2" not in label_set

    def test_bar_pi_checker_accepts_base_solution(self):
        """A lift of an honest Π_Δ'(k,β) solution passes the ¯Π checker at
        x = Δ − Δ'… here checked in the base form (x large enough that
        some y matches the node's effective arity)."""
        graph, labels = self._ruling_instance(beta=1)
        problem = pi_ruling(3, 1, 1)
        diagram = black_diagram(problem)
        sets = {key: right_closure(diagram, [label]) for key, label in labels.items()}
        checker = BarPiChecker(delta_prime=3, x=0, k=1, beta=1)
        assert checker.check(graph, set(graph.nodes), sets)
