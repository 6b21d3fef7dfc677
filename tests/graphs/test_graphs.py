"""Tests for the graph substrates: girth, independence, chromatic,
cages, double covers, hypergraphs, generators."""

import math

import networkx as nx
import pytest

from repro.core.bounds import theorem_b2_bound
from repro.graphs import (
    Hypergraph,
    analyze_support_graph,
    available_cages,
    bipartite_double_cover,
    biregular_tree,
    cage,
    chromatic_lower_bound_from_independence,
    cycle,
    exact_chromatic_number,
    exact_girth,
    exact_independence_number,
    greedy_coloring,
    greedy_independent_set,
    hypergraph_girth,
    is_independent_set,
    lemma21_graph,
    linear_uniform_hypergraph,
    mark_bipartition,
    padded_support_graph,
    random_regular_with_girth,
)
from repro.utils import GraphConstructionError, InvalidParameterError


class TestGirth:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda: cycle(5), 5),
            (lambda: cycle(8), 8),
            (lambda: nx.complete_graph(4), 3),
            (lambda: nx.complete_bipartite_graph(2, 3), 4),
            (lambda: nx.path_graph(5), math.inf),
        ],
    )
    def test_known_girths(self, builder, expected):
        assert exact_girth(builder()) == expected

    def test_cage_girths_certified(self):
        """The cage library's claimed girths are re-certified exactly."""
        for name in available_cages():
            graph, degree, girth = cage(name)
            assert exact_girth(graph) == girth, name
            assert all(graph.degree(v) == degree for v in graph.nodes), name

    def test_hypergraph_girth_convention(self):
        petersen, _d, girth = cage("petersen")
        hyper = Hypergraph.from_graph(petersen)
        assert hypergraph_girth(hyper.incidence_graph()) == girth

    @pytest.mark.parametrize(
        "builder,budget",
        [
            (lambda: cage("petersen")[0], 0.5),
            (lambda: cage("mcgee")[0], 1.5),
            (lambda: cage("tutte_coxeter")[0], 2.0),
            (lambda: nx.path_graph(5), 20),
        ],
    )
    def test_theorem_b2_budget(self, builder, budget):
        """Theorem B.2's min{2k, (g−4)/2} at k = 10 on certified girths:
        the cages' (g−4)/2 binds; a forest has no cycle, so 2k does."""
        assert theorem_b2_bound(10, exact_girth(builder())) == budget


class TestIndependenceAndChromatic:
    def test_petersen_values(self):
        petersen, _d, _g = cage("petersen")
        assert exact_independence_number(petersen) == 4
        assert exact_chromatic_number(petersen) == 3

    def test_greedy_is_independent(self):
        graph, _d, _g = cage("heawood")
        chosen = greedy_independent_set(graph)
        assert is_independent_set(graph, chosen)
        assert len(chosen) <= exact_independence_number(graph)

    def test_chromatic_lower_bound(self):
        petersen, _d, _g = cage("petersen")
        assert chromatic_lower_bound_from_independence(petersen) == 3

    def test_greedy_coloring_proper(self):
        graph, _d, _g = cage("mcgee")
        coloring = greedy_coloring(graph)
        for u, v in graph.edges:
            assert coloring[u] != coloring[v]

    def test_odd_cycle_chromatic(self):
        assert exact_chromatic_number(cycle(7)) == 3
        assert exact_chromatic_number(cycle(8)) == 2

    def test_size_caps(self):
        big = nx.random_regular_graph(3, 100, seed=1)
        with pytest.raises(ValueError):
            exact_independence_number(big)
        with pytest.raises(ValueError):
            exact_chromatic_number(big)


class TestDoubleCover:
    def test_cover_is_bipartite_and_biregular(self):
        petersen, degree, girth = cage("petersen")
        cover = bipartite_double_cover(petersen)
        assert nx.is_bipartite(cover)
        assert cover.number_of_nodes() == 2 * petersen.number_of_nodes()
        assert all(cover.degree(v) == degree for v in cover.nodes)

    def test_cover_girth_at_least_original(self):
        petersen, _degree, girth = cage("petersen")
        cover = bipartite_double_cover(petersen)
        assert exact_girth(cover) >= girth

    def test_colors_assigned(self):
        cover = bipartite_double_cover(cycle(5))
        colors = {data["color"] for _n, data in cover.nodes(data=True)}
        assert colors == {"white", "black"}

    def test_mark_bipartition_raises_on_odd_cycle(self):
        with pytest.raises(InvalidParameterError, match="not bipartite"):
            mark_bipartition(cycle(5))


class TestGenerators:
    def test_random_regular_with_girth_certifies(self):
        certified = random_regular_with_girth(20, 3, min_girth=5, seed=3)
        assert certified.girth >= 5
        assert certified.independence_number is not None
        assert certified.n == 20

    def test_parity_guard(self):
        with pytest.raises(GraphConstructionError):
            random_regular_with_girth(7, 3, min_girth=4)

    def test_unreachable_girth_raises(self):
        with pytest.raises(GraphConstructionError):
            random_regular_with_girth(8, 3, min_girth=12, attempts=5)

    def test_lemma21_graph_interface(self):
        certified = lemma21_graph(24, 3, seed=1)
        assert certified.girth >= 5
        assert certified.independence_ratio is not None

    def test_biregular_tree_interior_degrees(self):
        tree = biregular_tree(3, 2, depth=3)
        for node, data in tree.nodes(data=True):
            degree = tree.degree(node)
            cap = 3 if data["color"] == "white" else 2
            assert degree <= cap

    def test_padded_support_graph(self):
        core = bipartite_double_cover(cycle(5))
        padded = padded_support_graph(core, 16)
        assert padded.number_of_nodes() == 16
        with pytest.raises(GraphConstructionError):
            padded_support_graph(core, 5)


class TestHypergraphs:
    def test_incidence_graph_colors(self):
        hyper = Hypergraph.from_edges([(0, 1, 2), (2, 3, 4)])
        incidence = hyper.incidence_graph()
        whites = [n for n, d in incidence.nodes(data=True) if d["color"] == "white"]
        blacks = [n for n, d in incidence.nodes(data=True) if d["color"] == "black"]
        assert len(whites) == 5 and len(blacks) == 2

    def test_degree_and_rank(self):
        hyper = Hypergraph.from_edges([(0, 1, 2), (2, 3, 4), (0, 3)])
        assert hyper.rank == 3
        assert hyper.degree(2) == 2
        assert hyper.max_degree == 2

    def test_linearity(self):
        linear = Hypergraph.from_edges([(0, 1, 2), (2, 3, 4)])
        assert linear.is_linear()
        nonlinear = Hypergraph.from_edges([(0, 1, 2), (0, 1, 3)])
        assert not nonlinear.is_linear()

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(GraphConstructionError):
            Hypergraph(nodes=(0,), edges=(frozenset(),))

    def test_linear_uniform_generator(self):
        hyper = linear_uniform_hypergraph(9, 2, 3, seed=5)
        assert hyper.is_regular(2)
        assert all(len(edge) == 3 for edge in hyper.edges)
        assert hyper.is_linear()

    def test_divisibility_guard(self):
        with pytest.raises(GraphConstructionError):
            linear_uniform_hypergraph(10, 3, 4)


class TestSupportGraphReport:
    def test_report_on_petersen(self):
        petersen, _d, _g = cage("petersen")
        report = analyze_support_graph(petersen)
        assert report.is_regular
        assert report.degree == 3
        assert report.girth == 5
        assert report.chromatic_number == 3
        assert not report.is_bipartite
        assert theorem_b2_bound(1, report.girth) == 0.5
