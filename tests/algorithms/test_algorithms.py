"""Tests for the distributed upper-bound algorithms.

The registered algorithms run through :func:`repro.api.solve` with
``check=False``, so each test states its own validity assertion; the
global sinkless orientation, the one central computation left in the
package, is called directly.
"""

import networkx as nx
import pytest

from repro import api
from repro.algorithms import global_sinkless_orientation
from repro.checkers import (
    check_arbdefective_coloring,
    check_maximal_matching,
    check_proper_coloring,
    check_ruling_set,
    check_sinkless_orientation,
    check_x_maximal_y_matching,
)
from repro.graphs import (
    bipartite_double_cover,
    cage,
    cycle,
    greedy_coloring,
    mark_bipartition,
)
from repro.algorithms.matching_dist import matching_from_outputs
from repro.local import Network
from repro.utils import (
    GraphConstructionError,
    InvalidParameterError,
    SimulationError,
)


def _matching(cover, **options):
    report = api.solve(
        "maximal-matching:Δ=3",
        algorithm="matching:proposal",
        graph=cover,
        check=False,
        **options,
    )
    return report.outputs, report.rounds


def _mis(graph, algorithm, seed=0):
    report = api.solve(
        "mis:Δ=3", algorithm=algorithm, graph=graph, seed=seed, check=False
    )
    return report.outputs, report.rounds


def _coloring(graph, **options):
    report = api.solve(
        "coloring:Δ=3",
        algorithm="coloring:class-sweep",
        graph=graph,
        check=False,
        **options,
    )
    return report.outputs, report.rounds


def _arbdefective(graph, colors, **options):
    report = api.solve(
        f"arbdefective:Δ=3,c={colors}",
        algorithm="arbdefective:class-sweep",
        graph=graph,
        check=False,
        **options,
    )
    return report.outputs


def _ruling_set(graph, beta):
    """The sequential (2,β)-ruling-set sweep: one class per node, in
    (greedy class, ``str(node)``) order, so the wave admits one node at
    a time."""
    greedy = greedy_coloring(graph)
    order = sorted(graph.nodes, key=lambda node: (greedy[node], str(node)))
    report = api.solve(
        f"ruling-set:Δ=3,c=1,β={beta}",
        algorithm="ruling-set:class-sweep",
        graph=graph,
        check=False,
        coloring={node: index for index, node in enumerate(order)},
    )
    return report.outputs, report.rounds


class TestProposalMatching:
    @pytest.mark.parametrize("name", ["petersen", "heawood", "pappus"])
    def test_valid_on_double_covers(self, name):
        graph, _d, _g = cage(name)
        cover = bipartite_double_cover(graph)
        matching, rounds = _matching(cover)
        assert check_maximal_matching(cover, matching)
        assert rounds >= 1

    def test_rounds_scale_with_input_degree(self):
        """The O(Δ′) shape: rounds are 2Δ′ by construction."""
        graph, _d, _g = cage("heawood")
        cover = bipartite_double_cover(graph)
        _m, rounds_full = _matching(cover)
        # Input = a perfect matching of the cover (Δ′ = 1): both lifts
        # (u,0)–(v,1) and (v,0)–(u,1) of a perfect matching uv of G.
        perfect = nx.max_weight_matching(graph, maxcardinality=True)
        thin = frozenset(
            frozenset(((a, 0), (b, 1))) for u, v in perfect for a, b in ((u, v), (v, u))
        )
        _m2, rounds_thin = _matching(cover, input_edges=thin)
        assert rounds_full == 2 * 3
        assert rounds_thin == 2 * 1

    def test_partial_input_graph(self):
        cover = mark_bipartition(cycle(8))
        edges = sorted(cover.edges, key=str)[:5]
        input_edges = frozenset(frozenset(edge) for edge in edges)
        matching, _rounds = _matching(cover, input_edges=input_edges)
        input_graph = nx.Graph(list(tuple(edge) for edge in input_edges))
        assert check_maximal_matching(input_graph, matching)

    def test_decoding_refuses_a_port_the_node_lacks(self):
        network = Network(graph=mark_bipartition(cycle(4)))
        outputs = {node: {"matched": None} for node in network.nodes}
        assert matching_from_outputs(network, outputs) == set()
        white = next(v for v, c in network.node_colors().items() if c == "white")
        outputs[white] = {"matched": 3}
        with pytest.raises(SimulationError, match=f"^node {white} has no port 3$"):
            matching_from_outputs(network, outputs)


class TestMIS:
    @pytest.mark.parametrize("name", ["petersen", "heawood", "desargues"])
    def test_supported_mis_valid(self, name):
        graph, _d, _g = cage(name)
        mis, rounds = _mis(graph, "mis:aapr23")
        assert check_ruling_set(graph, mis, beta=1, independent=True)
        colors_used = len(set(greedy_coloring(graph).values()))
        assert rounds == colors_used

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_luby_valid(self, seed):
        graph, _d, _g = cage("petersen")
        mis, rounds = _mis(graph, "mis:luby", seed=seed)
        assert check_ruling_set(graph, mis, beta=1, independent=True)
        assert rounds >= 1

    def test_mis_from_ruling_sweep(self):
        graph, _d, _g = cage("heawood")
        mis, _rounds = _mis(graph, "ruling-set:class-sweep")
        assert check_ruling_set(graph, mis, beta=1, independent=True)


class TestColoring:
    @pytest.mark.parametrize("name", ["petersen", "mcgee"])
    def test_class_sweep_proper(self, name):
        graph, degree, _g = cage(name)
        coloring, rounds = _coloring(graph)
        assert check_proper_coloring(graph, coloring)
        assert max(coloring.values()) <= degree  # (Δ+1) colors, 0-based
        assert rounds >= 1


class TestArbdefective:
    @pytest.mark.parametrize("colors", [1, 2, 3])
    def test_class_sweep_construction(self, colors):
        graph, _d, _g = cage("petersen")
        base = greedy_coloring(graph)
        solution = _arbdefective(graph, colors, proper_coloring=base)
        assert check_arbdefective_coloring(
            graph,
            solution["color_of"],
            solution["orientation"],
            solution["alpha"],
            colors,
        )

    def test_alpha_formula(self):
        graph, degree, _g = cage("heawood")
        base = greedy_coloring(graph)
        solution = _arbdefective(graph, 2, proper_coloring=base)
        assert solution["alpha"] == degree // 2

    def test_improper_input_rejected(self):
        graph = cycle(4)
        with pytest.raises(InvalidParameterError):
            _arbdefective(graph, 2, proper_coloring={n: 1 for n in graph})

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("colors", [1, 2, 3])
    @pytest.mark.parametrize("delta", [3, 4])
    def test_default_base_is_the_coloring_sweep(self, delta, colors, seed, engine):
        """The default proper coloring is the ``coloring:class-sweep``
        solve's, shifted to 1..Δ+1, and its rounds are the idle prefix:
        passing that coloring explicitly gives the same outputs, minus
        the coloring's rounds."""
        spec = f"arbdefective:Δ={delta},c={colors}"
        network = api.resolve_algorithm("arbdefective:class-sweep").default_network(
            api.ProblemSpec.parse(spec), n=64, seed=seed
        )

        def solve(problem, algorithm, **options):
            return api.solve(
                problem, algorithm=algorithm, engine=engine, network=network,
                seed=seed, **options,
            )

        coloring = solve(f"coloring:Δ={delta}", "coloring:class-sweep")
        default = solve(spec, "arbdefective:class-sweep")
        explicit = solve(
            spec,
            "arbdefective:class-sweep",
            proper_coloring={v: x + 1 for v, x in coloring.outputs.items()},
        )
        assert default.valid and explicit.valid
        assert explicit.outputs == default.outputs
        assert coloring.rounds >= 1
        assert explicit.rounds == default.rounds - coloring.rounds


class TestRulingSets:
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_sweep_produces_valid_ruling_set(self, beta):
        graph, _d, _g = cage("tutte_coxeter")
        selected, rounds = _ruling_set(graph, beta=beta)
        assert check_ruling_set(graph, selected, beta, independent=True)
        assert rounds >= beta

    def test_larger_beta_allows_sparser_sets(self):
        graph, _d, _g = cage("tutte_coxeter")
        s1, _ = _ruling_set(graph, beta=1)
        s3, _ = _ruling_set(graph, beta=3)
        assert len(s3) <= len(s1)


class TestSinklessOrientation:
    @pytest.mark.parametrize("name", ["petersen", "heawood"])
    def test_global_orientation_valid(self, name):
        graph, _d, _g = cage(name)
        orientation = global_sinkless_orientation(graph)
        assert check_sinkless_orientation(graph, orientation)

    def test_tree_rejected(self):
        with pytest.raises(GraphConstructionError):
            global_sinkless_orientation(nx.path_graph(5))

    def test_supported_rounds_constant(self):
        graph, _d, _g = cage("petersen")
        report = api.solve(
            "sinkless-orientation:Δ=3",
            algorithm="sinkless-orientation:global",
            graph=graph,
            check=False,
        )
        assert report.rounds == 0


class TestXMaximalYMatchingChecker:
    def test_relaxed_matching_accepted(self):
        """A 2-matching (y = 2) on a cycle."""
        graph = cycle(6)
        matching = {frozenset((0, 1)), frozenset((1, 2)), frozenset((3, 4)),
                    frozenset((4, 5))}
        assert check_x_maximal_y_matching(graph, matching, x=0, y=2)
        assert not check_x_maximal_y_matching(graph, matching, x=0, y=1)
