"""Tests for the distributed upper-bound algorithms.

The registered algorithms run through :func:`repro.api.solve` with
``check=False``, so each test states its own validity assertion; the
sequential references (class sweeps, greedy matching, global sinkless
orientation) are called directly.
"""

import networkx as nx
import pytest

from repro import api
from repro.algorithms import (
    class_sweep_arbdefective_coloring,
    class_sweep_coloring,
    global_sinkless_orientation,
    greedy_maximal_matching,
    ruling_set_by_class_sweep,
    verify_class_sweep_construction,
)
from repro.checkers import (
    check_arbdefective_coloring,
    check_maximal_matching,
    check_mis,
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
from repro.utils import GraphConstructionError, SimulationError


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

    def test_agrees_with_greedy_on_validity(self):
        cover = mark_bipartition(cycle(10))
        matching = greedy_maximal_matching(cover)
        assert check_maximal_matching(cover, matching)

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
        assert check_mis(graph, mis)
        colors_used = len(set(greedy_coloring(graph).values()))
        assert rounds == colors_used

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_luby_valid(self, seed):
        graph, _d, _g = cage("petersen")
        mis, rounds = _mis(graph, "mis:luby", seed=seed)
        assert check_mis(graph, mis)
        assert rounds >= 1

    def test_mis_from_ruling_sweep(self):
        graph, _d, _g = cage("heawood")
        mis, _rounds = _mis(graph, "ruling-set:class-sweep")
        assert check_mis(graph, mis)


class TestColoring:
    @pytest.mark.parametrize("name", ["petersen", "mcgee"])
    def test_class_sweep_proper(self, name):
        graph, degree, _g = cage(name)
        coloring, rounds = class_sweep_coloring(graph)
        assert check_proper_coloring(graph, coloring)
        assert max(coloring.values()) <= degree  # (Δ+1) colors, 0-based
        assert rounds >= 1

    def test_coloring_from_ids_uses_id_ranks(self):
        """IDs are only distinct, not contiguous: adversarial IDs from
        {1..n^3} must still yield the contiguous 0-based n-coloring (the
        former ``id - 1`` shortcut inflated the class count n^2-fold)."""
        from repro.algorithms.coloring_dist import coloring_from_ids
        from repro.local import Network

        graph, _d, _g = cage("petersen")
        canonical = Network(graph=graph)
        assert coloring_from_ids(canonical) == {
            node: canonical.ids[node] - 1 for node in graph.nodes
        }
        adversarial = canonical.with_random_ids(seed=3)
        coloring = coloring_from_ids(adversarial)
        assert sorted(coloring.values()) == list(range(graph.number_of_nodes()))
        # Rank order matches ID order.
        by_id = sorted(graph.nodes, key=lambda v: adversarial.ids[v])
        assert [coloring[node] for node in by_id] == list(
            range(graph.number_of_nodes())
        )

    def test_class_sweep_matches_engine_run(self):
        """The centralized helper is byte-identical to actually running
        the node program (it replaced an internal simulation)."""
        from repro.algorithms.coloring_dist import _ClassSweepNode
        from repro.local import Network, run_synchronous

        graph, _d, _g = cage("petersen")
        initial = greedy_coloring(graph)
        num_classes = max(initial.values(), default=-1) + 1
        result = run_synchronous(
            Network(graph=graph),
            _ClassSweepNode,
            extra=lambda node: {
                "initial_color": initial[node],
                "num_classes": num_classes,
            },
        )
        coloring, rounds = class_sweep_coloring(graph, initial)
        assert coloring == dict(result.outputs)
        assert rounds == result.rounds


class TestArbdefective:
    @pytest.mark.parametrize("colors", [1, 2, 3])
    def test_class_sweep_construction(self, colors):
        graph, _d, _g = cage("petersen")
        base = greedy_coloring(graph)
        assert verify_class_sweep_construction(graph, base, colors)

    def test_alpha_formula(self):
        graph, degree, _g = cage("heawood")
        base = greedy_coloring(graph)
        _c, _o, alpha, _r = class_sweep_arbdefective_coloring(graph, base, 2)
        assert alpha == degree // 2

    def test_improper_input_rejected(self):
        graph = cycle(4)
        from repro.utils import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            class_sweep_arbdefective_coloring(graph, {n: 1 for n in graph}, 2)


class TestRulingSets:
    @pytest.mark.parametrize("beta", [1, 2, 3])
    def test_sweep_produces_valid_ruling_set(self, beta):
        graph, _d, _g = cage("tutte_coxeter")
        selected, rounds = ruling_set_by_class_sweep(graph, beta=beta)
        assert check_ruling_set(graph, selected, beta, independent=True)
        assert rounds >= beta

    def test_larger_beta_allows_sparser_sets(self):
        graph, _d, _g = cage("tutte_coxeter")
        s1, _ = ruling_set_by_class_sweep(graph, beta=1)
        s3, _ = ruling_set_by_class_sweep(graph, beta=3)
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
