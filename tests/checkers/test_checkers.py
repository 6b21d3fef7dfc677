"""Tests for the validity checkers, including failure injection."""

import json
import random
import time
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.api.types import SolveReport
from repro.checkers import (
    CheckResult,
    check_arbdefective_colored_ruling_set,
    check_arbdefective_coloring,
    check_bipartite_solution,
    check_half_edge_labeling,
    check_maximal_matching,
    check_proper_coloring,
    check_ruling_set,
    check_sinkless_orientation,
    check_x_maximal_y_matching,
)
from repro.graphs import cage, cycle, greedy_coloring, mark_bipartition
from repro.local import Network
from repro.local.dense import NodeSet, PairSet
from repro.problems import maximal_matching_problem, pi_arbdefective
from repro.utils.serialization import to_jsonable


class TestMatchingChecker:
    def test_empty_matching_on_edgeless_graph(self):
        graph = nx.empty_graph(3)
        assert check_maximal_matching(graph, set())

    def test_non_maximal_rejected_with_reason(self):
        graph = cycle(6)
        result = check_maximal_matching(graph, set())
        assert not result
        assert "matched neighbors" in result.reason

    def test_overmatched_rejected(self):
        graph = cycle(4)
        matching = {frozenset((0, 1)), frozenset((1, 2))}
        result = check_maximal_matching(graph, matching)
        assert not result
        assert "y = 1" in result.reason

    def test_non_edge_rejected(self):
        graph = cycle(6)
        result = check_maximal_matching(graph, {frozenset((0, 3))})
        assert not result

    def test_x_relaxation_weakens_coverage(self):
        """Larger x excuses unmatched nodes with fewer matched neighbors."""
        graph = cycle(6)
        matching = {frozenset((0, 1)), frozenset((3, 4))}
        assert check_x_maximal_y_matching(graph, matching, x=0, y=1)
        assert check_x_maximal_y_matching(graph, matching, x=1, y=1)


class TestColoringCheckers:
    def test_proper_coloring(self):
        graph = cycle(4)
        assert check_proper_coloring(graph, {0: 1, 1: 2, 2: 1, 3: 2})
        assert not check_proper_coloring(graph, {0: 1, 1: 1, 2: 1, 3: 2})

    def test_missing_color_rejected(self):
        graph = cycle(3)
        result = check_proper_coloring(graph, {0: 1, 1: 2})
        assert not result and "no color" in result.reason

    def test_arbdefective_requires_orientation(self):
        graph = cycle(4)
        color_of = {n: 1 for n in graph.nodes}
        result = check_arbdefective_coloring(graph, color_of, set(), 1, 1)
        assert not result and "unoriented" in result.reason

    def test_arbdefective_outdegree_cap(self):
        graph = nx.star_graph(3)  # center 0
        color_of = {n: 1 for n in graph.nodes}
        orientation = {(0, 1), (0, 2), (0, 3)}
        assert check_arbdefective_coloring(graph, color_of, orientation, 3, 1)
        result = check_arbdefective_coloring(graph, color_of, orientation, 2, 1)
        assert not result and "outdegree" in result.reason

    def test_color_range_enforced(self):
        graph = cycle(3)
        result = check_arbdefective_coloring(
            graph, {0: 1, 1: 5, 2: 2}, set(), 1, 2
        )
        assert not result and "outside" in result.reason


class TestRulingSetCheckers:
    def test_domination_radius(self):
        graph = nx.path_graph(7)
        assert check_ruling_set(graph, {3}, beta=3)
        assert not check_ruling_set(graph, {3}, beta=2)

    def test_independence_flag(self):
        graph = cycle(6)
        assert check_ruling_set(graph, {0, 1}, beta=2)
        result = check_ruling_set(graph, {0, 1}, beta=2, independent=True)
        assert not result and "adjacent" in result.reason

    def test_mis_checker(self):
        graph, _d, _g = cage("petersen")
        assert not check_ruling_set(graph, set(), beta=1, independent=True)

    def test_colored_ruling_set_composite(self):
        graph = nx.path_graph(5)
        ruling_set = {0, 3}
        color_of = {0: 1, 3: 1}
        assert check_arbdefective_colored_ruling_set(
            graph, ruling_set, color_of, set(), alpha=0, colors=1, beta=2
        )
        # A sparser S breaks domination at β = 1 (node 2 is 2 away).
        assert not check_arbdefective_colored_ruling_set(
            graph, {0, 4}, {0: 1, 4: 1}, set(), alpha=0, colors=1, beta=1
        )

    def test_domination_counts_hops_not_weights(self):
        graph = nx.path_graph(3)
        nx.set_edge_attributes(graph, 5, "weight")
        assert check_ruling_set(graph, {1}, beta=1)
        assert check_ruling_set(graph, {1}, beta=1, independent=True)

    def test_foreign_member_reported_first_in_str_order(self):
        graph = nx.path_graph(3)
        expected = CheckResult(valid=False, reason="S member 7 is not a graph node")
        assert check_ruling_set(graph, {1, 7, "x"}, beta=1, independent=True) == expected
        assert check_ruling_set(graph, {"x", 7}, beta=2) == expected
        assert check_arbdefective_colored_ruling_set(
            graph, {1, 7}, {1: 1, 7: 1}, set(), alpha=0, colors=1, beta=1
        ) == expected
        assert check_ruling_set(nx.Graph(), {0}, beta=1, independent=True) == CheckResult(
            valid=False, reason="S member 0 is not a graph node"
        )

    def test_first_adjacent_pair_follows_str_order(self):
        graph = nx.Graph([(10, 11), (2, 11)])
        assert check_ruling_set(graph, {2, 10, 11}, beta=1, independent=True) == CheckResult(
            valid=False, reason="S contains adjacent nodes 10, 11"
        )


def _pairwise_check_ruling_set(graph, ruling_set, beta):
    """Reference for ``check_ruling_set(..., independent=True)``: Dijkstra
    (hop distance on these unweighted graphs) and a scan of every pair."""
    if not ruling_set:
        if graph.number_of_nodes() == 0:
            return CheckResult(valid=True)
        return CheckResult(valid=False, reason="empty ruling set on a non-empty graph")
    distances = nx.multi_source_dijkstra_path_length(graph, set(ruling_set))
    for node in graph.nodes:
        if distances.get(node, float("inf")) > beta:
            return CheckResult(
                valid=False, reason=f"node {node!r} is farther than β = {beta} from S"
            )
    members = sorted(ruling_set, key=str)
    for index, u in enumerate(members):
        for v in members[index + 1 :]:
            if graph.has_edge(u, v):
                return CheckResult(
                    valid=False, reason=f"S contains adjacent nodes {u!r}, {v!r}"
                )
    return CheckResult(valid=True)


def _with_isolated_nodes():
    graph = nx.path_graph(8)
    graph.add_nodes_from(range(8, 11))
    return graph


def _cycle_with_self_loops():
    graph = nx.cycle_graph(9)
    graph.add_edges_from((node, node) for node in range(9))
    return graph


_SHAPES = {
    "random-regular": lambda: nx.random_regular_graph(3, 24, seed=1),
    "path": lambda: nx.path_graph(15),
    "star": lambda: nx.star_graph(9),
    "disconnected": lambda: nx.disjoint_union(nx.cycle_graph(7), nx.path_graph(6)),
    "isolated-nodes": _with_isolated_nodes,
    "self-loops": _cycle_with_self_loops,
}

# Integer IDs ≥ 10 of mixed digit counts sort differently by str than by
# value, so a checker that sorted numerically would report another pair.
_LABELS = {
    "int-ge-10": lambda node: 10 + 37 * node,
    "str": lambda node: f"v{node}",
    "tuple": lambda node: (node % 3, node),
}


def _seeded_mis(graph, rng):
    order = list(graph.nodes)
    rng.shuffle(order)
    chosen, blocked = set(), set()
    for node in order:
        if node not in blocked:
            chosen.add(node)
            blocked.add(node)
            blocked.update(graph.neighbors(node))
    return chosen


def _node_set(network, members):
    """``members`` as an array-backed :class:`NodeSet` over ``network``."""
    index = network.index
    return NodeSet(network, np.array([index[v] for v in members], dtype=np.int64))


def _pair_set(network, matching):
    """``matching`` as an array-backed :class:`PairSet`, or ``None`` when
    an element is not two nodes of ``network``."""
    index = network.index
    rows = []
    for edge in matching:
        ends = tuple(edge)
        if len(ends) != 2 or not all(end in index for end in ends):
            return None
        rows.append([index[end] for end in ends])
    return PairSet(network, np.array(rows, dtype=np.int64).reshape(-1, 2))


def _simple_network(graph):
    """A :class:`Network` on ``graph``'s nodes and non-loop edges (LOCAL
    networks have no self-loops)."""
    simple = nx.Graph()
    simple.add_nodes_from(graph.nodes)
    simple.add_edges_from((u, v) for u, v in graph.edges if u != v)
    return Network(graph=simple)


class TestRulingSetReasonParity:
    @pytest.mark.parametrize("labels", sorted(_LABELS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_matches_pairwise_reference(self, shape, labels):
        graph = nx.relabel_nodes(_SHAPES[shape](), _LABELS[labels])
        # A Network reads the CSR; LOCAL networks have no self-loops.
        simple = nx.number_of_selfloops(graph) == 0
        network = Network(graph=graph) if simple else None
        for seed in range(3):
            rng = random.Random(seed)
            valid = _seeded_mis(graph, rng)
            planted = set(valid)
            for member in rng.sample(sorted(valid, key=str), min(3, len(valid))):
                planted.update(v for v in graph.neighbors(member) if v != member)
            uncovered = set(valid)
            uncovered.discard(rng.choice(sorted(valid, key=str)))
            for beta in (1, 2):
                for members in (valid, planted, uncovered):
                    expected = _pairwise_check_ruling_set(graph, members, beta)
                    assert check_ruling_set(
                        graph, members, beta, independent=True
                    ) == expected
                    if not simple:
                        continue
                    dense = _node_set(network, members)
                    assert _pairwise_check_ruling_set(graph, dense, beta) == expected
                    for target in (graph, network):
                        for solution in (members, dense):
                            assert check_ruling_set(
                                target, solution, beta, independent=True
                            ) == expected, (target, type(solution), beta)
            assert check_ruling_set(graph, valid, beta=1, independent=True)
            if planted != valid:
                assert "adjacent" in check_ruling_set(
                    graph, planted, beta=1, independent=True
                ).reason
            assert not check_ruling_set(graph, uncovered, beta=1, independent=True)
            if simple:
                assert check_ruling_set(
                    network, _node_set(network, valid), beta=1, independent=True
                )
                assert check_ruling_set(
                    network, uncovered, beta=1, independent=True
                ) == check_ruling_set(
                    graph, _node_set(network, uncovered), beta=1, independent=True
                )


def _networkx_check_x_maximal_y_matching(graph, matching, x, y, delta=None):
    """Reference for ``check_x_maximal_y_matching``: the networkx loop it
    replaced, statement for statement."""
    if delta is None:
        delta = max((graph.degree(v) for v in graph.nodes), default=0)
    for edge in matching:
        u, v = tuple(edge)
        if not graph.has_edge(u, v):
            return CheckResult(
                valid=False, reason=f"matching edge {(u, v)} is not a graph edge"
            )
    incidence = {node: 0 for node in graph.nodes}
    for edge in matching:
        for endpoint in edge:
            incidence[endpoint] += 1
    for node, count in incidence.items():
        if count > y:
            return CheckResult(
                valid=False, reason=f"node {node!r} is matched {count} > y = {y} times"
            )
    matched = {node for node, count in incidence.items() if count > 0}
    for node in graph.nodes:
        if node in matched:
            continue
        matched_neighbors = sum(
            1 for neighbor in graph.neighbors(node) if neighbor in matched
        )
        needed = min(graph.degree(node), delta - x)
        if matched_neighbors < needed:
            return CheckResult(
                valid=False,
                reason=f"unmatched node {node!r} has {matched_neighbors} matched "
                f"neighbors < min{{deg, Δ−x}} = {needed}",
            )
    return CheckResult(valid=True)


def _outcome(check, *args, **kwargs):
    """A check's result, or the type and text of what it raised."""
    try:
        return check(*args, **kwargs)
    except (TypeError, ValueError) as error:
        return type(error), str(error)


def _seeded_matching(graph, rng):
    edges = [(u, v) for u, v in graph.edges if u != v]
    rng.shuffle(edges)
    matched, matching = set(), set()
    for u, v in edges:
        if u not in matched and v not in matched:
            matching.add(frozenset((u, v)))
            matched.update((u, v))
    return matching


def _planted_matchings(graph, rng):
    """A valid maximal matching and violations planted into it."""
    valid = _seeded_matching(graph, rng)
    nodes = sorted(graph.nodes, key=str)
    non_edges = [
        frozenset((u, v))
        for u in nodes[:6]
        for v in nodes
        if u != v and not graph.has_edge(u, v)
    ][:2]
    over = set(valid)
    for u, v in sorted((e for e in graph.edges if e[0] != e[1]), key=str)[:3]:
        over.add(frozenset((u, v)))
    uncovered = set(valid)
    for edge in sorted(valid, key=lambda e: sorted(map(str, e)))[:2]:
        uncovered.discard(edge)
    return {
        "valid": valid,
        "non-edges": valid | set(non_edges),
        "over-matched": over,
        "uncovered": uncovered,
        "foreign": valid | {frozenset((nodes[0], "ghost"))},
        "one-element": valid | {frozenset((nodes[-1],))},
        "one-element-and-non-edge": valid | {frozenset((nodes[0],))} | set(non_edges),
        "empty": set(),
    }


class TestMatchingReasonParity:
    @pytest.mark.parametrize("labels", sorted(_LABELS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_matches_networkx_reference(self, shape, labels):
        graph = nx.relabel_nodes(_SHAPES[shape](), _LABELS[labels])
        # A Network reads the CSR; LOCAL networks have no self-loops.
        simple = nx.number_of_selfloops(graph) == 0
        network = Network(graph=graph) if simple else None
        for seed in range(3):
            for name, matching in _planted_matchings(graph, random.Random(seed)).items():
                dense = _pair_set(network, matching) if simple else None
                for x, y, delta in ((0, 1, None), (1, 1, None), (0, 2, 4), (2, 1, 3)):
                    expected = _outcome(
                        _networkx_check_x_maximal_y_matching, graph, matching, x, y, delta
                    )
                    assert _outcome(
                        check_x_maximal_y_matching, graph, matching, x, y, delta
                    ) == expected, (name, x, y, delta)
                    if simple:
                        assert _outcome(
                            check_x_maximal_y_matching, network, matching, x, y, delta
                        ) == expected, (name, x, y, delta)
                    if dense is None:
                        continue
                    # The set iterates in row order, so the first non-edge
                    # is the reference's on the PairSet itself.
                    expected = _outcome(
                        _networkx_check_x_maximal_y_matching, graph, dense, x, y, delta
                    )
                    for target in (graph, network):
                        assert _outcome(
                            check_x_maximal_y_matching, target, dense, x, y, delta
                        ) == expected, (name, x, y, delta, target)

    def test_valid_cover_matching_on_arrays(self):
        report = api.solve(
            "matching:delta=3,x=0,y=1", algorithm="matching:proposal", n=200, seed=4
        )
        network = api.family_network(
            api.ProblemSpec.parse("matching:delta=3,x=0,y=1"), n=200, seed=4
        )
        assert check_x_maximal_y_matching(network, report.outputs, x=0, y=1)
        assert network._graph is None


# The grid's labels plus the two shapes whose order and digits the array
# encoder computes by arithmetic: small ints from 0, (int, side) pairs.
_ENCODER_LABELS = {
    **_LABELS,
    "int-from-0": lambda node: node,
    "int-side": lambda node: (7 * node, node % 2),
}


def _report(outputs) -> SolveReport:
    return SolveReport(
        problem="p", family="f", algorithm="a", engine="", seed=0, n=0,
        rounds=0, outputs=outputs, check=None, messages_delivered=0,
        messages_dropped=0, peak_live_nodes=0,
    )


def _assert_same_encoding(plain, dense):
    expected = _report(plain).canonical_json()
    text = _report(dense).canonical_json()
    assert text == expected
    assert to_jsonable(dense) == to_jsonable(plain)
    assert SolveReport.from_record(json.loads(text)).canonical_json() == text


class TestArrayEncoderBytes:
    """A report holding an array-backed set serializes to the bytes of the
    same report holding the plain set."""

    @pytest.mark.parametrize("labels", sorted(_ENCODER_LABELS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_same_bytes_as_plain_sets(self, shape, labels):
        graph = nx.relabel_nodes(_SHAPES[shape](), _ENCODER_LABELS[labels])
        network = _simple_network(graph)
        for seed in range(2):
            rng = random.Random(seed)
            for members in (_seeded_mis(graph, rng), set(graph.nodes), set()):
                _assert_same_encoding(members, _node_set(network, members))
            for matching in _planted_matchings(graph, rng).values():
                dense = _pair_set(network, matching)
                if dense is not None:
                    _assert_same_encoding(matching, dense)

    def test_empty_outputs(self):
        network = Network(graph=nx.path_graph(2))
        for dense in (
            NodeSet(network, np.empty(0, dtype=np.int64)),
            PairSet(network, np.empty((0, 2), dtype=np.int64)),
        ):
            _assert_same_encoding(set(), dense)

    @pytest.mark.parametrize("n", [8, 64, 2048])
    @pytest.mark.parametrize(
        "problem,algorithm",
        [
            ("matching:delta=4,x=0,y=1", "matching:proposal"),
            ("maximal-matching:delta=3", "matching:proposal"),
            ("mis:delta=4", "mis:luby"),
            ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep"),
        ],
    )
    def test_default_networks(self, problem, algorithm, n):
        # Int and (int, side) labels, n across digit-count boundaries.
        report = api.solve(problem, algorithm=algorithm, engine="vectorized", n=n, seed=2)
        plain = set(report.outputs)
        _assert_same_encoding(plain, report.outputs)
        assert report.canonical_json() == replace(report, outputs=plain).canonical_json()

    def test_pairs_sharing_a_first_end(self):
        # "12" sorts before "1]": inside a pair list, a longer int whose
        # digits extend another's sorts first.
        graph = nx.star_graph([0, 1, 12, 123, 2, 20, 3])
        network = Network(graph=graph)
        star = {frozenset(edge) for edge in graph.edges}
        _assert_same_encoding(star, _pair_set(network, star))


class TestGreedyColoringOnCSR:
    @pytest.mark.parametrize("labels", sorted(_LABELS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_equals_networkx_loop(self, shape, labels):
        graph = nx.relabel_nodes(_SHAPES[shape](), _LABELS[labels])
        network = _simple_network(graph)
        coloring = greedy_coloring(network)
        assert coloring == greedy_coloring(network.graph)
        assert list(coloring) == list(network.nodes)
        assert greedy_coloring(network.with_random_ids(seed=3)) == coloring

    def test_default_network(self):
        network = api.family_network(
            api.ProblemSpec.parse("mis:delta=4"), n=500, seed=2
        )
        assert greedy_coloring(network) == greedy_coloring(network.graph)


class TestCheckerScale:
    def test_mis_check_is_linear_at_n_20000(self):
        graph = nx.random_regular_graph(4, 20_000, seed=0)
        independent_set = _seeded_mis(graph, random.Random(0))
        start = time.perf_counter()
        result = check_ruling_set(graph, independent_set, beta=1, independent=True)
        elapsed = time.perf_counter() - start
        assert result
        # A pairwise scan of S makes ~2·10⁷ has_edge calls here; the
        # linear pass makes ~10⁵ adjacency steps.
        assert elapsed < 0.5


class TestSinklessOrientationChecker:
    def test_cyclic_orientation(self):
        graph = cycle(4)
        orientation = {
            frozenset((i, (i + 1) % 4)): (i + 1) % 4 for i in range(4)
        }
        assert check_sinkless_orientation(graph, orientation)

    def test_sink_detected(self):
        graph = cycle(3)
        orientation = {
            frozenset((0, 1)): 0,
            frozenset((1, 2)): 1,
            frozenset((0, 2)): 0,
        }
        result = check_sinkless_orientation(graph, orientation)
        assert not result and "sink" in result.reason

    def test_unoriented_edge_detected(self):
        graph = cycle(3)
        result = check_sinkless_orientation(graph, {})
        assert not result and "unoriented" in result.reason


class TestFormalismSolutionCheckers:
    def test_bipartite_solution_checker(self):
        graph = mark_bipartition(cycle(4))
        problem = maximal_matching_problem(2)
        whites = [n for n, d in graph.nodes(data=True) if d["color"] == "white"]
        # Alternate M/O around the cycle so every node sees {M, O}.
        labeling = {}
        for white in whites:
            neighbors = sorted(graph.neighbors(white))
            labeling[frozenset((white, neighbors[0]))] = "M"
            labeling[frozenset((white, neighbors[1]))] = "O"
        result = check_bipartite_solution(graph, problem, labeling)
        assert bool(result) == all(
            sorted(
                labeling[frozenset((node, nb))] for nb in graph.neighbors(node)
            )
            == ["M", "O"]
            for node in graph.nodes
        )

    def test_unlabeled_edge_rejected(self):
        graph = mark_bipartition(cycle(4))
        problem = maximal_matching_problem(2)
        result = check_bipartite_solution(graph, problem, {})
        assert not result and "unlabeled" in result.reason

    def test_half_edge_checker_arity_guard(self):
        graph = cycle(4)
        problem = maximal_matching_problem(2).swap_sides()
        # swap_sides gives black arity 2? MM_2 black arity is 2 — use a
        # 3-arity problem to hit the guard instead.
        problem3 = pi_arbdefective(3, 2).swap_sides()
        labels = {}
        for u, v in graph.edges:
            labels[(u, v)] = "X"
            labels[(v, u)] = "X"
        result = check_half_edge_labeling(graph, problem3, labels)
        assert not result and "arity 2" in result.reason

    def test_half_edge_checker_accepts_all_x(self):
        graph = cycle(4)
        problem = pi_arbdefective(2, 1)
        labels = {}
        for u, v in graph.edges:
            labels[(u, v)] = "{1}"
            labels[(v, u)] = "X"
        # Node constraint: each node sees one {1} and one X — the white
        # constraint ℓ({1})^{Δ-0} X^0 = {1}{1} fails for mixed nodes, so
        # the checker must reject.
        result = check_half_edge_labeling(graph, problem, labels)
        assert not result
