"""Tests for the validity checkers, including failure injection."""

import random
import time

import networkx as nx
import pytest

from repro import api
from repro.checkers import (
    CheckResult,
    check_arbdefective_colored_ruling_set,
    check_arbdefective_coloring,
    check_bipartite_solution,
    check_half_edge_labeling,
    check_maximal_matching,
    check_mis,
    check_proper_coloring,
    check_ruling_set,
    check_sinkless_orientation,
    check_x_maximal_y_matching,
)
from repro.graphs import cage, cycle, mark_bipartition
from repro.local import Network
from repro.problems import maximal_matching_problem, pi_arbdefective


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
        assert not check_mis(graph, set())

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
        assert check_mis(graph, {1})

    def test_foreign_member_reported_first_in_str_order(self):
        graph = nx.path_graph(3)
        expected = CheckResult(valid=False, reason="S member 7 is not a graph node")
        assert check_mis(graph, {1, 7, "x"}) == expected
        assert check_ruling_set(graph, {"x", 7}, beta=2) == expected
        assert check_arbdefective_colored_ruling_set(
            graph, {1, 7}, {1: 1, 7: 1}, set(), alpha=0, colors=1, beta=1
        ) == expected
        assert check_mis(nx.Graph(), {0}) == CheckResult(
            valid=False, reason="S member 0 is not a graph node"
        )

    def test_first_adjacent_pair_follows_str_order(self):
        graph = nx.Graph([(10, 11), (2, 11)])
        assert check_mis(graph, {2, 10, 11}) == CheckResult(
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


class TestRulingSetReasonParity:
    @pytest.mark.parametrize("labels", sorted(_LABELS))
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_matches_pairwise_reference(self, shape, labels):
        graph = nx.relabel_nodes(_SHAPES[shape](), _LABELS[labels])
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
                    assert check_ruling_set(
                        graph, members, beta, independent=True
                    ) == _pairwise_check_ruling_set(graph, members, beta)
            assert check_mis(graph, valid)
            if planted != valid:
                assert "adjacent" in check_mis(graph, planted).reason
            assert not check_mis(graph, uncovered)


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

    def test_valid_cover_matching_on_arrays(self):
        report = api.solve(
            "matching:delta=3,x=0,y=1", algorithm="matching:proposal", n=200, seed=4
        )
        network = api.family_network(
            api.ProblemSpec.parse("matching:delta=3,x=0,y=1"), n=200, seed=4
        )
        assert check_x_maximal_y_matching(network, report.outputs, x=0, y=1)
        assert network._graph is None


class TestCheckerScale:
    def test_mis_check_is_linear_at_n_20000(self):
        graph = nx.random_regular_graph(4, 20_000, seed=0)
        independent_set = _seeded_mis(graph, random.Random(0))
        start = time.perf_counter()
        result = check_mis(graph, independent_set)
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
