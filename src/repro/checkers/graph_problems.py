"""Validity checkers for the concrete graph problems of the paper.

Each checker takes a graph and a candidate solution and returns a
:class:`CheckResult` naming the first violation, so failed experiments are
diagnosable.  Definitions follow the paper: x-maximal y-matching (§1.1),
α-arbdefective c-coloring (§5), α-arbdefective c-colored β-ruling set
(§6.1), MIS, sinkless orientation, proper coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.local.dense import NodeSet, PairSet, sorted_distinct
from repro.local.network import Network, VectorNetwork

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a validity check."""

    valid: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid


def _ok() -> CheckResult:
    return CheckResult(valid=True)


def _fail(reason: str) -> CheckResult:
    return CheckResult(valid=False, reason=reason)


def _half_edges(graph: nx.Graph | Network) -> tuple:
    """``(nodes, index_of, indptr, owner, dest, rank)``: the nodes in
    graph order, a function returning node → dense index, both directions
    of every edge grouped by owner (a CSR; a self-loop counts twice, as in
    networkx degrees), and the rank that orders each CSR row (a
    :class:`Network`'s ID rank; dense order for a bare graph)."""
    if isinstance(graph, Network):
        csr = graph.csr
        return (
            graph.nodes, lambda: graph.index, csr.indptr, csr.owner, csr.dest,
            graph.id_rank,
        )
    nodes = tuple(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    ends = np.fromiter(
        (index[end] for edge in graph.edges for end in edge),
        dtype=np.int64,
        count=2 * graph.number_of_edges(),
    ).reshape(-1, 2)
    rank = np.arange(len(nodes))
    csr = VectorNetwork.from_edges(nodes, ends, rank)
    return nodes, lambda: index, csr.indptr, csr.owner, csr.dest, rank


def _contains_sorted(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Which of ``wanted`` occur in the sorted array ``keys``."""
    if not keys.shape[0]:
        return np.zeros(wanted.shape[0], dtype=bool)
    at = np.minimum(np.searchsorted(keys, wanted), keys.shape[0] - 1)
    return keys[at] == wanted


def _row_slots(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The half-edges of CSR ``rows``, row after row."""
    counts = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(counts)
    return np.repeat(indptr[rows] - (ends - counts), counts) + np.arange(
        ends[-1] if ends.shape[0] else 0
    )


def check_x_maximal_y_matching(
    graph: nx.Graph | Network,
    matching: set[frozenset],
    x: int,
    y: int,
    delta: int | None = None,
) -> CheckResult:
    """x-maximal y-matching (paper §1.1).

    Every node is incident to ≤ y matching edges; every unmatched node v
    has ≥ min{deg(v), Δ−x} matched neighbors.  Δ defaults to the graph's
    maximum degree.  One O(n + m) array pass over a graph or a
    :class:`Network`'s CSR that reports the first violation in a fixed
    order: ``matching`` order for non-edges, graph node order for the
    rest.  A :class:`PairSet` over the same nodes is read as its index
    pairs; any other matching is converted once.
    """
    nodes, index_of, indptr, owner, dest, rank = _half_edges(graph)
    n = len(nodes)
    degree = np.diff(indptr)
    if delta is None:
        delta = int(degree.max(initial=0))
    pairs, malformed = None, None
    if isinstance(matching, PairSet) and matching.over(nodes):
        ends = matching.pairs
    else:
        pairs = []
        for edge in matching:
            try:
                u, v = tuple(edge)
            except (TypeError, ValueError) as error:
                # Raised as a scan edge by edge would: after any earlier
                # non-edge is reported.
                malformed = error
                break
            pairs.append((u, v))
        index = index_of()
        ends = np.array(
            [[index.get(u, -1), index.get(v, -1)] for u, v in pairs], dtype=np.int64
        ).reshape(-1, 2)
    # Directed keys owner·n + rank: each CSR row is in rank order, so the
    # keys come sorted.
    keys = owner * n + rank[dest]
    known = (ends >= 0).all(axis=1)
    is_edge = known.copy()
    is_edge[known] = _contains_sorted(keys, ends[known, 0] * n + rank[ends[known, 1]])
    if not is_edge.all():
        first = int(np.argmin(is_edge))
        if pairs is None:
            a, b = ends[first].tolist()
            u, v = tuple(frozenset((nodes[a], nodes[b])))
        else:
            u, v = pairs[first]
        return _fail(f"matching edge {(u, v)} is not a graph edge")
    if malformed is not None:
        raise malformed
    incidence = np.bincount(ends.ravel(), minlength=n)
    over = np.flatnonzero(incidence > y)
    if over.size:
        node = over[0]
        return _fail(
            f"node {nodes[node]!r} is matched {incidence[node]} > y = {y} times"
        )
    matched = incidence > 0
    matched_neighbors = np.bincount(owner[matched[dest]], minlength=n)
    needed = np.minimum(degree, delta - x)
    short = np.flatnonzero(~matched & (matched_neighbors < needed))
    if short.size:
        node = short[0]
        return _fail(
            f"unmatched node {nodes[node]!r} has {matched_neighbors[node]} "
            f"matched neighbors < min{{deg, Δ−x}} = {needed[node]}"
        )
    return _ok()


def check_maximal_matching(graph: nx.Graph, matching: set[frozenset]) -> CheckResult:
    """Maximal matching = 0-maximal 1-matching."""
    return check_x_maximal_y_matching(graph, matching, x=0, y=1)


def check_proper_coloring(graph: nx.Graph, color_of: dict) -> CheckResult:
    """Every node colored; no monochromatic edge."""
    for node in graph.nodes:
        if node not in color_of:
            return _fail(f"node {node!r} has no color")
    for u, v in graph.edges:
        if color_of[u] == color_of[v]:
            return _fail(f"edge {(u, v)} is monochromatic (color {color_of[u]})")
    return _ok()


def check_arbdefective_coloring(
    graph: nx.Graph,
    color_of: dict,
    orientation: set[tuple],
    alpha: int,
    colors: int,
) -> CheckResult:
    """α-arbdefective c-coloring (paper §5).

    Colors in {1..c}; every monochromatic edge is oriented; outdegree ≤ α.
    """
    for node in graph.nodes:
        color = color_of.get(node)
        if color is None:
            return _fail(f"node {node!r} has no color")
        if not 1 <= color <= colors:
            return _fail(f"node {node!r} has color {color} outside 1..{colors}")
    oriented_pairs = set(orientation)
    oriented_edges = {frozenset(pair) for pair in oriented_pairs}
    for tail, head in oriented_pairs:
        if not graph.has_edge(tail, head):
            return _fail(f"oriented pair {(tail, head)} is not an edge")
        if color_of[tail] != color_of[head]:
            return _fail(f"oriented pair {(tail, head)} is not monochromatic")
    for u, v in graph.edges:
        if color_of[u] == color_of[v] and frozenset((u, v)) not in oriented_edges:
            return _fail(f"monochromatic edge {(u, v)} is unoriented")
    outdegree: dict = {node: 0 for node in graph.nodes}
    for tail, _head in oriented_pairs:
        outdegree[tail] += 1
    for node, count in outdegree.items():
        if count > alpha:
            return _fail(f"node {node!r} has outdegree {count} > α = {alpha}")
    return _ok()


def hop_distances(graph: nx.Graph, sources) -> dict:
    """Multi-source BFS: the hop distance from the nearest of ``sources``
    to every node reachable from them, keyed in discovery order.

    Edge attributes are ignored, so a ``weight`` never stretches a hop.
    Raises :class:`networkx.NodeNotFound` for a source outside the graph.
    """
    import networkx as nx

    distances = {}
    for source in sources:
        if source not in graph:
            raise nx.NodeNotFound(f"Node {source} not found in graph")
        distances[source] = 0
    frontier = list(distances)
    hops = 0
    while frontier:
        hops += 1
        reached = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = hops
                    reached.append(neighbor)
        frontier = reached
    return distances


def check_ruling_set(
    graph: nx.Graph | Network, ruling_set: set, beta: int, independent: bool = False
) -> CheckResult:
    """β-domination: every node has an S-member within β hops.

    With ``independent=True`` additionally checks S is independent (the
    (2,β)-ruling set condition).  One O(n + m) array pass over a graph or
    a :class:`Network`'s CSR (a frontier-array BFS for domination) that
    reports the first violation in a fixed order: ``str``-sorted S for
    members outside the graph and for adjacent members, graph node order
    for coverage.  Self-loops do not break independence.  A
    :class:`NodeSet` over the same nodes is read as its member indices;
    any other set is converted once."""
    nodes, index_of, indptr, owner, dest, _rank = _half_edges(graph)
    n = len(nodes)
    if not ruling_set:
        if n == 0:
            return _ok()
        return _fail("empty ruling set on a non-empty graph")
    if isinstance(ruling_set, NodeSet) and ruling_set.over(nodes):
        members, elements = ruling_set.members, None
    else:
        index = index_of()
        members, elements, foreign = [], [], []
        for node in ruling_set:
            i = index.get(node)
            if i is None:
                foreign.append(node)
            else:
                members.append(i)
                elements.append(node)
        if foreign:
            return _fail(f"S member {min(foreign, key=str)!r} is not a graph node")
        members = np.array(members, dtype=np.int64)
    within = np.zeros(n, dtype=bool)
    frontier, hops = members, 0
    if beta >= 0:
        within[members] = True
    while frontier.shape[0] and hops + 1 <= beta:
        hops += 1
        around = dest[_row_slots(indptr, frontier)]
        frontier = sorted_distinct(around[~within[around]])
        within[frontier] = True
    far = np.flatnonzero(~within)
    if far.size:
        return _fail(f"node {nodes[far[0]]!r} is farther than β = {beta} from S")
    if independent:
        in_s = np.zeros(n, dtype=bool)
        in_s[members] = True
        clash = in_s[owner] & in_s[dest] & (owner != dest)
        if clash.any():
            return _first_adjacent_pair(
                nodes, members, elements, owner[clash], dest[clash]
            )
    return _ok()


def _first_adjacent_pair(nodes, members, elements, tails, heads) -> CheckResult:
    """The adjacent pair (u, v) of S, u before v, that comes first when S
    is sorted by ``str`` (stably, in S's iteration order): the reason is
    part of canonical records.  ``tails``/``heads`` are the half-edges
    joining two members; only their ends are sorted."""
    if elements is None:
        elements = [nodes[i] for i in members.tolist()]
    touching = np.zeros(len(nodes), dtype=bool)
    touching[tails] = True
    involved = [
        (i, element)
        for i, element in zip(members.tolist(), elements)
        if touching[i]
    ]
    involved.sort(key=lambda item: str(item[1]))
    position = np.full(len(nodes), len(involved), dtype=np.int64)
    position[[i for i, _ in involved]] = np.arange(len(involved))
    first, second = position[tails], position[heads]
    forward = first < second
    pair = np.argmin(first[forward] * len(involved) + second[forward])
    u = involved[first[forward][pair]][1]
    v = involved[second[forward][pair]][1]
    return _fail(f"S contains adjacent nodes {u!r}, {v!r}")


def check_arbdefective_colored_ruling_set(
    graph: nx.Graph,
    ruling_set: set,
    color_of: dict,
    orientation: set[tuple],
    alpha: int,
    colors: int,
    beta: int,
) -> CheckResult:
    """α-arbdefective c-colored β-ruling set (paper §6.1)."""
    domination = check_ruling_set(graph, ruling_set, beta)
    if not domination:
        return domination
    induced = graph.subgraph(ruling_set)
    coloring = check_arbdefective_coloring(
        induced, {v: color_of[v] for v in ruling_set}, orientation, alpha, colors
    )
    if not coloring:
        return _fail(f"induced coloring invalid: {coloring.reason}")
    return _ok()


def check_sinkless_orientation(
    graph: nx.Graph, orientation: dict[frozenset, object]
) -> CheckResult:
    """Every edge oriented (orientation[edge] = head); no node is a sink.

    Nodes of degree < Δ are exempt in some formulations; here every node
    with degree ≥ 1 must have an outgoing edge, matching the white
    constraint of the SO encoding on regular graphs.
    """
    for edge in graph.edges:
        key = frozenset(edge)
        if key not in orientation:
            return _fail(f"edge {tuple(edge)} is unoriented")
        if orientation[key] not in key:
            return _fail(f"head of {tuple(edge)} is not an endpoint")
    for node in graph.nodes:
        if graph.degree(node) == 0:
            continue
        has_outgoing = any(
            orientation[frozenset((node, neighbor))] != node
            for neighbor in graph.neighbors(node)
        )
        if not has_outgoing:
            return _fail(f"node {node!r} is a sink")
    return _ok()
