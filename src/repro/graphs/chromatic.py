"""Chromatic numbers, exact and bounded.

§5's unsolvability argument runs: a lift solution would 2k-color the
support graph, but the support graph's chromatic number exceeds 2k —
contradiction.  Executing that argument on concrete graphs needs certified
chromatic lower bounds, provided here exactly (small n) via branch and
bound, plus the standard n/α(G) lower bound from independence.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from repro.graphs.independence import exact_independence_number

if TYPE_CHECKING:
    import networkx as nx


def exact_chromatic_number(graph: nx.Graph, node_limit: int = 48) -> int:
    """χ(G) by iterative-deepening backtracking (small graphs)."""
    if graph.number_of_nodes() > node_limit:
        raise ValueError(
            f"exact chromatic number capped at {node_limit} nodes; "
            f"got {graph.number_of_nodes()}"
        )
    if graph.number_of_nodes() == 0:
        return 0
    if graph.number_of_edges() == 0:
        return 1

    nodes = sorted(graph.nodes, key=lambda v: -graph.degree(v))
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes}

    def colorable(colors: int) -> bool:
        assignment: dict = {}

        def place(index: int) -> bool:
            if index == len(nodes):
                return True
            node = nodes[index]
            used = {assignment[n] for n in adjacency[node] if n in assignment}
            # Symmetry breaking: only try one fresh color.
            max_color = max(assignment.values(), default=-1)
            for color in range(min(max_color + 1, colors - 1) + 1):
                if color in used:
                    continue
                assignment[node] = color
                if place(index + 1):
                    return True
                del assignment[node]
            return False

        return place(0)

    lower = max_clique_lower_bound(graph)
    for colors in range(lower, graph.number_of_nodes() + 1):
        if colorable(colors):
            return colors
    raise AssertionError("n colors always suffice")  # pragma: no cover


def max_clique_lower_bound(graph: nx.Graph) -> int:
    """A greedy clique gives χ ≥ ω ≥ greedy value."""
    best = 1 if graph.number_of_nodes() else 0
    for node in graph.nodes:
        clique = {node}
        for neighbor in sorted(graph.neighbors(node), key=lambda v: -graph.degree(v)):
            if all(graph.has_edge(neighbor, member) for member in clique):
                clique.add(neighbor)
        best = max(best, len(clique))
    return best


def greedy_coloring(graph):
    """Greedy (Δ+1)-coloring by descending degree (an upper bound on χ).

    Nodes take the least color unused by their colored neighbors, in
    descending degree order, ties in node order.  ``graph`` is a
    networkx graph (returns a dict) or a
    :class:`~repro.local.network.Network`, whose CSR is read instead
    (returns a :class:`~repro.local.dense.NodeValues` with the same
    colors).
    """
    # A networkx graph exists only once networkx is loaded, so a solve
    # that never loaded it takes the CSR path without importing it.
    networkx = sys.modules.get("networkx")
    if networkx is None or not isinstance(graph, networkx.Graph):
        return _greedy_coloring_csr(graph)
    assignment: dict = {}
    for node in sorted(graph.nodes, key=lambda v: -graph.degree(v)):
        used = {
            assignment[n] for n in graph.neighbors(node) if n in assignment
        }
        color = 0
        while color in used:
            color += 1
        assignment[node] = color
    return assignment


def _greedy_coloring_csr(network):
    from repro.local.dense import NodeValues

    csr = network.csr
    bounds, dest = csr.indptr.tolist(), csr.dest.tolist()
    degrees = csr.degrees.tolist()
    colors = [-1] * len(degrees)
    for node in sorted(range(len(degrees)), key=degrees.__getitem__, reverse=True):
        used = {colors[neighbor] for neighbor in dest[bounds[node] : bounds[node + 1]]}
        color = 0
        while color in used:
            color += 1
        colors[node] = color
    return NodeValues(network, colors)


def chromatic_lower_bound_from_independence(
    graph: nx.Graph, node_limit: int = 64
) -> int:
    """χ(G) ≥ ⌈n / α(G)⌉ — the bound §6.2 extracts from Lemma 2.1."""
    n = graph.number_of_nodes()
    if n == 0:
        return 0
    alpha = exact_independence_number(graph, node_limit=node_limit)
    return math.ceil(n / alpha)
