"""Independence numbers, exact and certified-upper-bounded.

Lemma 2.1 ([Alo10]) supplies Δ-regular graphs with independence number at
most α·n·log Δ/Δ.  The §5/§6 unsolvability arguments only *consume* an
upper bound on the independence number (equivalently a lower bound on the
chromatic number, χ ≥ n/α(G)), so certified exact values at verification
scale suffice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


def exact_independence_number(graph: nx.Graph, node_limit: int = 64) -> int:
    """The size of a maximum independent set, by branch and bound.

    Guarded by ``node_limit`` — exact independence is NP-hard, but the
    certified substrates in this library stay small.
    """
    if graph.number_of_nodes() > node_limit:
        raise ValueError(
            f"exact independence capped at {node_limit} nodes; "
            f"got {graph.number_of_nodes()} (use greedy_independent_set)"
        )
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes}
    order = sorted(adjacency, key=lambda node: -len(adjacency[node]))

    best = 0

    def branch(candidates: set, size: int) -> None:
        nonlocal best
        if size + len(candidates) <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        # Pick the highest-degree candidate: branch on including/excluding.
        node = max(candidates, key=lambda v: len(adjacency[v] & candidates))
        without = set(candidates)
        without.discard(node)
        branch(without - adjacency[node], size + 1)
        branch(without, size)

    branch(set(order), 0)
    return best


def greedy_independent_set(graph: nx.Graph) -> set:
    """A maximal independent set by min-degree greedy (a lower bound)."""
    remaining = {node: set(graph.neighbors(node)) for node in graph.nodes}
    chosen: set = set()
    while remaining:
        node = min(remaining, key=lambda v: len(remaining[v]))
        chosen.add(node)
        dropped = {node} | remaining[node]
        for gone in dropped:
            remaining.pop(gone, None)
        for neighbors in remaining.values():
            neighbors -= dropped
    return chosen


def is_independent_set(graph: nx.Graph, nodes: set) -> bool:
    """Validity check used by tests and checkers."""
    node_list = list(nodes)
    for index, node in enumerate(node_list):
        for other in node_list[index + 1 :]:
            if graph.has_edge(node, other):
                return False
    return True


