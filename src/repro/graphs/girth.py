"""Exact girth computation for graphs and hypergraphs.

The lower-bound framework (Theorem B.2) trades rounds against girth:
min{2k, (g−4)/2}.  Girth certificates must therefore be exact; this module
computes them by BFS from every node (O(n·m)), which is fine at
verification scale.

Hypergraph girth follows the paper's Appendix B convention: half the girth
of the incidence graph.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import networkx as nx


def exact_girth(graph: nx.Graph) -> float:
    """The length of a shortest cycle; ``math.inf`` for forests.

    BFS from each node; a cross or back edge at depths (d_u, d_v) closes a
    cycle of length d_u + d_v + 1 through the root, which is minimal over
    all roots on a shortest cycle.
    """
    best = math.inf
    for root in graph.nodes:
        depth = {root: 0}
        frontier = [root]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in graph.neighbors(node):
                    if neighbor not in depth:
                        depth[neighbor] = depth[node] + 1
                        next_frontier.append(neighbor)
                    elif depth[neighbor] >= depth[node]:
                        # Cross edge (same layer) or sibling: cycle through
                        # the BFS tree of length ≤ depths + 1.
                        cycle_length = depth[node] + depth[neighbor] + 1
                        if cycle_length < best:
                            best = cycle_length
            # Early exit: deeper layers can only find longer cycles.
            if frontier and 2 * depth[frontier[0]] + 1 >= best:
                break
            frontier = next_frontier
    return best


def hypergraph_girth(incidence_graph: nx.Graph) -> float:
    """Girth of a hypergraph: half the girth of its incidence graph
    (Appendix B's convention)."""
    incidence_girth = exact_girth(incidence_graph)
    if math.isinf(incidence_girth):
        return math.inf
    return incidence_girth / 2
