"""Bipartite double covers (§4.2's construction).

The matching lower bound takes a Δ-regular high-girth graph from
Lemma 2.1's family and passes to its bipartite double cover to obtain a
(Δ,Δ)-biregular 2-colored support graph.  The double cover of G has nodes
(v, side) for side ∈ {0, 1} and edges {(u,0),(v,1)} for every edge
{u,v} ∈ G; it is bipartite, preserves regularity, and its girth is at
least that of G (odd cycles unroll to twice their length).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils import InvalidParameterError

if TYPE_CHECKING:
    import networkx as nx

WHITE = 0
BLACK = 1
#: The ``color`` attribute of each side, indexed by ``WHITE``/``BLACK``.
COLORS = ("white", "black")


def bipartite_double_cover(graph: nx.Graph) -> nx.Graph:
    """The tensor product G × K₂ with 2-coloring attributes.

    Node (v, 0) is white, (v, 1) is black; edges connect opposite sides
    only.  The ``color`` node attribute carries "white" / "black" so the
    result plugs directly into the bipartite solvers and the simulator.
    """
    import networkx as nx

    cover = nx.Graph()
    for node in graph.nodes:
        cover.add_node((node, WHITE), color=COLORS[WHITE])
        cover.add_node((node, BLACK), color=COLORS[BLACK])
    for u, v in graph.edges:
        cover.add_edge((u, WHITE), (v, BLACK))
        cover.add_edge((v, WHITE), (u, BLACK))
    return cover


def mark_bipartition(graph: nx.Graph) -> nx.Graph:
    """Add white/black ``color`` attributes to a bipartite graph in place.

    Uses the canonical 2-coloring of each connected component; raises
    :class:`InvalidParameterError` if the graph is not bipartite.
    """
    import networkx as nx

    try:
        coloring = nx.algorithms.bipartite.color(graph)
    except nx.NetworkXError:
        raise InvalidParameterError(
            "graph is not bipartite, so it has no white/black 2-coloring"
        ) from None
    for node, side in coloring.items():
        graph.nodes[node]["color"] = COLORS[side]
    return graph

