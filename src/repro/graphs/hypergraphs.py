"""Hypergraphs and incidence graphs (paper §2, Corollaries 3.3/3.5/B.3).

Non-bipartitely solving a problem on a hypergraph G means bipartitely
solving it on the incidence graph of G: nodes become white nodes,
hyperedges black nodes, with an incidence edge when the node belongs to
the hyperedge.  Ordinary graphs are rank-2 hypergraphs, which is how the
§5/§6 results (black arity 2) run on Δ-regular support graphs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils import GraphConstructionError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Hypergraph:
    """An immutable hypergraph: nodes plus a tuple of hyperedges."""

    nodes: tuple
    edges: tuple[frozenset, ...]

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        for edge in self.edges:
            if not edge:
                raise GraphConstructionError("hyperedges must be non-empty")
            stray = set(edge) - node_set
            if stray:
                raise GraphConstructionError(
                    f"hyperedge {sorted(edge, key=str)} uses unknown nodes {stray}"
                )

    @classmethod
    def from_edges(cls, edges: Iterable[Iterable]) -> "Hypergraph":
        """Build with the node set inferred from the edges."""
        frozen = tuple(frozenset(edge) for edge in edges)
        nodes = tuple(sorted({node for edge in frozen for node in edge}, key=str))
        return cls(nodes=nodes, edges=frozen)

    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "Hypergraph":
        """View an ordinary graph as a rank-2 hypergraph."""
        return cls(
            nodes=tuple(sorted(graph.nodes, key=str)),
            edges=tuple(frozenset(edge) for edge in graph.edges),
        )

    @property
    def rank(self) -> int:
        """Maximum hyperedge size (the paper's r)."""
        return max((len(edge) for edge in self.edges), default=0)

    def degree(self, node) -> int:
        """Number of hyperedges containing ``node``."""
        return sum(1 for edge in self.edges if node in edge)

    @property
    def max_degree(self) -> int:
        """The paper's Δ."""
        return max((self.degree(node) for node in self.nodes), default=0)

    def is_regular(self, degree: int) -> bool:
        return all(self.degree(node) == degree for node in self.nodes)

    def is_linear(self) -> bool:
        """Linear: every pair of hyperedges shares at most one node."""
        for index, first in enumerate(self.edges):
            for second in self.edges[index + 1 :]:
                if len(first & second) > 1:
                    return False
        return True

    def incidence_graph(self) -> nx.Graph:
        """The 2-colored incidence graph (white = nodes, black = edges).

        Hyperedge i becomes the black node ("edge", i); original nodes keep
        their identity and become white.
        """
        import networkx as nx

        graph = nx.Graph()
        for node in self.nodes:
            graph.add_node(node, color="white")
        for index, edge in enumerate(self.edges):
            edge_node = ("edge", index)
            graph.add_node(edge_node, color="black")
            for node in edge:
                graph.add_edge(node, edge_node)
        return graph

    def girth(self) -> float:
        """Half the incidence graph girth (Appendix B's convention)."""
        from repro.graphs.girth import hypergraph_girth

        return hypergraph_girth(self.incidence_graph())


def linear_uniform_hypergraph(
    n: int, degree: int, rank: int, seed: int = 0, attempts: int = 300
) -> Hypergraph:
    """Search for a Δ-regular r-uniform *linear* hypergraph on n nodes.

    Used by Corollary 3.5-style experiments at small scale; raises when no
    certified instance is found within the budget.
    """
    import random

    if (n * degree) % rank != 0:
        raise GraphConstructionError(
            f"need r | n·Δ for a Δ-regular r-uniform hypergraph "
            f"(n={n}, Δ={degree}, r={rank})"
        )
    edge_count = n * degree // rank
    rng = random.Random(seed)
    nodes = list(range(n))
    for _attempt in range(attempts):
        stubs = [node for node in nodes for _ in range(degree)]
        rng.shuffle(stubs)
        edges = [
            frozenset(stubs[i * rank : (i + 1) * rank]) for i in range(edge_count)
        ]
        if any(len(edge) != rank for edge in edges):
            continue  # a repeated node collapsed a hyperedge
        candidate = Hypergraph(nodes=tuple(nodes), edges=tuple(edges))
        if candidate.is_linear():
            return candidate
    raise GraphConstructionError(
        f"no linear {degree}-regular {rank}-uniform hypergraph on {n} nodes "
        f"found in {attempts} attempts (seed {seed})"
    )
