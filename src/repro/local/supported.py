"""Supported LOCAL instances and runners (paper §2).

An instance is a support graph G with IDs plus an input graph G′ ⊆ G.
Nodes know all of G (and all IDs) up front; they know which of their own
incident edges are in G′; T rounds of communication propagate those marks
T hops.  A T-round algorithm is therefore a function of the
:class:`~repro.local.views.SupportedView` of radius T.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.local.network import Network
from repro.local.simulator import RunResult
from repro.local.views import SupportedView, collect_supported_view
from repro.utils import SimulationError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class SupportedInstance:
    """A Supported LOCAL instance: (G with IDs, G′)."""

    network: Network
    input_edges: frozenset

    def __post_init__(self) -> None:
        for edge in self.input_edges:
            u, v = tuple(edge)
            if not self.network.graph.has_edge(u, v):
                raise SimulationError(
                    f"input edge {(u, v)} is not in the support graph"
                )

    @classmethod
    def from_graphs(
        cls, support: nx.Graph, input_graph: nx.Graph | Iterable
    ) -> "SupportedInstance":
        """Build from a support graph and an input subgraph (or edge list)."""
        import networkx as nx

        edges = (
            input_graph.edges if isinstance(input_graph, nx.Graph) else input_graph
        )
        return cls(
            network=Network(graph=support),
            input_edges=frozenset(frozenset(edge) for edge in edges),
        )

    @property
    def support(self) -> nx.Graph:
        return self.network.graph

    def input_graph(self) -> nx.Graph:
        """The input graph G′ as a standalone networkx graph."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.support.nodes)
        graph.add_edges_from(tuple(edge) for edge in self.input_edges)
        return graph

    @property
    def input_degree(self) -> int:
        """Δ′: the maximum degree of the input graph."""
        graph = self.input_graph()
        return max((graph.degree(v) for v in graph.nodes), default=0)

    def view(self, node, radius: int) -> SupportedView:
        return collect_supported_view(
            self.network, self.input_edges, node, radius
        )


def run_supported_view_algorithm(
    instance: SupportedInstance,
    radius: int,
    rule: Callable[[SupportedView], object],
) -> RunResult:
    """Run a T-round Supported LOCAL algorithm (view formulation)."""
    outputs = {
        node: rule(instance.view(node, radius))
        for node in instance.support.nodes
    }
    return RunResult(outputs=outputs, rounds=radius)
