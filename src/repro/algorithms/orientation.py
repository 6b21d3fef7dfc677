"""Sinkless orientation (the [BFH+16] / [BKK+23] benchmark problem).

In the Supported LOCAL model with Δ′ = Δ (input graph = support graph),
sinkless orientation is *0 rounds*: every node knows G, computes the same
global orientation, and outputs its incident part.  The construction:
orient one cycle per component cyclically, then orient every other edge
along a BFS-to-cycle parent pointer; every node gains an outgoing edge
provided its component contains a cycle (min degree ≥ 2 suffices).

This contrasts with the lift-based *lower* bound for Δ′ < Δ (the
experiments show lift_{Δ,2}(SO_{Δ′}) is unsolvable on high-girth graphs),
reproducing the [BKK+23] separation inside our general framework.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.utils import GraphConstructionError

if TYPE_CHECKING:
    import networkx as nx


def global_sinkless_orientation(graph: nx.Graph) -> dict[frozenset, object]:
    """A sinkless orientation computed from global knowledge (0 rounds).

    Returns {edge: head}.  Raises when some component is a tree (no
    sinkless orientation exists there).
    """
    import networkx as nx

    orientation: dict[frozenset, object] = {}
    for component in nx.connected_components(graph):
        subgraph = graph.subgraph(component)
        if subgraph.number_of_edges() < subgraph.number_of_nodes():
            raise GraphConstructionError(
                "a tree component admits no sinkless orientation"
            )
        cycle_edges = nx.find_cycle(subgraph)
        cycle_nodes: list = [edge[0] for edge in cycle_edges]
        # Orient the cycle cyclically.
        for u, v in cycle_edges:
            orientation[frozenset((u, v))] = v
        # BFS from the cycle; each non-cycle node orients its parent edge
        # towards the cycle (its outgoing edge).
        parents: dict = {}
        frontier = list(cycle_nodes)
        seen = set(cycle_nodes)
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in subgraph.neighbors(node):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        parents[neighbor] = node
                        next_frontier.append(neighbor)
            frontier = next_frontier
        for child, parent in parents.items():
            orientation[frozenset((child, parent))] = parent
        # Remaining edges: orient arbitrarily (both endpoints already have
        # an outgoing edge).
        for u, v in subgraph.edges:
            orientation.setdefault(frozenset((u, v)), v)
    return orientation


class _OrientationNode(NodeAlgorithm):
    """Halts at init with the precomputed outgoing ports: zero rounds."""

    def init(self) -> None:
        self.halt(self.ctx.extra["out_ports"])


class GlobalSinklessOrientation(Algorithm):
    """``"sinkless-orientation:global"`` — the 0-round Supported LOCAL SO.

    Every node knows G, computes the same global orientation, and outputs
    its incident part (the ports of its outgoing edges); the accounted
    round complexity is zero — every node halts at init, so the engine
    loop never runs.
    """

    name = "sinkless-orientation:global"
    families = ("sinkless-orientation",)
    description = "0-round sinkless orientation from global knowledge of G"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        orientation = global_sinkless_orientation(network.graph)
        out_ports: dict = {node: [] for node in network.graph.nodes}
        for edge, head in orientation.items():
            (tail,) = (node for node in edge if node != head)
            out_ports[tail].append(network.port_to(tail, head))
        for ports in out_ports.values():
            ports.sort()
        return MessagePassingProgram(
            factory=_OrientationNode,
            kernel="sinkless-orientation:global",
            per_node={"out_ports": out_ports},
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: dict
    ) -> dict:
        orientation: dict[frozenset, object] = {}
        for node, ports in outputs.items():
            for port in ports:
                neighbor = network.via_port(node, port)
                orientation[frozenset((node, neighbor))] = neighbor
        return orientation


register_algorithm(GlobalSinklessOrientation())
