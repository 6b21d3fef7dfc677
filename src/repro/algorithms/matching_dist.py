"""Proposal-based bipartite maximal matching — the O(Δ′) upper bound.

Theorem 4.1's lower bound Ω(min{(Δ′−x)/y, log_Δ n}) is matched (for
maximal matching, x = 0, y = 1) by the classic proposal algorithm on
2-colored graphs: in phase i every still-unmatched white node proposes to
its next eligible input neighbor; every unmatched black node accepts one
proposal.  Δ′ phases of two rounds each suffice (a white node has ≤ Δ′
input neighbors to try), and Δ′ is part of the model's initial knowledge,
so every node can run exactly 2Δ′ rounds and halt — round complexity
2Δ′ = O(Δ′), which the experiments measure against the lower bound.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.graphs.double_cover import mark_bipartition
from repro.local.dense import PairSet, dense_values, raw_values
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.local.vectorized import matched_output
from repro.utils import InvalidParameterError, SimulationError


class _ProposalNode(NodeAlgorithm):
    """One node of the proposal algorithm.

    Each phase is two engine rounds: whites propose (round A), blacks
    answer (round B).  ``self.round`` counts engine rounds; parity selects
    the role.
    """

    def init(self) -> None:
        self.color = self.ctx.extra["color"]
        # Absent when G′ = G: every port leads into the input graph.
        self.input_ports = self.ctx.extra.get("input_ports", self.ctx.ports)
        self.total_phases = self.ctx.extra["delta_prime"]
        self.round = 0
        self.matched_port: int | None = None
        self.next_index = 0
        self.pending_accept: int | None = None
        if self.total_phases == 0:
            self.halt({"matched": None})

    def send(self) -> dict[int, object]:
        proposing_round = self.round % 2 == 0
        if proposing_round and self.color == "white":
            if self.matched_port is None and self.next_index < len(self.input_ports):
                return {self.input_ports[self.next_index]: "propose"}
        if not proposing_round and self.color == "black":
            if self.pending_accept is not None:
                port, self.pending_accept = self.pending_accept, None
                return {port: "accept"}
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        proposing_round = self.round % 2 == 0
        if proposing_round and self.color == "black":
            proposals = sorted(
                port for port, text in messages.items() if text == "propose"
            )
            if self.matched_port is None and proposals:
                self.matched_port = proposals[0]
                self.pending_accept = proposals[0]
        if not proposing_round and self.color == "white":
            accepted = [port for port, text in messages.items() if text == "accept"]
            if accepted:
                self.matched_port = accepted[0]
            elif self.matched_port is None:
                self.next_index += 1
        self.round += 1
        if self.round >= 2 * self.total_phases:
            self.halt({"matched": self.matched_port})


def input_ports(network: Network, input_edges) -> dict:
    """Each node's sorted ports into the input graph G′ = ``input_edges``.

    The model requires G′ ⊆ G: an input edge that is not an edge of the
    support graph — unhashable endpoints included — raises
    :class:`InvalidParameterError` naming the first such edge in ``str``
    order.
    """
    support = network.graph
    ports: dict = {node: set() for node in support.nodes}
    foreign = []
    for edge in input_edges:
        try:
            u, v = edge
            inside = support.has_edge(u, v)
        except (TypeError, ValueError):
            inside = False
        if not inside:
            foreign.append(edge)
            continue
        ports[u].add(network.port_to(u, v))
        ports[v].add(network.port_to(v, u))
    if foreign:
        raise InvalidParameterError(
            f"input edge {min(foreign, key=str)!r} is not an edge of the "
            f"support graph (the model requires G′ ⊆ G)"
        )
    return {node: sorted(node_ports) for node, node_ports in ports.items()}


def matching_from_outputs(network: Network, outputs: Mapping) -> PairSet:
    """Decode ``{"matched": port}`` node outputs into the matching, a
    :class:`PairSet` of (white, black) index pairs (white outputs are
    authoritative; black outputs mirror them).

    Port ``p`` of dense node ``i`` is half-edge ``indptr[i] + p - 1`` of
    the network's CSR, whichever engine produced the outputs; the
    vectorized engine's ports are read from its array, and any other
    outputs are first turned into that array (−1: unmatched)."""
    csr = network.csr
    nodes = csr.nodes
    white = dense_values(network.node_colors(), nodes) == "white"
    ports = raw_values(outputs, nodes, matched_output)
    if ports is None:
        ports = np.array(
            [
                -1 if (port := outputs[node].get("matched")) is None else port
                for node in nodes
            ],
            dtype=np.int64,
        )
    rows = np.flatnonzero(white & (ports != -1))
    ports = ports[rows]
    stray = np.flatnonzero((ports < 1) | (ports > csr.degrees[rows]))
    if stray.size:
        first = stray[0]
        raise SimulationError(
            f"node {nodes[rows[first]]!r} has no port {ports[first]}"
        )
    partners = csr.dest[csr.indptr[rows] + ports - 1]
    return PairSet(network, np.column_stack((rows, partners)))


class ProposalMatching(Algorithm):
    """``"matching:proposal"`` — the proposal algorithm behind the façade.

    Runs on any 2-colored support graph (uncolored bipartite graphs are
    2-colored in place).  Option ``input_edges`` restricts the matching
    to an input subgraph G′ ⊆ G; the default is G′ = G, where Δ′ is the
    network's Δ and no node is told its input ports.  A maximal matching
    is x-maximal and y-bounded for every x ≥ 0, y ≥ 1, so the whole
    Π_Δ(x,y) family is declared compatible.
    """

    name = "matching:proposal"
    families = ("matching", "maximal-matching")
    options = ("input_edges",)
    description = "O(Δ') proposal matching on 2-colored support graphs"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        color = network.node_colors()
        if color is None:
            mark_bipartition(network.graph)
            color = network.node_colors()
        per_node = {"color": color}
        input_edges = options.get("input_edges")
        if input_edges is None:
            delta_prime = network.max_degree
        else:
            ports = per_node["input_ports"] = input_ports(network, input_edges)
            delta_prime = max(map(len, ports.values()), default=0)
        return MessagePassingProgram(
            factory=_ProposalNode,
            kernel="matching:proposal",
            per_node=per_node,
            shared={"delta_prime": delta_prime},
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: Mapping
    ) -> PairSet:
        return matching_from_outputs(network, outputs)


register_algorithm(ProposalMatching())
