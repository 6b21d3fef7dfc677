"""Networks: graphs with identifiers and port numbers (paper §2).

In the LOCAL model each node has a unique ID from {1..n^c} and knows its
degree, Δ and n; edges at a node are addressed by ports 1..deg(v).  The
:class:`Network` wrapper fixes deterministic IDs/ports over a networkx
graph so simulations are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import networkx as nx

from repro.utils import SimulationError


@dataclass
class Network:
    """A communication network with IDs and port numbering."""

    graph: nx.Graph
    ids: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.ids:
            # Canonical IDs 1..n in sorted node order.
            self.ids = {
                node: index + 1
                for index, node in enumerate(sorted(self.graph.nodes, key=str))
            }
        if len(set(self.ids.values())) != self.graph.number_of_nodes():
            raise SimulationError("node IDs must be unique")
        self._ports = {
            node: {
                port + 1: neighbor
                for port, neighbor in enumerate(
                    sorted(self.graph.neighbors(node), key=lambda v: self.ids[v])
                )
            }
            for node in self.graph.nodes
        }
        self._port_of = {
            node: {neighbor: port for port, neighbor in ports.items()}
            for node, ports in self._ports.items()
        }
        # Cached at construction: the wrapper already freezes IDs/ports
        # here, so the graph's structure must not change afterwards —
        # and engines read Δ once per node, which must not cost O(n²).
        self._max_degree = max(
            (self.graph.degree(v) for v in self.graph.nodes), default=0
        )

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def neighbors(self, node) -> list:
        """Neighbors in port order (each port map is built in that order)."""
        return list(self._ports[node].values())

    def port_to(self, node, neighbor) -> int:
        """The port of ``node`` leading to ``neighbor``."""
        return self._port_of[node][neighbor]

    def via_port(self, node, port: int):
        """The neighbor behind ``port`` at ``node``."""
        return self._ports[node][port]

    def with_random_ids(self, seed: int, id_space_exponent: int = 3) -> "Network":
        """A copy with random distinct IDs from {1..n^c} (adversarial IDs)."""
        rng = random.Random(seed)
        space = self.n**id_space_exponent
        values = rng.sample(range(1, space + 1), self.n)
        nodes = sorted(self.graph.nodes, key=str)
        return Network(graph=self.graph, ids=dict(zip(nodes, values)))

    def renormalized_ids(self) -> dict:
        """IDs recomputed to {1..n} preserving order.

        §3 notes that in Supported LOCAL the ID space is w.l.o.g. {1..n}:
        all nodes know G, so they can renormalize without communication.
        """
        ordered = sorted(self.ids.items(), key=lambda item: item[1])
        return {node: index + 1 for index, (node, _value) in enumerate(ordered)}
