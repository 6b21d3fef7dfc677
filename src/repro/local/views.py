"""Radius-T views — the information a node holds after T rounds.

A T-round LOCAL algorithm is equivalently a function of the node's
radius-T view: the subgraph induced by nodes within distance T, their IDs
and their inputs.  In the Supported LOCAL model the view additionally
contains the *entire* support graph, while input-graph membership marks
are still only known within radius T (marks are initial knowledge of the
endpoints, so T rounds propagate them T hops).

Views raise :class:`LocalityViolationError` on out-of-radius queries, so
algorithm implementations cannot accidentally cheat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.local.network import Network
from repro.utils import LocalityViolationError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class LocalView:
    """What a node sees after T rounds in the plain LOCAL model."""

    center: object
    radius: int
    subgraph: nx.Graph
    ids: dict
    n: int
    max_degree: int

    def id_of(self, node) -> int:
        if node not in self.subgraph:
            raise LocalityViolationError(
                f"{node!r} is outside the radius-{self.radius} view of "
                f"{self.center!r}"
            )
        return self.ids[node]

    def neighbors(self, node) -> list:
        if node not in self.subgraph:
            raise LocalityViolationError(
                f"{node!r} is outside the radius-{self.radius} view of "
                f"{self.center!r}"
            )
        return sorted(self.subgraph.neighbors(node), key=lambda v: self.ids[v])


def collect_view(network: Network, node, radius: int) -> LocalView:
    """Build the radius-``radius`` view of ``node``.

    The subgraph is induced by nodes within distance ``radius``; edges
    between two depth-``radius`` nodes are visible (their endpoints know
    them at time ``radius``).
    """
    import networkx as nx

    lengths = nx.single_source_shortest_path_length(
        network.graph, node, cutoff=radius
    )
    members = set(lengths)
    subgraph = network.graph.subgraph(members).copy()
    return LocalView(
        center=node,
        radius=radius,
        subgraph=subgraph,
        ids={member: network.ids[member] for member in members},
        n=network.n,
        max_degree=network.max_degree,
    )


@dataclass(frozen=True)
class SupportedView:
    """What a node sees after T rounds in the Supported LOCAL model.

    The whole support graph and all IDs are global knowledge; input-edge
    marks are exposed only for edges incident to nodes within distance T
    (that is how far the endpoints' initial knowledge has travelled).
    """

    center: object
    radius: int
    support: nx.Graph
    ids: dict
    _visible_marks: dict

    def is_input_edge(self, u, v) -> bool:
        key = frozenset((u, v))
        if key not in self._visible_marks:
            raise LocalityViolationError(
                f"input mark of edge {(u, v)} is outside the radius-"
                f"{self.radius} view of {self.center!r}"
            )
        return self._visible_marks[key]

    def input_neighbors(self, node) -> list:
        """Input-graph neighbors of a node whose marks are visible."""
        return sorted(
            (
                neighbor
                for neighbor in self.support.neighbors(node)
                if self.is_input_edge(node, neighbor)
            ),
            key=lambda v: self.ids[v],
        )


def collect_supported_view(
    network: Network, input_edges: frozenset, node, radius: int
) -> SupportedView:
    """Build the Supported LOCAL radius-``radius`` view of ``node``."""
    import networkx as nx

    lengths = nx.single_source_shortest_path_length(
        network.graph, node, cutoff=radius
    )
    visible: dict = {}
    for member in lengths:
        for neighbor in network.graph.neighbors(member):
            key = frozenset((member, neighbor))
            visible[key] = key in input_edges
    return SupportedView(
        center=node,
        radius=radius,
        support=network.graph,
        ids=dict(network.ids),
        _visible_marks=visible,
    )
