"""Networks: graphs with identifiers and port numbers (paper §2).

In the LOCAL model each node has a unique ID from {1..n^c} and knows its
degree, Δ and n; edges at a node are addressed by ports 1..deg(v).  The
:class:`Network` wrapper fixes deterministic IDs and ports so
simulations are reproducible.

Port order has one definition, the CSR of :class:`VectorNetwork`: node
``i``'s row lists its neighbors by ascending ID, and port ``p`` is the
row's ``p``-th entry.  A network is built over a networkx graph or from
dense arrays; the graph, the ``ids`` dict and the per-node port maps are
derived on first use, so a consumer that reads only arrays never builds
them.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graphs.double_cover import COLORS
from repro.local.dense import NodeValues
from repro.utils import SimulationError

if TYPE_CHECKING:
    import networkx as nx

#: Labels at or above this have more digits than ``str_rank`` scales.
_LABEL_LIMIT = 10**18


@dataclass(frozen=True)
class VectorNetwork:
    """A :class:`Network`'s numpy CSR arrays plus delivery maps.

    Nodes are indexed densely in ``network.nodes`` order (the graph's
    node order), and half-edge ``k = indptr[i] + port - 1`` belongs to
    (node ``i``, ``port``), so ``dest[k]`` is the neighbor behind that
    port.  Two derived arrays make whole-array delivery possible:
    ``owner[k]`` is the dense index of the node emitting ``k`` (the CSR
    row expanded), and ``reverse[k]`` is the half-edge under which the
    message arrives at the receiver (``dest[k]``'s port back to
    ``owner[k]``) — scattering payloads from ``k`` to ``reverse[k]`` *is*
    delivery.
    """

    nodes: tuple
    indptr: np.ndarray
    dest: np.ndarray
    owner: np.ndarray
    reverse: np.ndarray
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_edges(
        cls, nodes: tuple, edges: np.ndarray, rank: np.ndarray
    ) -> "VectorNetwork":
        """The CSR of the simple graph on dense ``edges`` (an ``(m, 2)``
        array), each row ordered by ``rank`` (the nodes' ID order) — the
        one place port order is defined.

        Half-edges sort by one key, ``owner · n + rank[dest]`` (below
        2**63 for n < 3·10^9), in a stable sort: the order of
        ``np.lexsort((rank[dest], owner))``, ties included, at a third
        of its time.  (The default introsort is faster still, but pages
        in ~0.4 MB more of numpy's sorting code.)
        """
        n, m = len(nodes), edges.shape[0]
        owner = np.concatenate((edges[:, 0], edges[:, 1]))
        dest = np.concatenate((edges[:, 1], edges[:, 0]))
        order = np.argsort(owner * n + rank[dest], kind="stable")
        # Half-edge h's twin is h ± m; reverse maps each sorted position
        # to the sorted position of its twin.
        position = np.empty_like(order)
        position[order] = np.arange(2 * m)
        twin = np.concatenate((np.arange(m, 2 * m), np.arange(m)))
        owner = owner[order]
        degrees = np.bincount(owner, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(
            nodes=nodes,
            indptr=indptr,
            dest=dest[order],
            owner=owner,
            reverse=position[twin[order]],
            degrees=degrees,
        )

    @classmethod
    def of(cls, network: "Network") -> "VectorNetwork":
        """The array form of ``network`` (built once, then kept)."""
        return network.csr


def _label_arrays(nodes: tuple) -> tuple | None:
    if all(type(node) is int and 0 <= node < _LABEL_LIMIT for node in nodes):
        return np.array(nodes, dtype=np.int64), None
    if all(
        type(node) is tuple
        and len(node) == 2
        and type(node[0]) is int
        and type(node[1]) is int
        and 0 <= node[0] < _LABEL_LIMIT
        and 0 <= node[1] <= 9
        for node in nodes
    ):
        pairs = np.array(nodes, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()
    return None


class Network:
    """A communication network with IDs and port numbering.

    ``Network(graph=G, ids=…)`` wraps a networkx graph; without ``ids``
    the nodes get IDs 1..n in ``str`` order.  :meth:`from_arrays` builds
    one from dense arrays instead.  Either way :attr:`nodes` fixes the
    dense node order and :attr:`csr` the ports; :attr:`graph`,
    :attr:`ids` and the maps behind :meth:`neighbors`, :meth:`via_port`
    and :meth:`port_to` are built on first use.  The structure is frozen
    at construction: mutate node attributes only.
    """

    # Derived state is built on first use; until then the class default
    # stands in (a pickled network carries only what was built).
    _graph = _ids = _edges = _colors = _csr = _index = None
    _ports = _port_of = _labels = None

    def __init__(self, graph: nx.Graph, ids: dict | None = None) -> None:
        import networkx as nx

        nodes = tuple(graph.nodes)
        loop = next(nx.selfloop_edges(graph), None)
        if loop is not None:
            raise SimulationError(
                f"node {loop[0]!r} has a self-loop; LOCAL networks are simple "
                f"graphs"
            )
        if ids:
            missing = [node for node in nodes if node not in ids]
            if missing:
                raise SimulationError(f"node {missing[0]!r} has no ID")
            foreign = [node for node in ids if node not in graph]
            if foreign:
                raise SimulationError(
                    f"ID given for {foreign[0]!r}, which is not a graph node"
                )
            if len(set(ids.values())) != len(nodes):
                raise SimulationError("node IDs must be unique")
            self._ids = ids
        key = ids.__getitem__ if ids else str
        by_id = sorted(range(len(nodes)), key=lambda i: key(nodes[i]))
        self.nodes = nodes
        self._graph = graph
        self._rank = np.empty(len(nodes), dtype=np.int64)
        self._rank[by_id] = np.arange(len(nodes))
        self._max_degree = max((degree for _, degree in graph.degree), default=0)

    @classmethod
    def from_arrays(
        cls,
        nodes: tuple,
        edges: np.ndarray,
        ids: np.ndarray,
        colors: np.ndarray | None = None,
        labels: tuple | None = None,
    ) -> "Network":
        """A network on dense arrays, with its CSR built now.

        ``nodes`` are the labels in graph node order, ``edges`` the
        ``(m, 2)`` dense endpoints of a simple graph in the order the
        graph adds them, ``ids`` the IDs 1..n by dense index and
        ``colors`` an optional side per node (0 white, 1 black, the
        ``color`` attribute).  ``labels``, when given, is what
        :meth:`label_arrays` returns for ``nodes``.
        """
        network = cls.__new__(cls)
        network.nodes = nodes
        network._edges = edges
        network._colors = colors
        network._labels = labels
        network._rank = ids - 1
        network._csr = VectorNetwork.from_edges(nodes, edges, network._rank)
        network._max_degree = int(network._csr.degrees.max(initial=0))
        return network

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def id_rank(self) -> np.ndarray:
        """Each node's position in ID order, by dense index (the order of
        every CSR row)."""
        return self._rank

    @property
    def graph(self) -> nx.Graph:
        """The networkx graph (built from the arrays on first use)."""
        if self._graph is None:
            import networkx as nx

            graph = nx.Graph()
            if self._colors is None:
                graph.add_nodes_from(self.nodes)
            else:
                graph.add_nodes_from(
                    (node, {"color": COLORS[side]})
                    for node, side in zip(self.nodes, self._colors.tolist())
                )
            nodes = self.nodes
            graph.add_edges_from(
                (nodes[u], nodes[v]) for u, v in self._edges.tolist()
            )
            self._graph = graph
        return self._graph

    @property
    def ids(self) -> dict:
        """Node → ID, in ID order when the IDs are the default 1..n."""
        if self._ids is None:
            nodes = self.nodes
            self._ids = {
                nodes[i]: rank + 1
                for rank, i in enumerate(np.argsort(self._rank).tolist())
            }
        return self._ids

    @property
    def csr(self) -> VectorNetwork:
        """The CSR arrays; for a wrapped graph, built from its edges once."""
        if self._csr is None:
            index = self.index
            edges = np.fromiter(
                (index[end] for edge in self._graph.edges for end in edge),
                dtype=np.int64,
                count=2 * self._graph.number_of_edges(),
            ).reshape(-1, 2)
            self._csr = VectorNetwork.from_edges(self.nodes, edges, self._rank)
        return self._csr

    @property
    def index(self) -> dict:
        """Node → dense index (its position in :attr:`nodes`)."""
        if self._index is None:
            self._index = {node: i for i, node in enumerate(self.nodes)}
        return self._index

    def label_arrays(self) -> tuple | None:
        """``(values, sides)`` int arrays spelling the labels when every
        node is an int ``v`` (``sides`` is ``None``) or every node an
        ``(int v, int s)`` pair, with ``0 ≤ v < 10**18`` and ``0 ≤ s ≤ 9``:
        the labels whose ``str`` and JSON order is arithmetic
        (:func:`~repro.local.dense.str_rank`).  ``None`` for any other
        labels."""
        if self._labels is None:
            self._labels = _label_arrays(self.nodes) or ()
        return self._labels or None

    def node_colors(self) -> Mapping | None:
        """Node → ``color`` attribute, or ``None`` when a node has none."""
        if self._colors is not None:
            return NodeValues(self, self._colors, COLORS.__getitem__)
        nodes = self.graph.nodes
        if any("color" not in nodes[node] for node in nodes):
            return None
        return dict(nodes(data="color"))

    def _port_maps(self) -> dict:
        if self._ports is None:
            csr, nodes = self.csr, self.nodes
            bounds = csr.indptr.tolist()
            behind = [nodes[j] for j in csr.dest.tolist()]
            self._ports = {
                node: dict(enumerate(behind[bounds[i] : bounds[i + 1]], 1))
                for i, node in enumerate(nodes)
            }
            self._port_of = {
                node: {neighbor: port for port, neighbor in ports.items()}
                for node, ports in self._ports.items()
            }
        return self._ports

    def neighbors(self, node) -> list:
        """Neighbors in port order."""
        return list(self._port_maps()[node].values())

    def port_to(self, node, neighbor) -> int:
        """The port of ``node`` leading to ``neighbor``."""
        self._port_maps()
        return self._port_of[node][neighbor]

    def via_port(self, node, port: int):
        """The neighbor behind ``port`` at ``node``."""
        return self._port_maps()[node][port]

    def with_random_ids(self, seed: int, id_space_exponent: int = 3) -> "Network":
        """A copy with random distinct IDs from {1..n^c} (adversarial IDs)."""
        rng = random.Random(seed)
        space = self.n**id_space_exponent
        values = rng.sample(range(1, space + 1), self.n)
        nodes = sorted(self.nodes, key=str)
        return Network(graph=self.graph, ids=dict(zip(nodes, values)))
