"""Arbdefective coloring by class sweep (the §5 upper-bound companion).

Given a proper k-coloring, sweep its classes in order; when a node's class
comes up it picks the bucket b ∈ {1..c} chosen by the *fewest* of its
already-finalized neighbors, and orients its now-monochromatic edges
towards those finalized neighbors.  By pigeonhole the chosen bucket is
shared by at most ⌊deg(v)/c⌋ ≤ ⌊Δ/c⌋ finalized neighbors, so the
outdegree is at most α := ⌊Δ/c⌋; every monochromatic edge to a *later*
neighbor is oriented by that neighbor.  Cost: one round per class on top
of the coloring — the trade Theorem 5.1 proves cannot be beaten when
(α+1)c ≤ min{Δ′, εΔ/log Δ}.
"""

from __future__ import annotations

import networkx as nx

from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.checkers.graph_problems import CheckResult, check_arbdefective_coloring
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.utils import InvalidParameterError


def class_sweep_arbdefective_coloring(
    graph: nx.Graph, proper_coloring: dict, colors: int
) -> tuple[dict, set[tuple], int, int]:
    """α-arbdefective ``colors``-coloring from a proper coloring.

    Returns (color_of ∈ {1..c}, orientation pairs, α = ⌊Δ/c⌋, rounds).
    Rounds equal the number of classes in the input coloring (each class
    decides one round after seeing earlier classes' bucket choices).
    """
    if colors < 1:
        raise InvalidParameterError(f"need c ≥ 1, got {colors}")
    distinct = sorted(set(proper_coloring.values()), key=str)
    rank = {value: index for index, value in enumerate(distinct)}
    for u, v in graph.edges:
        if proper_coloring[u] == proper_coloring[v]:
            raise InvalidParameterError(
                f"input coloring is not proper: edge {(u, v)} monochromatic"
            )

    delta = max((graph.degree(v) for v in graph.nodes), default=0)
    alpha = delta // colors

    color_of: dict = {}
    orientation: set[tuple] = set()
    for node in sorted(graph.nodes, key=lambda v: rank[proper_coloring[v]]):
        bucket_loads = {bucket: 0 for bucket in range(1, colors + 1)}
        finalized_neighbors: dict[int, list] = {
            bucket: [] for bucket in range(1, colors + 1)
        }
        for neighbor in graph.neighbors(node):
            bucket = color_of.get(neighbor)
            if bucket is not None:
                bucket_loads[bucket] += 1
                finalized_neighbors[bucket].append(neighbor)
        chosen = min(bucket_loads, key=lambda b: (bucket_loads[b], b))
        color_of[node] = chosen
        for neighbor in finalized_neighbors[chosen]:
            orientation.add((node, neighbor))

    rounds = len(distinct)
    return color_of, orientation, alpha, rounds


class _ArbdefectiveSweepNode(NodeAlgorithm):
    """Class rank r decides in round offset + r + 1, announcing its bucket.

    The first ``offset`` rounds are idle — they account for the base
    proper coloring's cost when the algorithm computed it itself.  When a
    node's turn comes it takes the least-loaded bucket (ties to the
    lowest), orients the ports towards already-announced same-bucket
    neighbors as outgoing, and broadcasts ``("bucket", b)``.  Everyone
    halts together after ``offset + num_classes`` rounds.
    """

    def init(self) -> None:
        self.rank = self.ctx.extra["rank"]
        self.num_classes = self.ctx.extra["num_classes"]
        self.offset = self.ctx.extra["offset"]
        self.loads = {
            bucket: 0 for bucket in range(1, self.ctx.extra["num_buckets"] + 1)
        }
        self.bucket: int | None = None
        self.port_bucket: dict[int, int] = {}
        self.out_ports: list[int] = []
        self.round = 0
        if self.offset + self.num_classes == 0:
            self.halt({"bucket": None, "out_ports": []})

    def send(self) -> dict[int, object]:
        if self.round < self.offset:
            return {}
        if self.rank == self.round - self.offset and self.bucket is None:
            chosen = min(self.loads, key=lambda b: (self.loads[b], b))
            self.bucket = chosen
            self.out_ports = [
                port
                for port in sorted(self.port_bucket)
                if self.port_bucket[port] == chosen
            ]
            return {port: ("bucket", chosen) for port in self.ctx.ports}
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        for port, payload in messages.items():
            if payload and payload[0] == "bucket":
                self.loads[payload[1]] += 1
                self.port_bucket[port] = payload[1]
        self.round += 1
        if self.round >= self.offset + self.num_classes:
            self.halt({"bucket": self.bucket, "out_ports": self.out_ports})


class ClassSweepArbdefective(Algorithm):
    """``"arbdefective:class-sweep"`` — α-arbdefective c-coloring.

    A message program since the vectorized port: starts from a proper
    coloring (option ``proper_coloring``; default the shared class-sweep
    (Δ+1)-coloring, whose rounds are included in the accounting as idle
    engine rounds) and sweeps its classes into the spec's ``c`` buckets
    (2 when absent).  Class peers decide
    simultaneously — they are non-adjacent in a proper coloring, so the
    result is identical to the sequential
    :func:`class_sweep_arbdefective_coloring`.  The finalized solution is
    a dict with ``color_of``, ``orientation``, ``alpha`` and ``colors`` —
    the exact arguments of the §5 checker.
    """

    name = "arbdefective:class-sweep"
    families = ("arbdefective",)
    options = ("proper_coloring",)
    description = "α-arbdefective c-coloring by class sweep (α = ⌊Δ/c⌋)"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        from repro.algorithms.coloring_dist import class_sweep_coloring

        graph = network.graph
        colors = spec.param("colors", 2)
        if colors < 1:
            raise InvalidParameterError(f"need c ≥ 1, got {colors}")
        proper = options.get("proper_coloring")
        offset = 0
        if proper is None:
            base, offset = class_sweep_coloring(graph)
            proper = {node: color + 1 for node, color in base.items()}
        distinct = sorted(set(proper.values()), key=str)
        rank = {value: index for index, value in enumerate(distinct)}
        for u, v in graph.edges:
            if proper[u] == proper[v]:
                raise InvalidParameterError(
                    f"input coloring is not proper: edge {(u, v)} monochromatic"
                )
        return MessagePassingProgram(
            factory=_ArbdefectiveSweepNode,
            kernel="arbdefective:class-sweep",
            per_node={"rank": {node: rank[proper[node]] for node in graph.nodes}},
            shared={
                "num_classes": len(distinct),
                "offset": offset,
                "num_buckets": colors,
            },
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: dict
    ) -> dict:
        colors = spec.param("colors", 2)
        color_of: dict = {}
        orientation: set[tuple] = set()
        for node, out in outputs.items():
            color_of[node] = out["bucket"]
            for port in out["out_ports"]:
                orientation.add((node, network.via_port(node, port)))
        return {
            "color_of": color_of,
            "orientation": orientation,
            "alpha": network.max_degree // colors,
            "colors": colors,
        }


register_algorithm(ClassSweepArbdefective())


def verify_class_sweep_construction(
    graph: nx.Graph, proper_coloring: dict, colors: int
) -> CheckResult:
    """Run the reduction and validate it with the §5 checker."""
    color_of, orientation, alpha, _rounds = class_sweep_arbdefective_coloring(
        graph, proper_coloring, colors
    )
    return check_arbdefective_coloring(graph, color_of, orientation, alpha, colors)
