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

from repro.algorithms.coloring_dist import ClassSweepColoring, _checked_classes
from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.local.vectorized import run_vectorized
from repro.utils import InvalidParameterError


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


def _base_coloring(network: Network, spec: ProblemSpec) -> tuple[dict, int]:
    """The default proper coloring and its cost in rounds.

    Runs the ``coloring:class-sweep`` kernel on that algorithm's own
    knowledge declaration (its program reads no spec parameter), so the
    sweep is stated once.  Colors shift to 1..Δ+1; the round cap is the
    class count, which the sweep takes exactly.
    """
    program = ClassSweepColoring().program(network, spec, {})
    run = run_vectorized(
        network,
        program.kernel,
        program.per_node,
        program.shared,
        max_rounds=program.shared["num_classes"],
    )
    return {node: color + 1 for node, color in run.outputs.items()}, run.rounds


class ClassSweepArbdefective(Algorithm):
    """``"arbdefective:class-sweep"`` — α-arbdefective c-coloring.

    A message program since the vectorized port: starts from a proper
    coloring (option ``proper_coloring``; default the shared class-sweep
    (Δ+1)-coloring, whose rounds are included in the accounting as idle
    engine rounds) and sweeps its classes into the spec's ``c`` buckets
    (2 when absent).  Class peers decide
    simultaneously — they are non-adjacent in a proper coloring, so the
    result is identical to a sequential sweep in class order.  The
    default base coloring is a run of the registered
    ``coloring:class-sweep`` kernel (:func:`_base_coloring`), whichever
    engine runs the bucket sweep.  The finalized solution is
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
        graph = network.graph
        colors = spec.param("colors", 2)
        if colors < 1:
            raise InvalidParameterError(f"need c ≥ 1, got {colors}")
        proper = options.get("proper_coloring")
        offset = 0
        if proper is None:
            proper, offset = _base_coloring(network, spec)
        else:
            # Classes are only compared and str-ranked: they need not be
            # integers.
            proper = _checked_classes(
                network, "proper_coloring", proper, integral=False
            )
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
