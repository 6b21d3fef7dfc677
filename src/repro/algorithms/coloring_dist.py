"""Distributed coloring: class-sweep color reduction.

Given any m-coloring (in Supported LOCAL the shared greedy coloring of G
is free; in plain LOCAL the IDs are an n-coloring), sweeping the classes
in order and re-coloring each node with the smallest color unused by
already-final neighbors produces a (Δ+1)-coloring in m rounds.  This is
the upper-bound companion of the §5 experiments (Theorem 5.1's remark:
given a k-coloring of the support graph, nodes can compute it with no
communication; the sweep then trades colors for rounds).
"""

from __future__ import annotations

import networkx as nx

from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.graphs.chromatic import greedy_coloring
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm


class _ClassSweepNode(NodeAlgorithm):
    """Color class i finalizes in round i+1, announcing its new color."""

    def init(self) -> None:
        self.initial = self.ctx.extra["initial_color"]
        self.num_classes = self.ctx.extra["num_classes"]
        self.final: int | None = None
        self.neighbor_finals: set[int] = set()
        self.round = 0
        if self.num_classes == 0:
            self.halt(0)

    def send(self) -> dict[int, object]:
        if self.initial == self.round:
            candidate = 0
            while candidate in self.neighbor_finals:
                candidate += 1
            self.final = candidate
            return {port: ("final", candidate) for port in self.ctx.ports}
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        for payload in messages.values():
            if payload and payload[0] == "final":
                self.neighbor_finals.add(payload[1])
        self.round += 1
        if self.round >= self.num_classes:
            self.halt(self.final)


def _sweep_finals(
    graph: nx.Graph, initial_coloring: dict, num_classes: int
) -> dict:
    """The sweep's fixed point, computed centrally (no simulation).

    Mirrors :class:`_ClassSweepNode` exactly, including the degenerate
    cases: no classes to sweep → everyone outputs 0 (the node program
    halts with color 0 at init), and classes outside ``0..num_classes-1``
    never finalize (their output stays ``None``).  Class peers finalize
    simultaneously, seeing only strictly earlier announcements.
    """
    if num_classes == 0:
        return dict.fromkeys(graph.nodes, 0)
    finals: dict = dict.fromkeys(graph.nodes)
    for current in range(num_classes):
        announced = {}
        for node in graph.nodes:
            if initial_coloring[node] != current:
                continue
            taken = {
                finals[neighbor]
                for neighbor in graph.neighbors(node)
                if finals[neighbor] is not None
            }
            candidate = 0
            while candidate in taken:
                candidate += 1
            announced[node] = candidate
        finals.update(announced)
    return finals


def class_sweep_coloring(
    graph: nx.Graph, initial_coloring: dict | None = None
) -> tuple[dict, int]:
    """Reduce an initial coloring to a (Δ+1)-coloring, one round per class.

    Defaults to the shared greedy support-graph coloring (the Supported
    LOCAL setting).  Returns ({node: color}, rounds) — byte-identical to
    running :class:`_ClassSweepNode` on an engine, but computed directly
    so callers that only need the result (e.g. the arbdefective sweep's
    base coloring) don't pay for a full message-passing simulation.
    """
    if initial_coloring is None:
        initial_coloring = greedy_coloring(graph)
    num_classes = max(initial_coloring.values(), default=-1) + 1
    finals = _sweep_finals(graph, initial_coloring, num_classes)
    if num_classes < 0:
        # All classes negative: the node program idles one round, then
        # the budget check (round ≥ num_classes) halts it.
        rounds = 1 if graph.number_of_nodes() else 0
    else:
        rounds = num_classes
    return finals, rounds


def coloring_from_ids(network: Network) -> dict:
    """The trivial n-coloring by ID *rank* (plain-LOCAL starting point).

    IDs are only guaranteed distinct — adversarial networks draw them
    from {1..n^c} — so the class index is the ID's rank among all IDs,
    which is contiguous and 0-based by construction.  (The former
    ``id - 1`` shortcut silently produced n^c classes for adversarial
    IDs, inflating the sweep's round count by the same factor.)  For the
    canonical 1..n assignment the rank equals ``id - 1``, so existing
    outputs are unchanged.
    """
    return {
        node: rank - 1 for node, rank in network.renormalized_ids().items()
    }


class ClassSweepColoring(Algorithm):
    """``"coloring:class-sweep"`` — (Δ+1)-coloring by class sweep.

    Option ``initial_coloring`` overrides the starting coloring; the
    default is the shared greedy support-graph coloring (the Supported
    LOCAL setting, where it costs 0 rounds).
    """

    name = "coloring:class-sweep"
    families = ("coloring",)
    options = ("initial_coloring",)
    description = "(Δ+1)-coloring: sweep the classes of a free coloring"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        initial = options.get("initial_coloring")
        if initial is None:
            initial = greedy_coloring(network)
        return MessagePassingProgram(
            factory=_ClassSweepNode,
            kernel="coloring:class-sweep",
            per_node={"initial_color": initial},
            shared={"num_classes": max(initial.values(), default=-1) + 1},
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: dict
    ) -> dict:
        return dict(outputs.items())


register_algorithm(ClassSweepColoring())
