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

import numbers
from collections.abc import Mapping

from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.graphs.chromatic import greedy_coloring
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.utils import InvalidParameterError


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


def _checked_classes(
    network: Network, option: str, classes, *, integral: bool = True
) -> Mapping:
    """The node → class map a caller passed as solve option ``option``.

    The sweeps read the map by the network's own node labels, so it must
    give every node an entry (over the wire JSON keys are strings, which
    name no int or tuple node).  With ``integral`` each class must be an
    int64: class ``c`` takes its turn in round ``c + 1``, so a fractional
    class would never act on the object engine and would be truncated on
    the vectorized one, which holds classes as int64.  Every class must
    be hashable: the arbdefective sweep ranks the distinct classes of a
    set.  Raises
    :class:`InvalidParameterError` naming the option and the first node
    of ``network.nodes`` at fault.  Only caller maps come here; the
    shared greedy coloring needs no check.
    """
    if not isinstance(classes, Mapping):
        raise InvalidParameterError(
            f"option {option!r} must map nodes to classes, got "
            f"{type(classes).__name__}"
        )
    for node in network.nodes:
        if node not in classes:
            raise InvalidParameterError(
                f"option {option!r} has no class for node {node!r}"
            )
        value = classes[node]
        if integral and not isinstance(value, numbers.Integral):
            fault = "is not an integer"
        elif integral and not -(2**63) <= value < 2**63:
            fault = "is outside the int64 range"
        elif not _hashable(value):
            fault = "is not hashable"
        else:
            continue
        raise InvalidParameterError(
            f"option {option!r} gives node {node!r} the class "
            f"{value!r}, which {fault}"
        )
    return classes


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


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
        else:
            initial = _checked_classes(network, "initial_coloring", initial)
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
