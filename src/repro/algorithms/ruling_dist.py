"""Ruling sets from colorings — the §6 upper-bound companion.

Given a k-coloring, a (2,β)-ruling set is computable in O(k·β) rounds by
sweeping color classes: a node joins S when no already-selected node sits
within distance β (a distance-β check costs β rounds).  §6.2's remark
("given a k-coloring, one can compute an α-arbdefective c-colored
β-ruling set in O((k/((α+1)c))^{1/β}) rounds") is the sophisticated form;
this simple sweep suffices to bracket the lower bound's *shape* in the
experiments.  An MIS is a (2,1)-ruling set, so the [AAPR23] MIS
(``"mis:aapr23"``) is this sweep at β = 1 under its own name.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.algorithms.coloring_dist import _checked_classes
from repro.algorithms.mis import joined_nodes
from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.graphs.chromatic import greedy_coloring
from repro.local.dense import NodeSet
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.utils import InvalidParameterError


class _ClassSweepRulingNode(NodeAlgorithm):
    """Phase c (β rounds): unruled class-c nodes select, flood a β-hop wave.

    A phase's first round lets class c decide; selected nodes emit a
    ``("ruled", β)`` token, receivers become ruled and forward the token
    with a decremented hop budget, so the wave covers the β-ball before
    the next class's turn.  Everyone halts together after
    ``num_classes · β`` rounds.
    """

    def init(self) -> None:
        self.cls = self.ctx.extra["class_index"]
        self.num_classes = self.ctx.extra["num_classes"]
        self.beta = self.ctx.extra["beta"]
        self.selected = False
        self.ruled = False
        self.pending = 0
        self.round = 0
        if self.num_classes * self.beta == 0:
            self.halt(False)

    def send(self) -> dict[int, object]:
        hops = self.pending
        sending = self.pending >= 1
        self.pending = 0
        if self.round % self.beta == 0:
            if self.cls == self.round // self.beta and not self.ruled:
                self.selected = True
                self.ruled = True
                hops = self.beta
                sending = True
        if sending:
            return {port: ("ruled", hops) for port in self.ctx.ports}
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        for payload in messages.values():
            if payload and payload[0] == "ruled":
                self.ruled = True
                if payload[1] - 1 > self.pending:
                    self.pending = payload[1] - 1
        self.round += 1
        if self.round >= self.num_classes * self.beta:
            self.halt(self.selected)


class ClassSweepRulingSet(Algorithm):
    """``"ruling-set:class-sweep"`` — (2,β)-ruling sets from a coloring.

    A true message program since the vectorized port: β is the spec's
    ``β`` parameter (1 when absent), and β = 1 makes it an MIS algorithm,
    so both families are declared.  Option ``coloring`` overrides the
    shared greedy coloring.

    The wave construction lets *all* unruled class peers select
    simultaneously, so for β ≥ 2 the selected set can differ from a
    sequential sweep that admits class peers one at a time — it is still
    an independent (2,β)-ruling set (class peers of a proper coloring are
    non-adjacent), with the identical ``num_classes · β`` round count.
    For β = 1 the outputs coincide; so do they for any β when every
    class holds one node.
    """

    name = "ruling-set:class-sweep"
    families = ("ruling-set", "mis")
    options = ("coloring",)
    description = "(2,β)-ruling set by class sweep over a free coloring"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        beta = spec.param("beta", 1)
        if beta < 1:
            raise InvalidParameterError(f"need β ≥ 1, got {beta}")
        coloring = options.get("coloring")
        if coloring is None:
            coloring = greedy_coloring(network)
        else:
            coloring = _checked_classes(network, "coloring", coloring)
        return MessagePassingProgram(
            factory=_ClassSweepRulingNode,
            kernel="ruling-set:class-sweep",
            per_node={"class_index": coloring},
            shared={
                "num_classes": max(coloring.values(), default=-1) + 1,
                "beta": beta,
            },
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: Mapping
    ) -> NodeSet:
        return joined_nodes(network, outputs)


class SupportedMIS(ClassSweepRulingSet):
    """``"mis:aapr23"`` — the χ_G-round Supported LOCAL MIS.

    The shared greedy coloring of the support graph is computed without
    communication (all nodes know G); the class sweep costs one round per
    color.  An MIS spec has no β, so the inherited program runs the
    ruling-set sweep at β = 1: a joining node's ``("ruled", 1)`` token
    blocks its neighbors and goes no further.
    """

    name = "mis:aapr23"
    families = ("mis",)
    options = ()
    description = "[AAPR23] χ_G-round Supported LOCAL MIS by color classes"


register_algorithm(ClassSweepRulingSet())
register_algorithm(SupportedMIS())
