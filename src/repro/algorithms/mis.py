"""Maximal independent set algorithms.

Two algorithms bracket the paper's §1.1 discussion of [AAPR23]:

* ``"mis:aapr23"`` — the χ_G-round Supported LOCAL upper bound: every
  node knows G, so all nodes compute the *same* coloring of G without
  communication, then process color classes one round each.  Theorem 1.7
  shows this is optimal for deterministic algorithms.  An MIS is a
  (2,1)-ruling set, so it is the ruling-set class sweep at β = 1 and is
  registered beside it (:mod:`repro.algorithms.ruling_dist`).
* ``"mis:luby"`` — Luby's randomized MIS in the plain LOCAL model, as a
  baseline exercising the randomized simulator path.

:func:`joined_nodes` is the finalizer of both and of the ruling sets.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

import numpy as np

from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.local.dense import NodeSet, dense_values, str_rank
from repro.local.mersenne import RandomStreams, randrange63
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm


class _LubyNode(NodeAlgorithm):
    """One phase = 3 rounds: draw+compare, announce join, withdraw."""

    def init(self) -> None:
        self.rng: random.Random = self.ctx.random_bits
        self.state = "active"  # active | in | out
        self.step = 0
        self.value: float = 0.0
        self.neighbor_values: dict[int, float] = {}
        if self.ctx.degree == 0:
            self.halt(True)

    def send(self) -> dict[int, object]:
        phase_step = self.step % 2
        if self.state == "active" and phase_step == 0:
            self.value = self.rng.random()
            return {port: ("value", self.value) for port in self.ctx.ports}
        if phase_step == 1:
            if self.state == "joining":
                return {port: ("joined",) for port in self.ctx.ports}
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        phase_step = self.step % 2
        if phase_step == 0 and self.state == "active":
            values = [
                payload[1]
                for payload in messages.values()
                if payload and payload[0] == "value"
            ]
            if all(self.value > other for other in values):
                self.state = "joining"
        elif phase_step == 1:
            if self.state == "joining":
                self.state = "in"
                self.halt(True)
                return
            if self.state == "active" and any(
                payload and payload[0] == "joined" for payload in messages.values()
            ):
                self.state = "out"
                self.halt(False)
                return
        self.step += 1


def luby_rng_streams(network: Network, seed: int) -> RandomStreams:
    """Per-node random sources for Luby's algorithm.

    Node ``v`` draws from ``random.Random(s_v)``, where ``s_v`` is the
    ``r``-th ``randrange(2**63)`` of ``random.Random(seed)`` and ``r`` is
    ``v``'s rank in ``str`` order.  The seeds depend on the seed and the
    labels only — never on the engine or execution order — so both
    engines draw identical bits: the object engine from each node's
    generator, the kernel from :meth:`RandomStreams.draw`, which replays
    the generators without building them.
    """
    labels = network.label_arrays()
    if labels is not None:
        rank = str_rank(*labels)
    else:
        by_str = sorted(range(network.n), key=lambda i: str(network.nodes[i]))
        rank = np.empty(network.n, dtype=np.int64)
        rank[by_str] = np.arange(network.n)
    return RandomStreams(network, randrange63(seed, network.n)[rank])


def joined_nodes(network: Network, outputs: Mapping) -> NodeSet:
    """The nodes whose output is truthy (joined), as a :class:`NodeSet`
    read from the vectorized engine's array or node by node."""
    joined = dense_values(outputs, network.nodes, bool)
    return NodeSet(network, np.flatnonzero(joined))


class LubyMIS(Algorithm):
    """``"mis:luby"`` — Luby's randomized MIS (plain LOCAL baseline)."""

    name = "mis:luby"
    families = ("mis",)
    description = "Luby's randomized MIS, seeded per-node randomness"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        return MessagePassingProgram(
            factory=_LubyNode, kernel="mis:luby", rng_streams=luby_rng_streams
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: Mapping
    ) -> NodeSet:
        return joined_nodes(network, outputs)


register_algorithm(LubyMIS())
