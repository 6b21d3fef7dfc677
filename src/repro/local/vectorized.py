"""Vectorized synchronous engine: struct-of-arrays rounds over numpy.

The object engine (:func:`repro.local.simulator.run_synchronous`) executes
one Python callback per node per round, which caps honest experiments
near n ≈ 10^4.  This engine removes per-node Python from the hot loop
entirely:

* the network comes as numpy CSR arrays (:class:`VectorNetwork`, built
  with a default network or once from a wrapped graph) with two delivery
  maps precomputed — ``owner[k]`` (which node emits half-edge ``k``) and
  ``reverse[k]`` (the receiver-side half-edge, i.e. inbox slot, that a
  message along ``k`` lands in);
* node state lives in struct-of-arrays form — int state vectors, float
  payload vectors, boolean halted/live masks — owned by a
  :class:`VectorizedAlgorithm` *kernel*;
* a round is three whole-array steps: the kernel's :meth:`send_all`
  returns the emitting half-edges (plus optional payloads), the engine
  masks out edges whose receiver has halted (the drop rule) and maps the
  rest through ``reverse``, and :meth:`receive_all` scatters them back
  into node state.

A program names its kernel (``MessagePassingProgram.kernel``, a key of
:data:`KERNELS`) and declares its knowledge once: ``per_node`` maps each
key to a node → value map, ``shared`` each key to a value.  The kernel
reads those maps whole, under the same keys the per-node program reads
from ``ctx.extra``.  This engine runs kernels only: a program without a
kernel, or naming an unregistered one, raises :class:`SimulationError`
and belongs on the object engine.  Kernels must reproduce the object
engine bit for bit: same outputs (Python scalars, not numpy ones), same
round count, same delivered/dropped counters, same
:class:`SimulationError` texts.  ``tests/api/test_engine_parity.py`` and
the ``engines`` differential oracle enforce this.

Kernel contract (what keeps parity cheap to reason about):

* kernels only halt nodes in :meth:`init_all` / :meth:`receive_all`,
  never in :meth:`send_all` — so "halted at send time" and "halted after
  the send phase" coincide and the engine's drop mask is exact;
* ``halted`` is mutated in place (the engine keeps no copy);
* :meth:`outputs_all` returns the outputs in dense node order: an
  array, whose entries :attr:`decode_output` turns into the per-node
  outputs (absent: the entry itself), or a list of Python values.

The engine hands those outputs on as a
:class:`~repro.local.dense.NodeValues`, a read-only node → output map
equal to the object engine's dict, so finalizers can read the arrays
and only other callers pay for the Python values.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.local.dense import NodeValues, dense_values
from repro.local.network import Network, VectorNetwork
from repro.local.simulator import RoundTrace, RunResult
from repro.utils import SimulationError


class VectorizedAlgorithm:
    """Base class for batch (struct-of-arrays) algorithm kernels.

    One instance runs *all* nodes: state is arrays indexed by the dense
    node order of ``vnet.nodes``.  The life cycle mirrors the per-node
    protocol — :meth:`init_all` (round 0), then per round
    :meth:`send_all` / :meth:`receive_all` until every ``halted`` flag is
    set — but each hook is called once per round, not once per node.

    ``per_node`` (key → node → value map) and ``shared`` (key → value)
    are the program's knowledge declaration, under the keys its per-node
    form reads from ``ctx.extra``.  ``rng_for`` is the program's random
    streams (``MessagePassingProgram.rng_streams`` applied to the network
    and seed; ``None`` for deterministic programs).  The object engine
    calls it for each node's ``random.Random``; a kernel reads the same
    draws as arrays (:meth:`~repro.local.mersenne.RandomStreams.draw`),
    which keeps it byte-identical without a generator per node.
    """

    #: Turns one :meth:`outputs_all` array entry (a Python scalar) into
    #: the node's output; ``None`` when the entry is the output.
    decode_output: Callable | None = None

    def __init__(
        self,
        vnet: VectorNetwork,
        per_node: dict,
        shared: dict,
        rng_for: Callable[[object], object] | None = None,
    ) -> None:
        self.vnet = vnet
        self.per_node = per_node
        self.shared = shared
        self.rng_for = rng_for
        self.halted = np.zeros(vnet.n, dtype=bool)

    def init_all(self) -> None:
        """Round-0 initialization (may halt nodes via ``self.halted``)."""

    def send_all(self, rnd: int) -> tuple[np.ndarray, np.ndarray | None]:
        """Messages for engine round ``rnd`` (1-based).

        Returns ``(edges, payloads)``: ``edges`` are the emitting
        half-edge indices (int array) and ``payloads`` an aligned value
        array, or ``None`` when the message content is implied by the
        round (a pure announcement).  Must not touch ``self.halted``.
        """
        return np.empty(0, dtype=np.int64), None

    def receive_all(
        self, rnd: int, slots: np.ndarray, payloads: np.ndarray | None
    ) -> None:
        """Process round ``rnd``'s deliveries.

        ``slots`` are receiver-side half-edges (``reverse`` of the kept
        emitting edges): ``owner[slots]`` is the receiving node and
        ``slots - indptr[owner[slots]] + 1`` the arrival port.  Halting
        happens here, by setting ``self.halted`` entries in place.
        """

    def outputs_all(self) -> np.ndarray | list:
        """Per-node outputs in dense node order: an array (see
        :attr:`decode_output`) or a list of Python values."""
        raise NotImplementedError


#: Registry of batch kernels, keyed by ``MessagePassingProgram.kernel``.
KERNELS: dict[str, type[VectorizedAlgorithm]] = {}


def register_kernel(name: str, kernel: type[VectorizedAlgorithm]) -> None:
    KERNELS[name] = kernel


def run_vectorized(
    network: Network,
    kernel: str | None,
    per_node: dict | None = None,
    shared: dict | None = None,
    max_rounds: int = 10_000,
    rng_for: Callable[[object], object] | None = None,
    on_round: Callable[[RoundTrace], None] | None = None,
) -> RunResult:
    """:func:`~repro.local.simulator.run_synchronous`'s contract over
    numpy arrays: run the registered ``kernel`` on the declared
    ``per_node``/``shared`` knowledge, one whole-array step per phase.

    A ``kernel`` that is ``None`` or not in :data:`KERNELS` is a
    :class:`SimulationError`: there is no per-node path here, and such a
    program runs on the object engine.
    """
    kernel_cls = KERNELS.get(kernel)
    if kernel_cls is None:
        raise SimulationError(
            f"vectorized engine: unknown kernel {kernel!r} "
            f"(registered: {sorted(KERNELS)}); a program without a "
            f"registered kernel runs on engine='object'"
        )
    vnet = VectorNetwork.of(network)
    state = kernel_cls(vnet, per_node or {}, shared or {}, rng_for=rng_for)
    state.init_all()

    rounds = 0
    live = int(vnet.n - np.count_nonzero(state.halted))
    while live:
        rounds += 1
        if rounds > max_rounds:
            raise SimulationError(
                f"algorithm did not halt within {max_rounds} rounds"
            )
        live_nodes = live
        edges, payloads = state.send_all(rounds)
        # The drop rule, vectorized: messages addressed to a node that
        # was already halted when the round began are dropped (kernels
        # never halt during send_all, so the mask is exact).
        receiver_halted = state.halted[vnet.dest[edges]]
        dropped = int(np.count_nonzero(receiver_halted))
        delivered = int(edges.shape[0]) - dropped
        if dropped:
            keep = ~receiver_halted
            edges = edges[keep]
            if payloads is not None:
                payloads = payloads[keep]
        state.receive_all(rounds, vnet.reverse[edges], payloads)
        live = int(vnet.n - np.count_nonzero(state.halted))
        if on_round is not None:
            on_round(
                RoundTrace(
                    round=rounds,
                    live_nodes=live_nodes,
                    messages_delivered=delivered,
                    messages_dropped=dropped,
                )
            )

    outputs = NodeValues(network, state.outputs_all(), kernel_cls.decode_output)
    return RunResult(outputs=outputs, rounds=rounds)


_NO_PROPOSAL = np.iinfo(np.int64).max


def matched_output(port: int) -> dict:
    """A proposal-matching node's output for matched port ``port``
    (−1: unmatched)."""
    return {"matched": port if port >= 0 else None}


class ProposalMatchingKernel(VectorizedAlgorithm):
    """Batch form of the proposal matching (``matching:proposal``).

    Knowledge: per node its ``color`` (``"white"``/``"black"``) and,
    only when G′ ⊂ G, its sorted ``input_ports`` (absent: every port is an
    input port); shared, the phase budget ``delta_prime`` (Δ′).

    State: ``matched`` holds the matched port (−1 while unmatched),
    ``next_index`` the next input-port index each white will try, and
    ``pending`` the port a black must answer with "accept" (−1 when none).
    Input ports are their own CSR: ``ip_slots[ip_indptr[i] + j]`` is the
    half-edge of white ``i``'s ``j``-th input port, in ascending port
    order — exactly the per-node algorithm's ``input_ports``.
    """

    decode_output = staticmethod(matched_output)

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        self.white = dense_values(per_node["color"], vnet.nodes) == "white"
        input_ports = per_node.get("input_ports")
        if input_ports is None:
            is_input = np.ones(vnet.dest.shape[0], dtype=bool)
        else:
            slots = np.fromiter(
                (
                    first + port - 1
                    for first, node in zip(vnet.indptr.tolist(), vnet.nodes)
                    for port in input_ports[node]
                ),
                dtype=np.int64,
            )
            is_input = np.zeros(vnet.dest.shape[0], dtype=bool)
            is_input[slots] = True
        self.ip_slots = np.flatnonzero(is_input)
        self.ip_counts = np.bincount(
            vnet.owner[is_input], minlength=vnet.n
        ).astype(np.int64)
        self.ip_indptr = np.zeros(vnet.n + 1, dtype=np.int64)
        np.cumsum(self.ip_counts, out=self.ip_indptr[1:])
        self.total_phases = int(shared["delta_prime"])
        self.matched = np.full(vnet.n, -1, dtype=np.int64)
        self.next_index = np.zeros(vnet.n, dtype=np.int64)
        self.pending = np.full(vnet.n, -1, dtype=np.int64)
        # Per-round scratch, preallocated once: allocating fresh n-sized
        # arrays inside the round loop dominates past n = 10^6.
        self._best = np.empty(vnet.n, dtype=np.int64)
        self._got_accept = np.empty(vnet.n, dtype=bool)
        self._accept_port = np.zeros(vnet.n, dtype=np.int64)

    def init_all(self):
        if self.total_phases == 0:
            self.halted[:] = True

    def send_all(self, rnd):
        proposing = (rnd - 1) % 2 == 0
        if proposing:
            senders = np.flatnonzero(
                self.white
                & ~self.halted
                & (self.matched < 0)
                & (self.next_index < self.ip_counts)
            )
            edges = self.ip_slots[
                self.ip_indptr[senders] + self.next_index[senders]
            ]
        else:
            senders = np.flatnonzero(
                ~self.white & ~self.halted & (self.pending >= 0)
            )
            edges = self.vnet.indptr[senders] + self.pending[senders] - 1
            self.pending[senders] = -1
        return edges, None

    def receive_all(self, rnd, slots, payloads):
        vnet = self.vnet
        receivers = vnet.owner[slots]
        ports = slots - vnet.indptr[receivers] + 1
        if (rnd - 1) % 2 == 0:
            # Proposals land at black nodes; each unmatched black takes
            # the smallest proposing port and queues the accept.
            best = self._best
            best.fill(_NO_PROPOSAL)
            np.minimum.at(best, receivers, ports)
            claim = ~self.white & (self.matched < 0) & (best < _NO_PROPOSAL)
            self.matched[claim] = best[claim]
            self.pending[claim] = best[claim]
        else:
            # Accepts land at white nodes.  A white receives at most one
            # accept ever (only the black it matched answers it), so a
            # plain scatter is faithful; whites whose proposal went
            # unanswered advance to their next input port.
            # (_accept_port needs no reset: it is read only at indices
            # freshly written through the same ``receivers`` scatter.)
            got_accept = self._got_accept
            got_accept.fill(False)
            accept_port = self._accept_port
            got_accept[receivers] = True
            accept_port[receivers] = ports
            self.matched[got_accept] = accept_port[got_accept]
            advance = (
                self.white & ~self.halted & ~got_accept & (self.matched < 0)
            )
            self.next_index[advance] += 1
        if rnd >= 2 * self.total_phases:
            self.halted[:] = True

    def outputs_all(self):
        return self.matched


class ClassSweepKernel(VectorizedAlgorithm):
    """Shared shape of the class-sweep family of kernels.

    Every class-sweep algorithm walks the classes of a precomputed
    coloring on a fixed round budget: class ``c`` acts when its turn
    comes, everyone else listens, and all nodes halt *together* when the
    budget is spent (so no message is ever dropped mid-sweep).  Subclasses
    parameterize the finalize rule: :attr:`classes_key` names the
    node → class map in ``per_node``, :meth:`round_budget` declares the
    total round count, and :meth:`sweep_send` / :meth:`sweep_receive`
    implement the per-round action.  The base handles the class array,
    the zero-budget init halt and the collective final halt.
    """

    #: The ``per_node`` key of the node → class map; each subclass names
    #: the key its node program reads.
    classes_key: str

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        self.cls = dense_values(per_node[self.classes_key], vnet.nodes, np.int64)
        self.total_rounds = int(self.round_budget())

    def round_budget(self) -> int:
        """Total engine rounds of the sweep (0 halts everyone at init).

        Called from the base ``__init__`` before subclass state exists —
        compute the budget from ``self.shared`` alone.
        """
        raise NotImplementedError

    def sweep_send(self, rnd: int) -> tuple[np.ndarray, np.ndarray | None]:
        return np.empty(0, dtype=np.int64), None

    def sweep_receive(
        self, rnd: int, slots: np.ndarray, payloads: np.ndarray | None
    ) -> None:
        """Scatter round ``rnd``'s deliveries (halting is the base's job)."""

    def init_all(self):
        if self.total_rounds == 0:
            self.halted[:] = True

    def send_all(self, rnd):
        return self.sweep_send(rnd)

    def receive_all(self, rnd, slots, payloads):
        self.sweep_receive(rnd, slots, payloads)
        if rnd >= self.total_rounds:
            self.halted[:] = True


class ColoringSweepKernel(ClassSweepKernel):
    """Batch form of the class-sweep color reduction
    (``coloring:class-sweep``) — the payload-bearing kernel exemplar.

    The per-node program announces ``("final", color)`` tuples; in array
    form the tag is implied and the payload is the int64 color vector,
    scattered receiver-side into a per-node "colors seen" bitmap
    (``seen[node, color]``).  Class ``c`` finalizes in round ``c + 1``
    with the mex over its bitmap row — ``argmin`` of a boolean row is the
    first unseen color.  A class-``c`` node sees only the colors of
    earlier classes, each at most its own class, so its mex is at most
    ``c`` as well as at most its degree: ``min(Δ + 1, num_classes)``
    columns hold every color, which keeps the bitmap linear in n on
    skewed graphs (the greedy default gives a star two columns).

    Knowledge: per node its ``initial_color`` class; shared,
    ``num_classes``.
    """

    classes_key = "initial_color"
    decode_output = staticmethod(lambda color: color if color >= 0 else None)

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        max_degree = int(vnet.degrees.max(initial=0))
        width = max(1, min(max_degree + 1, int(shared["num_classes"])))
        self.seen = np.zeros((vnet.n, width), dtype=bool)
        self.final = np.full(vnet.n, -1, dtype=np.int64)

    def round_budget(self):
        return self.shared["num_classes"]

    def init_all(self):
        super().init_all()
        if self.total_rounds == 0:
            # Parity: the node program halts with color 0 (not None) when
            # there are no classes to sweep.
            self.final[:] = 0

    def sweep_send(self, rnd):
        vnet = self.vnet
        joined = (self.cls == rnd - 1) & ~self.halted
        joiners = np.flatnonzero(joined)
        # mex: first False column of each joiner's seen-colors row (the
        # width bound above guarantees one: the mex is ≤ min(deg, class)).
        self.final[joiners] = np.argmin(self.seen[joiners], axis=1)
        edges = np.flatnonzero(joined[vnet.owner])
        return edges, self.final[vnet.owner[edges]]

    def sweep_receive(self, rnd, slots, payloads):
        if slots.shape[0]:
            self.seen[self.vnet.owner[slots], payloads] = True

    def outputs_all(self):
        return self.final


class RulingSweepKernel(ClassSweepKernel):
    """Batch form of the distributed (2,β)-ruling-set class sweep
    (``ruling-set:class-sweep``).

    Phase ``c`` spans engine rounds ``cβ + 1 .. (c+1)β``: unruled class-c
    nodes select themselves in the phase's first round and flood a
    ``("ruled", β)`` token; receivers become ruled and forward the token
    with a decremented hop budget, so the wave covers the β-ball before
    the next class decides.  Knowledge: per node its ``class_index``;
    shared, ``num_classes`` and ``beta``.
    """

    classes_key = "class_index"

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        self.beta = int(shared["beta"])
        self.selected = np.zeros(vnet.n, dtype=bool)
        self.ruled = np.zeros(vnet.n, dtype=bool)
        self.pending = np.zeros(vnet.n, dtype=np.int64)
        # Per-round scatter buffer, preallocated once.
        self._hops = np.empty(vnet.n, dtype=np.int64)

    def round_budget(self):
        return self.shared["num_classes"] * int(self.shared["beta"])

    def sweep_send(self, rnd):
        vnet = self.vnet
        r0 = rnd - 1
        hops = self._hops
        np.copyto(hops, self.pending)
        senders = self.pending >= 1
        self.pending[:] = 0
        if r0 % self.beta == 0:
            deciders = (self.cls == r0 // self.beta) & ~self.ruled
            self.selected |= deciders
            self.ruled |= deciders
            hops[deciders] = self.beta
            senders = senders | deciders
        edges = np.flatnonzero(senders[vnet.owner])
        return edges, hops[vnet.owner[edges]]

    def sweep_receive(self, rnd, slots, payloads):
        if slots.shape[0]:
            receivers = self.vnet.owner[slots]
            self.ruled[receivers] = True
            np.maximum.at(self.pending, receivers, payloads - 1)

    def outputs_all(self):
        return self.selected


class ArbdefectiveSweepKernel(ClassSweepKernel):
    """Batch form of the arbdefective bucket sweep
    (``arbdefective:class-sweep``).

    After ``offset`` idle rounds (the accounted cost of the base proper
    coloring), class rank ``r`` decides in round ``offset + r + 1``: it
    takes the least-loaded bucket (ties to the lowest, matching the
    node program's ``min`` key), marks its half-edges towards same-bucket
    finalized neighbors as outgoing, and announces ``("bucket", b)``.
    Receivers scatter the announcement into per-bucket load counters and
    the per-port bucket table.  Knowledge: per node its class ``rank``;
    shared, ``num_classes``, ``offset`` and ``num_buckets``.
    """

    classes_key = "rank"

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        self.offset = int(shared["offset"])
        self.num_buckets = int(shared["num_buckets"])
        self.loads = np.zeros((vnet.n, self.num_buckets), dtype=np.int64)
        self.bucket = np.full(vnet.n, -1, dtype=np.int64)
        # slot_bucket[k]: announced bucket of the neighbor behind
        # half-edge k (0 = not yet announced; buckets are 1-based).
        self.slot_bucket = np.zeros(vnet.dest.shape[0], dtype=np.int64)
        self.out_edge = np.zeros(vnet.dest.shape[0], dtype=bool)

    def round_budget(self):
        return int(self.shared["offset"]) + self.shared["num_classes"]

    def sweep_send(self, rnd):
        vnet = self.vnet
        r0 = rnd - 1
        if r0 < self.offset:
            return np.empty(0, dtype=np.int64), None
        deciders = (self.cls == r0 - self.offset) & (self.bucket < 0)
        chosen_rows = np.flatnonzero(deciders)
        self.bucket[chosen_rows] = (
            np.argmin(self.loads[chosen_rows], axis=1) + 1
        )
        decider_edges = deciders[vnet.owner]
        self.out_edge |= decider_edges & (
            self.slot_bucket == self.bucket[vnet.owner]
        )
        edges = np.flatnonzero(decider_edges)
        return edges, self.bucket[vnet.owner[edges]]

    def sweep_receive(self, rnd, slots, payloads):
        if slots.shape[0]:
            receivers = self.vnet.owner[slots]
            np.add.at(self.loads, (receivers, payloads - 1), 1)
            self.slot_bucket[slots] = payloads

    def outputs_all(self):
        vnet = self.vnet
        out_ports: list[list[int]] = [[] for _ in range(vnet.n)]
        ks = np.flatnonzero(self.out_edge)
        owners = vnet.owner[ks]
        ports = ks - vnet.indptr[owners] + 1
        for node, port in zip(owners.tolist(), ports.tolist()):
            out_ports[node].append(port)  # half-edges are in port order
        return [
            {"bucket": bucket if bucket >= 0 else None, "out_ports": ports}
            for bucket, ports in zip(self.bucket.tolist(), out_ports)
        ]


class GlobalOrientationKernel(VectorizedAlgorithm):
    """Batch form of the 0-round sinkless orientation
    (``sinkless-orientation:global``).

    The orientation is global knowledge computed by the algorithm's
    ``program()``; every node halts at init with its outgoing ports, so
    the engine loop never runs — the kernel exercises the 0-round /
    empty-graph path of the contract.  Knowledge: per node its sorted
    ``out_ports``.
    """

    def init_all(self):
        self.halted[:] = True

    def outputs_all(self):
        out_ports = self.per_node["out_ports"]
        return [out_ports[node] for node in self.vnet.nodes]


class LubyMISKernel(VectorizedAlgorithm):
    """Batch form of Luby's randomized MIS (``mis:luby``).

    A phase is two engine rounds: (0) every live node draws a fresh value
    and broadcasts it — a node strictly above *all* values it received
    (vacuously, above none) moves to "joining"; (1) joiners announce,
    halt in the MIS, and their still-active neighbors halt out.

    A node live in phase ``p`` has drawn once in every phase before, so
    its value is call ``p`` of its ``random.Random``: ``rng_for`` (the
    program's :class:`~repro.local.mersenne.RandomStreams`) hands the
    live nodes' values over as one array, replayed without building a
    generator per node.
    """

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        self.values = np.zeros(vnet.n, dtype=np.float64)
        self.joining = np.zeros(vnet.n, dtype=bool)
        self.result = np.zeros(vnet.n, dtype=bool)
        # Per-round scratch, preallocated once (see ProposalMatchingKernel).
        self._best = np.empty(vnet.n, dtype=np.float64)
        self._got_joined = np.empty(vnet.n, dtype=bool)

    def init_all(self):
        isolated = self.vnet.degrees == 0
        self.result[isolated] = True
        self.halted[isolated] = True

    def send_all(self, rnd):
        vnet = self.vnet
        if (rnd - 1) % 2 == 0:
            active = np.flatnonzero(~self.halted)
            self.values[active] = self.rng_for.draw((rnd - 1) // 2, active)
            edges = np.flatnonzero(~self.halted[vnet.owner])
            return edges, self.values[vnet.owner[edges]]
        edges = np.flatnonzero(self.joining[vnet.owner])
        return edges, None

    def receive_all(self, rnd, slots, payloads):
        vnet = self.vnet
        receivers = vnet.owner[slots]
        if (rnd - 1) % 2 == 0:
            best = self._best
            best.fill(-np.inf)
            np.maximum.at(best, receivers, payloads)
            self.joining = ~self.halted & (self.values > best)
        else:
            got_joined = self._got_joined
            got_joined.fill(False)
            got_joined[receivers] = True
            join = self.joining & ~self.halted
            out = got_joined & ~self.halted & ~join
            self.result[join] = True
            self.halted[join | out] = True
            self.joining[:] = False

    def outputs_all(self):
        return self.result


register_kernel("matching:proposal", ProposalMatchingKernel)
register_kernel("mis:luby", LubyMISKernel)
register_kernel("coloring:class-sweep", ColoringSweepKernel)
register_kernel("ruling-set:class-sweep", RulingSweepKernel)
register_kernel("arbdefective:class-sweep", ArbdefectiveSweepKernel)
register_kernel("sinkless-orientation:global", GlobalOrientationKernel)
