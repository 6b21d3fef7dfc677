"""Synchronous message-passing engine (the LOCAL model's round structure).

Each node runs an instance of a :class:`NodeAlgorithm`; a round consists
of (1) every node emitting messages per port, (2) delivery, (3) every node
processing its inbox.  Messages and local computation are unbounded, as in
the model; the engine counts rounds until every node has halted with an
output, which is how upper-bound experiments measure round complexity.

The view formulation used throughout the paper's proofs — a T-round
algorithm given as a function of the radius-T view
(:mod:`repro.local.views`) — runs through
:func:`repro.local.supported.run_supported_view_algorithm`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.local.network import Network
from repro.utils import SimulationError


class NodeAlgorithm:
    """Base class for per-node message-passing algorithms.

    Subclasses override :meth:`init`, :meth:`send` and :meth:`receive`;
    they call :meth:`halt` with their final output.  State lives on the
    instance (one instance per node).
    """

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx
        self.output = None
        self.halted = False

    def init(self) -> None:
        """Round-0 initialization (before any communication)."""

    def send(self) -> dict[int, object]:
        """Messages to emit this round, keyed by port."""
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        """Process this round's inbox, keyed by port."""

    def halt(self, output) -> None:
        """Commit the final output; the node stays silent afterwards."""
        self.output = output
        self.halted = True


@dataclass(frozen=True)
class NodeContext:
    """Immutable per-node knowledge: the model's initial information."""

    node: object
    node_id: int
    degree: int
    n: int
    max_degree: int
    ports: tuple[int, ...]
    random_bits: object = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunResult:
    """Outputs plus the measured round complexity.

    ``outputs`` maps each node to its output, in node order: a dict from
    this engine, a read-only :class:`~repro.local.dense.NodeValues` over
    the kernel's arrays from the vectorized one (equal to the dict).
    """

    outputs: Mapping
    rounds: int


@dataclass(frozen=True)
class RoundTrace:
    """Per-round engine observations, fed to ``on_round`` observers."""

    round: int
    live_nodes: int
    messages_delivered: int
    messages_dropped: int


def run_synchronous(
    network: Network,
    factory: Callable[[NodeContext], NodeAlgorithm],
    max_rounds: int = 10_000,
    extra: Callable[[object], dict] | None = None,
    rng_for: Callable[[object], object] | None = None,
    on_round: Callable[[RoundTrace], None] | None = None,
) -> RunResult:
    """Run a message-passing algorithm until every node halts.

    ``extra`` injects per-node auxiliary knowledge (e.g. full support-graph
    information in Supported LOCAL experiments); ``rng_for`` injects a
    per-node random source for randomized algorithms; ``on_round`` observes
    a :class:`RoundTrace` after each round (the measurement hook used by
    :mod:`repro.local.measurement`).

    Halting semantics: a node that halts — even during :meth:`init`, before
    any communication — is silent for the rest of the run.  Messages
    addressed to an already-halted node are dropped at delivery (counted in
    the round trace), and a node whose :meth:`send` returns messages after
    calling :meth:`halt` is rejected as a protocol violation.
    """
    algorithms: dict[object, NodeAlgorithm] = {}
    graph = network.graph
    for node in graph.nodes:
        context = NodeContext(
            node=node,
            node_id=network.ids[node],
            degree=graph.degree(node),
            n=network.n,
            max_degree=network.max_degree,
            ports=tuple(range(1, graph.degree(node) + 1)),
            random_bits=rng_for(node) if rng_for else None,
            extra=extra(node) if extra else {},
        )
        algorithms[node] = factory(context)

    for algorithm in algorithms.values():
        algorithm.init()

    rounds = 0
    while any(not algorithm.halted for algorithm in algorithms.values()):
        rounds += 1
        if rounds > max_rounds:
            raise SimulationError(
                f"algorithm did not halt within {max_rounds} rounds"
            )
        outbox: dict[object, dict[int, object]] = {}
        live_nodes = 0
        for node, algorithm in algorithms.items():
            if algorithm.halted:
                continue
            live_nodes += 1
            messages = algorithm.send() or {}
            # Port keys may be heterogeneous (e.g. {"a": m, 99: m}), so
            # error paths sort by str: the violation must surface as a
            # SimulationError, never a TypeError from sorted().
            if algorithm.halted and messages:
                raise SimulationError(
                    f"node {node!r} halted during send() but still emitted "
                    f"messages on ports {sorted(messages, key=str)}"
                )
            # Set membership is the port-key coercion contract: any key
            # equal to an int in 1..deg names that port (True, 1.0,
            # Fraction(1, 1)); anything else is stray.
            stray = set(messages) - set(range(1, graph.degree(node) + 1))
            if stray:
                raise SimulationError(
                    f"node {node!r} sent on invalid ports {sorted(stray, key=str)}"
                )
            outbox[node] = messages
        # Inboxes exist only for live nodes: a halted node (including one
        # that halted during init()) never receives, so messages addressed
        # to it are dropped here rather than silently retained.
        inbox: dict[object, dict[int, object]] = {
            node: {}
            for node, algorithm in algorithms.items()
            if not algorithm.halted
        }
        delivered = dropped = 0
        for node, messages in outbox.items():
            for port, payload in messages.items():
                neighbor = network.via_port(node, port)
                if neighbor not in inbox:
                    dropped += 1
                    continue
                back_port = network.port_to(neighbor, node)
                inbox[neighbor][back_port] = payload
                delivered += 1
        for node, messages in inbox.items():
            algorithms[node].receive(messages)
        if on_round is not None:
            on_round(
                RoundTrace(
                    round=rounds,
                    live_nodes=live_nodes,
                    messages_delivered=delivered,
                    messages_dropped=dropped,
                )
            )

    return RunResult(
        outputs={node: algorithm.output for node, algorithm in algorithms.items()},
        rounds=rounds,
    )
