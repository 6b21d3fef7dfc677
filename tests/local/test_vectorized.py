"""The vectorized engine: CSR array compilation, kernel dispatch, the
drop rule over arrays, and the refusal of programs without a kernel."""

import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.api.types import MessagePassingProgram
from repro.graphs import cage, cycle
from repro.local import EngineProbe, Network, NodeAlgorithm
from repro.local.simulator import RoundTrace
from repro.local.vectorized import (
    KERNELS,
    VectorizedAlgorithm,
    VectorNetwork,
    run_vectorized,
)
from repro.utils import SimulationError


class _EchoIds(NodeAlgorithm):
    """One round: send own ID, collect neighbor IDs, halt."""

    def send(self):
        return {port: self.ctx.node_id for port in self.ctx.ports}

    def receive(self, messages):
        self.halt(sorted(messages.values()))


class _BroadcastOnce(VectorizedAlgorithm):
    """Toy kernel: round 1, every live node announces on every port, then
    everyone halts.  Nodes whose ``pre_halted`` flag is set halt in init —
    messages addressed to them must be dropped by the engine."""

    def __init__(self, vnet, per_node, shared, rng_for=None):
        super().__init__(vnet, per_node, shared, rng_for=rng_for)
        self.heard = np.zeros(vnet.n, dtype=np.int64)

    def init_all(self):
        pre_halted = self.per_node["pre_halted"]
        for i, node in enumerate(self.vnet.nodes):
            if pre_halted[node]:
                self.halted[i] = True

    def send_all(self, rnd):
        return np.flatnonzero(~self.halted[self.vnet.owner]), None

    def receive_all(self, rnd, slots, payloads):
        np.add.at(self.heard, self.vnet.owner[slots], 1)
        self.halted[:] = True

    def outputs_all(self):
        return self.heard.tolist()


class _BroadcastOnceNode(NodeAlgorithm):
    """Per-node twin of :class:`_BroadcastOnce` for the object engine."""

    def init(self):
        if self.ctx.extra["pre_halted"]:
            self.halt(0)

    def send(self):
        return {port: "ping" for port in self.ctx.ports}

    def receive(self, messages):
        self.halt(len(messages))


class _NeverHalts(VectorizedAlgorithm):
    def outputs_all(self):
        return [None] * self.vnet.n


def _broadcast_program(nodes, pre_halted) -> MessagePassingProgram:
    """One declaration for both forms of the broadcast toy."""
    return MessagePassingProgram(
        factory=_BroadcastOnceNode,
        kernel="test:broadcast",
        per_node={"pre_halted": {node: node in pre_halted for node in nodes}},
    )


def _run(engine, network, program, **kwargs):
    return api.resolve_engine(engine).run(network, program, **kwargs)


def _with_isolated_nodes():
    """A triangle with isolated nodes before, between and after it."""
    graph = nx.Graph()
    graph.add_nodes_from([7, 3])
    graph.add_edges_from([(0, 1), (1, 2), (2, 0)])
    graph.add_node(9)
    return graph


#: Networks the default regular double covers never produce, plus one
#: such cover, the only entry built from arrays.  String and tuple labels
#: sort differently by ``str`` than in insertion order, and random IDs
#: reorder every node's ports.
PORT_MAP_NETWORKS = {
    "petersen": lambda: Network(graph=cage("petersen")[0]),
    "empty": lambda: Network(graph=nx.Graph()),
    "isolated-nodes": lambda: Network(graph=_with_isolated_nodes()),
    "star": lambda: Network(graph=nx.star_graph(6)),
    "components": lambda: Network(
        graph=nx.disjoint_union(cycle(5), nx.complete_graph(4))
    ),
    "string-labels": lambda: Network(
        graph=nx.relabel_nodes(cycle(12), lambda v: f"n{v}")
    ),
    "tuple-labels": lambda: Network(graph=nx.grid_2d_graph(3, 4)),
    "random-ids": lambda: Network(
        graph=nx.gnp_random_graph(40, 0.1, seed=3)
    ).with_random_ids(seed=11),
    "default-cover": lambda: api.family_network(
        api.ProblemSpec.parse("matching:delta=3,x=0,y=1"), n=40, seed=1
    ),
}


#: CSR inputs for the sort-order test: the port-map networks plus default
#: networks at a larger n, with default and with random IDs.
CSR_NETWORKS = {
    **PORT_MAP_NETWORKS,
    "default-regular": lambda: api.family_network(
        api.ProblemSpec.parse("mis:delta=4"), n=2000, seed=2
    ),
    "default-cover-2000": lambda: api.family_network(
        api.ProblemSpec.parse("matching:delta=4,x=0,y=1"), n=2000, seed=2
    ),
    "default-random-ids": lambda: api.family_network(
        api.ProblemSpec.parse("mis:delta=3"), n=500, seed=4
    ).with_random_ids(seed=5),
}


def _lexsort_csr(edges: np.ndarray, rank: np.ndarray) -> tuple:
    """``(owner, dest, reverse)`` with the half-edges ordered by one
    ``np.lexsort`` on (owner, rank of dest): the reference order."""
    m = edges.shape[0]
    owner = np.concatenate((edges[:, 0], edges[:, 1]))
    dest = np.concatenate((edges[:, 1], edges[:, 0]))
    order = np.lexsort((rank[dest], owner))
    position = np.empty_like(order)
    position[order] = np.arange(2 * m)
    twin = np.concatenate((np.arange(m, 2 * m), np.arange(m)))
    return owner[order], dest[order], position[twin[order]]


class TestVectorNetwork:
    @pytest.mark.parametrize(
        "build", PORT_MAP_NETWORKS.values(), ids=PORT_MAP_NETWORKS.keys()
    )
    def test_arrays_match_port_maps(self, build):
        network = build()
        vnet = VectorNetwork.of(network)
        assert vnet.nodes == tuple(network.graph.nodes)
        assert vnet.indptr[-1] == 2 * network.graph.number_of_edges()
        index = {node: i for i, node in enumerate(vnet.nodes)}
        for i, node in enumerate(vnet.nodes):
            degree = network.graph.degree(node)
            assert vnet.degrees[i] == degree
            # Ports follow neighbor IDs, whichever constructor built the CSR.
            by_id = sorted(network.graph.neighbors(node), key=network.ids.get)
            for port in range(1, degree + 1):
                k = vnet.indptr[i] + port - 1
                neighbor = network.via_port(node, port)
                assert neighbor == by_id[port - 1]
                assert vnet.owner[k] == i
                assert vnet.dest[k] == index[neighbor]
                # reverse[k] is the receiver-side slot: the half-edge of
                # (neighbor, back port) — scattering to it IS delivery.
                back = network.port_to(neighbor, node)
                assert vnet.reverse[k] == vnet.indptr[index[neighbor]] + back - 1

    @pytest.mark.parametrize("build", CSR_NETWORKS.values(), ids=CSR_NETWORKS.keys())
    def test_one_key_sort_equals_lexsort(self, build):
        network = build()
        edges = network._edges  # the arrays a default network is built from
        if edges is None:
            index = network.index
            edges = np.array(
                [[index[u], index[v]] for u, v in network.graph.edges], dtype=np.int64
            ).reshape(-1, 2)
        expected = _lexsort_csr(edges, network.id_rank)
        for vnet in (network.csr, VectorNetwork.from_edges(network.nodes, edges, network.id_rank)):
            for got, want in zip((vnet.owner, vnet.dest, vnet.reverse), expected):
                np.testing.assert_array_equal(got, want)

    def test_one_key_sort_equals_lexsort_with_a_self_loop(self):
        # The checkers build a bare graph's CSR, where a self-loop counts
        # twice; its two half-edges tie on the sort key.
        graph = cycle(6)
        graph.add_edges_from([(2, 2), (4, 4)])
        edges = np.array(list(graph.edges), dtype=np.int64)
        rank = np.arange(6)[::-1].copy()
        vnet = VectorNetwork.from_edges(tuple(graph.nodes), edges, rank)
        for got, want in zip((vnet.owner, vnet.dest, vnet.reverse), _lexsort_csr(edges, rank)):
            np.testing.assert_array_equal(got, want)

    def test_of_is_memoized_per_network(self):
        network = Network(graph=cycle(5))
        assert VectorNetwork.of(network) is VectorNetwork.of(network)

    def test_n_property(self):
        assert VectorNetwork.of(Network(graph=cycle(7))).n == 7


class TestKernelDispatch:
    def test_kernel_runs_and_engine_drops_to_halted_receivers(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "test:broadcast", _BroadcastOnce)
        network = Network(graph=cycle(4))
        probe = EngineProbe()
        result = run_vectorized(
            network,
            "test:broadcast",
            {"pre_halted": {0: True, 1: False, 2: False, 3: False}},
            on_round=probe,
        )
        # Nodes 1,2,3 each broadcast on 2 ports = 6 sends; the two
        # addressed to pre-halted node 0 are dropped.
        assert result.rounds == 1
        assert probe.traces == [
            RoundTrace(
                round=1,
                live_nodes=3,
                messages_delivered=4,
                messages_dropped=2,
            )
        ]
        assert result.outputs == {0: 0, 1: 1, 2: 2, 3: 1}

    def test_nonhalting_kernel_detected(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "test:forever", _NeverHalts)
        with pytest.raises(SimulationError, match="did not halt within 5"):
            run_vectorized(Network(graph=cycle(3)), "test:forever", max_rounds=5)

    @pytest.mark.parametrize(
        "pre_halted",
        [frozenset(), frozenset({0}), frozenset({0, 2, 4}), frozenset(range(6))],
        ids=["none", "one", "alternate", "all"],
    )
    def test_drop_rule_matches_object_engine(self, monkeypatch, pre_halted):
        """The engine's array drop rule, not a kernel's, decides what an
        init-halted receiver loses: results and per-round traces must equal
        the object engine's for every halting pattern, down to a zero-round
        run when every node halts in init."""
        monkeypatch.setitem(KERNELS, "test:broadcast", _BroadcastOnce)

        def run(engine):
            network = Network(graph=cycle(6))
            program = _broadcast_program(network.graph.nodes, pre_halted)
            probe = EngineProbe()
            result = _run(engine, network, program, probe=probe)
            return result, probe.traces

        kernel_run = run("vectorized")
        assert kernel_run == run("object")
        assert kernel_run[0].rounds == (0 if len(pre_halted) == 6 else 1)

    def test_shipped_programs_name_registered_kernels(self):
        """Every registered algorithm runs on the vectorized engine: a
        program without a kernel, or with a renamed one, would raise at
        dispatch."""
        cases = [
            ("matching:proposal", "matching:delta=3,x=0,y=1"),
            ("mis:aapr23", "mis:delta=3"),
            ("mis:luby", "mis:delta=3"),
            ("coloring:class-sweep", "coloring:delta=3,colors=4"),
            ("ruling-set:class-sweep", "ruling-set:delta=3,colors=1,beta=2"),
            ("arbdefective:class-sweep", "arbdefective:delta=4,colors=2"),
            ("sinkless-orientation:global", "sinkless-orientation:delta=3"),
        ]
        for algorithm_name, spec_text in cases:
            algorithm = api.resolve_algorithm(algorithm_name)
            spec = api.ProblemSpec.parse(spec_text)
            network = algorithm.default_network(spec, n=16, seed=0)
            program = algorithm.program(network, spec, {})
            assert program.kernel in KERNELS, algorithm_name


class TestKernelRequired:
    """The vectorized engine runs kernels only; there is no per-node path."""

    def test_program_without_kernel_raises(self):
        network = Network(graph=cycle(4))
        program = MessagePassingProgram(factory=_EchoIds)
        assert _run("object", network, program).rounds == 1
        with pytest.raises(SimulationError, match="unknown kernel None") as exc:
            _run("vectorized", network, program)
        assert "engine='object'" in str(exc.value)

    def test_unknown_kernel_raises(self):
        """A program naming an unregistered kernel (a typo, or a kernel
        renamed without its program) fails with the same error."""
        network = Network(graph=cycle(4))
        with pytest.raises(SimulationError, match="unknown kernel") as exc:
            run_vectorized(network, "no-such-kernel")
        # The message names the typo, the registry and the way out.
        assert "no-such-kernel" in str(exc.value)
        assert "matching:proposal" in str(exc.value)
        assert "engine='object'" in str(exc.value)


class TestKernelTraceParity:
    """Per-round traces (live/delivered/dropped), not just outputs, agree
    with the object engine when a kernel dispatches."""

    @pytest.mark.parametrize(
        "algorithm_name,spec_text",
        [
            ("matching:proposal", "matching:delta=3,x=0,y=1"),
            ("mis:aapr23", "mis:delta=3"),
            ("mis:luby", "mis:delta=3"),
            ("coloring:class-sweep", "coloring:delta=3,colors=4"),
            ("ruling-set:class-sweep", "ruling-set:delta=3,colors=1,beta=2"),
            ("arbdefective:class-sweep", "arbdefective:delta=4,colors=2"),
            ("sinkless-orientation:global", "sinkless-orientation:delta=3"),
        ],
    )
    def test_traces_match(self, algorithm_name, spec_text):
        algorithm = api.resolve_algorithm(algorithm_name)
        spec = api.ProblemSpec.parse(spec_text)

        def run(engine):
            network = algorithm.default_network(spec, n=16, seed=0)
            program = algorithm.program(network, spec, {})
            probe = EngineProbe()
            result = _run(engine, network, program, probe=probe)
            return result, probe.traces

        assert run("vectorized") == run("object")


def _coloring_program(network, options):
    algorithm = api.resolve_algorithm("coloring:class-sweep")
    spec = api.ProblemSpec.parse("coloring:delta=3,colors=4")
    return algorithm.program(network, spec, options)


class TestSweepKernelEdges:
    def test_payload_scatter_announces_final_colors(self):
        """The payload-bearing exemplar: each announced ``("final", c)``
        payload must actually land in the receiver's seen-colors row —
        chained classes down a path make every mex depend on the
        neighbor's payload from the previous round."""
        network = Network(graph=nx.path_graph(5))
        program = _coloring_program(
            network, {"initial_coloring": {i: i for i in range(5)}}
        )
        result = _run("vectorized", network, program)
        # mex down the path: each value is dictated by the announced
        # color of the already-final neighbor, so a lost payload shows.
        assert result.outputs == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        assert result.rounds == 5

    def test_empty_graph_runs_zero_rounds(self):
        network = Network(graph=nx.Graph())
        program = _coloring_program(network, {})
        result = _run("vectorized", network, program)
        assert result.outputs == {}
        assert result.rounds == 0

    def test_num_classes_zero_halts_at_init_with_color_zero(self):
        """No classes to sweep: both engines halt everyone at init with
        color 0 in zero rounds (the per-node program's halt(0) branch)."""
        options = {"initial_coloring": dict.fromkeys(range(4), -1)}

        def run(engine):
            network = Network(graph=cycle(4))
            return _run(engine, network, _coloring_program(network, options))

        result = run("vectorized")
        assert result == run("object")
        assert result.rounds == 0
        assert result.outputs == dict.fromkeys(range(4), 0)


class TestSweepMemoryOnSkewedGraphs:
    """The coloring kernel's seen-colors bitmap is ``min(Δ + 1,
    num_classes)`` columns wide: a class-c node's mex is at most c.  On
    a star K_{1,k} the greedy default has two classes, so the coloring
    solve, and the arbdefective solve that takes its base coloring from
    that kernel, stay linear in n.  A Δ + 1 wide bitmap took n² bytes
    there (100 MB at k = 10⁴).  Measured tracemalloc peaks at k = 10⁴
    (network, solve and ``canonical_json``): coloring 308 B a node
    against 2,517 B on the object engine, arbdefective 498 B against
    3,029 B."""

    @pytest.mark.parametrize(
        "problem,algorithm",
        [
            ("coloring:delta=10000", "coloring:class-sweep"),
            ("arbdefective:delta=10000,colors=2", "arbdefective:class-sweep"),
        ],
        ids=["coloring", "arbdefective"],
    )
    def test_star_solves_in_linear_memory(self, problem, algorithm):
        graph = nx.star_graph(10_000)

        def traced(engine):
            tracemalloc.start()
            try:
                report = api.solve(
                    problem, algorithm=algorithm, engine=engine, graph=graph
                )
                text = report.canonical_json()
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.valid
            return text, peak

        text, peak = traced("vectorized")
        reference, object_peak = traced("object")
        assert text == reference
        assert peak < 1024 * graph.number_of_nodes()
        assert peak < object_peak
