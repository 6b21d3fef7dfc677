"""The vectorized engine: CSR array compilation, kernel dispatch, the
drop rule over arrays, and the per-node fallback for unported programs."""

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.api.types import VectorizedSpec
from repro.graphs import cage, cycle
from repro.local import (
    EngineProbe,
    Network,
    NodeAlgorithm,
    run_synchronous,
)
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
    everyone halts.  Nodes named in ``data["pre_halted"]`` halt in init —
    messages addressed to them must be dropped by the engine."""

    def __init__(self, vnet, network, data, rng_for=None):
        super().__init__(vnet, network, data, rng_for=rng_for)
        self.heard = np.zeros(vnet.n, dtype=np.int64)

    def init_all(self):
        pre = self.data.get("pre_halted", ())
        for i, node in enumerate(self.vnet.nodes):
            if node in pre:
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


def _with_isolated_nodes():
    """A triangle with isolated nodes before, between and after it."""
    graph = nx.Graph()
    graph.add_nodes_from([7, 3])
    graph.add_edges_from([(0, 1), (1, 2), (2, 0)])
    graph.add_node(9)
    return graph


#: Networks the default regular double covers never produce.  String and
#: tuple labels sort differently by ``str`` than in insertion order, and
#: random IDs reorder every node's ports.
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
}


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
            for port in range(1, degree + 1):
                k = vnet.indptr[i] + port - 1
                neighbor = network.via_port(node, port)
                assert vnet.owner[k] == i
                assert vnet.dest[k] == index[neighbor]
                # reverse[k] is the receiver-side slot: the half-edge of
                # (neighbor, back port) — scattering to it IS delivery.
                back = network.port_to(neighbor, node)
                assert vnet.reverse[k] == vnet.indptr[index[neighbor]] + back - 1

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
            _EchoIds,  # factory is unused when the kernel dispatches
            on_round=probe,
            vectorized=VectorizedSpec(
                kernel="test:broadcast", data={"pre_halted": frozenset({0})}
            ),
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
            run_vectorized(
                Network(graph=cycle(3)),
                _EchoIds,
                max_rounds=5,
                vectorized=VectorizedSpec(kernel="test:forever"),
            )

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

        def run(engine, **kwargs):
            probe = EngineProbe()
            result = engine(
                Network(graph=cycle(6)),
                _BroadcastOnceNode,
                extra=lambda node: {"pre_halted": node in pre_halted},
                on_round=probe,
                **kwargs,
            )
            return result, probe.traces

        kernel_run = run(
            run_vectorized,
            vectorized=VectorizedSpec(
                kernel="test:broadcast", data={"pre_halted": pre_halted}
            ),
        )
        assert kernel_run == run(run_synchronous)
        assert kernel_run[0].rounds == (0 if len(pre_halted) == 6 else 1)

    def test_shipped_programs_name_registered_kernels(self):
        """The ported suites really dispatch to kernels — a renamed kernel
        would raise at dispatch (and an unattached spec would silently
        fall back, voiding the speedup claim)."""
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
            assert program.vectorized is not None, algorithm_name
            assert program.vectorized.kernel in KERNELS, algorithm_name


class TestFallback:
    def test_no_spec_falls_back_to_object_semantics(self):
        network = Network(graph=cycle(4))
        assert run_vectorized(network, _EchoIds) == run_synchronous(
            Network(graph=cycle(4)), _EchoIds
        )

    def test_unknown_kernel_raises_instead_of_falling_back(self):
        """A spec naming an unregistered kernel is a bug (typo'd name,
        kernel renamed without the spec): it must fail loudly, not
        silently lose the speedup to the per-node path."""
        network = Network(graph=cycle(4))
        with pytest.raises(SimulationError, match="unknown kernel") as exc:
            run_vectorized(
                network,
                _EchoIds,
                vectorized=VectorizedSpec(kernel="no-such-kernel"),
            )
        # The message names the typo and the registry contents.
        assert "no-such-kernel" in str(exc.value)
        assert "matching:proposal" in str(exc.value)

    def test_fallback_traces_match_object_engine(self):
        def run(engine):
            probe = EngineProbe()
            result = engine(
                Network(graph=cycle(6)), _EchoIds, on_round=probe
            )
            return result, probe.traces

        assert run(run_vectorized) == run(run_synchronous)


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

        def run(engine, with_spec):
            network = algorithm.default_network(spec, n=16, seed=0)
            program = algorithm.program(network, spec, {})
            probe = EngineProbe()
            kwargs = {}
            if program.rng_streams is not None:
                kwargs["rng_for"] = program.rng_streams(network, 0)
            if with_spec:
                kwargs["vectorized"] = program.vectorized
            result = engine(
                network,
                program.factory,
                extra=program.extra,
                on_round=probe,
                **kwargs,
            )
            return result, probe.traces

        assert run(run_vectorized, True) == run(run_synchronous, False)


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
        result = run_vectorized(
            network,
            program.factory,
            extra=program.extra,
            vectorized=program.vectorized,
        )
        # mex down the path: each value is dictated by the announced
        # color of the already-final neighbor, so a lost payload shows.
        assert result.outputs == {0: 0, 1: 1, 2: 0, 3: 1, 4: 0}
        assert result.rounds == 5

    def test_empty_graph_runs_zero_rounds(self):
        network = Network(graph=nx.Graph())
        program = _coloring_program(network, {})
        result = run_vectorized(
            network,
            program.factory,
            extra=program.extra,
            vectorized=program.vectorized,
        )
        assert result.outputs == {}
        assert result.rounds == 0

    def test_num_classes_zero_halts_at_init_with_color_zero(self):
        """No classes to sweep: both engines halt everyone at init with
        color 0 in zero rounds (the per-node program's halt(0) branch)."""
        options = {"initial_coloring": dict.fromkeys(range(4), -1)}

        def run(engine, with_spec):
            network = Network(graph=cycle(4))
            program = _coloring_program(network, options)
            kwargs = {"vectorized": program.vectorized} if with_spec else {}
            return engine(
                network, program.factory, extra=program.extra, **kwargs
            )

        result = run(run_vectorized, True)
        assert result == run(run_synchronous, False)
        assert result.rounds == 0
        assert result.outputs == dict.fromkeys(range(4), 0)


class TestEnginePathTelemetry:
    def test_kernel_dispatch_reported_to_probe(self):
        _result, measurement = api.simulate(
            "mis:delta=3",
            algorithm="mis:aapr23",
            engine="vectorized",
            n=16,
        )
        assert measurement.engine_path == "kernel"
        # Telemetry only: canonical records stay engine-blind.
        assert "engine_path" not in measurement.as_record()

    def test_fallback_reported_to_probe(self):
        probe = EngineProbe()
        run_vectorized(Network(graph=cycle(4)), _EchoIds, on_round=probe)
        assert probe.engine_path == "fallback"

    def test_object_engine_leaves_path_empty(self):
        _result, measurement = api.simulate(
            "mis:delta=3", algorithm="mis:aapr23", engine="object", n=16
        )
        assert measurement.engine_path == ""

    def test_external_probe_forwarded_engine_path(self):
        extern = EngineProbe()
        _result, measurement = api.simulate(
            "mis:delta=3",
            algorithm="mis:aapr23",
            engine="vectorized",
            n=16,
            probe=extern,
        )
        assert extern.engine_path == "kernel"
        assert measurement.engine_path == "kernel"
