"""Tests for the LOCAL / Supported LOCAL simulator."""

import networkx as nx
import pytest

from repro.graphs import cage, cycle
from repro.local import (
    EngineProbe,
    Network,
    NodeAlgorithm,
    SupportedInstance,
    collect_supported_view,
    collect_view,
    run_supported_view_algorithm,
    run_synchronous,
    timed,
)
from repro.utils import LocalityViolationError, SimulationError


class TestNetwork:
    def test_canonical_ids(self):
        network = Network(graph=cycle(4))
        assert sorted(network.ids.values()) == [1, 2, 3, 4]

    def test_ports_are_consistent(self):
        network = Network(graph=cycle(5))
        for node in network.graph.nodes:
            for port in range(1, network.graph.degree(node) + 1):
                neighbor = network.via_port(node, port)
                assert network.port_to(node, neighbor) == port

    def test_random_ids_distinct(self):
        network = Network(graph=cycle(6)).with_random_ids(seed=1)
        assert len(set(network.ids.values())) == 6

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError):
            Network(graph=cycle(3), ids={0: 1, 1: 1, 2: 2})

    def test_ids_must_name_exactly_the_nodes(self):
        with pytest.raises(SimulationError, match="^node 0 has no ID$"):
            Network(graph=nx.path_graph(3), ids={"a": 1, "b": 2, "c": 3})
        with pytest.raises(
            SimulationError, match="^ID given for 'x', which is not a graph node$"
        ):
            Network(graph=nx.path_graph(2), ids={0: 1, 1: 2, "x": 3})

    def test_self_loop_rejected(self):
        graph = nx.path_graph(["a", "b", "c"])
        graph.add_edge("c", "c")
        with pytest.raises(SimulationError, match="^node 'c' has a self-loop"):
            Network(graph=graph)

    def test_ports_follow_neighbor_ids(self):
        graph = nx.gnp_random_graph(30, 0.2, seed=5)
        network = Network(graph=graph).with_random_ids(seed=3)
        for node in graph.nodes:
            expected = sorted(graph.neighbors(node), key=network.ids.get)
            assert network.neighbors(node) == expected
            assert [network.via_port(node, p) for p in range(1, len(expected) + 1)] == expected


class _EchoIds(NodeAlgorithm):
    """One round: send own ID, collect neighbor IDs, halt."""

    def init(self):
        self.collected = {}

    def send(self):
        return {port: self.ctx.node_id for port in self.ctx.ports}

    def receive(self, messages):
        self.collected = dict(messages)
        self.halt(sorted(self.collected.values()))


class TestMessagePassing:
    def test_one_round_id_exchange(self):
        network = Network(graph=cycle(4))
        result = run_synchronous(network, _EchoIds)
        assert result.rounds == 1
        for node in network.graph.nodes:
            expected = sorted(
                network.ids[neighbor] for neighbor in network.graph.neighbors(node)
            )
            assert result.outputs[node] == expected

    def test_nonhalting_algorithm_detected(self):
        class Forever(NodeAlgorithm):
            pass

        network = Network(graph=cycle(3))
        with pytest.raises(SimulationError):
            run_synchronous(network, Forever, max_rounds=5)

    def test_invalid_port_detected(self):
        class BadPort(NodeAlgorithm):
            def send(self):
                return {99: "boom"}

            def receive(self, messages):
                self.halt(None)

        network = Network(graph=cycle(3))
        with pytest.raises(SimulationError):
            run_synchronous(network, BadPort)


class TestViews:
    def test_view_radius_content(self):
        network = Network(graph=cycle(8))
        view = collect_view(network, 0, radius=2)
        assert set(view.subgraph.nodes) == {6, 7, 0, 1, 2}

    def test_view_locality_enforced(self):
        network = Network(graph=cycle(8))
        view = collect_view(network, 0, radius=1)
        with pytest.raises(LocalityViolationError):
            view.id_of(4)


class TestSupportedViews:
    def test_support_graph_fully_visible(self):
        petersen, _d, _g = cage("petersen")
        instance = SupportedInstance.from_graphs(
            petersen, [list(petersen.edges)[0]]
        )
        view = instance.view(0, radius=0)
        assert view.support.number_of_nodes() == 10  # all of G, radius 0

    def test_input_marks_limited_by_radius(self):
        graph = cycle(8)
        edges = list(graph.edges)
        instance = SupportedInstance.from_graphs(graph, edges)
        view = instance.view(0, radius=0)
        # Own edges visible…
        assert view.is_input_edge(0, 1)
        # …distant marks are not.
        with pytest.raises(LocalityViolationError):
            view.is_input_edge(4, 5)

    def test_marks_propagate_with_radius(self):
        graph = cycle(8)
        instance = SupportedInstance.from_graphs(graph, list(graph.edges))
        view = instance.view(0, radius=3)
        assert view.is_input_edge(3, 4)  # incident to distance-3 node

    def test_foreign_input_edge_rejected(self):
        graph = cycle(4)
        with pytest.raises(SimulationError):
            SupportedInstance.from_graphs(graph, [(0, 2)])

    def test_input_degree(self):
        graph = cycle(6)
        instance = SupportedInstance.from_graphs(graph, [(0, 1), (1, 2)])
        assert instance.input_degree == 2

    def test_supported_runner(self):
        graph = cycle(6)
        instance = SupportedInstance.from_graphs(graph, [(0, 1)])
        result = run_supported_view_algorithm(
            instance,
            radius=1,
            rule=lambda view: len(view.input_neighbors(view.center)),
        )
        assert result.outputs[0] == 1
        assert result.outputs[3] == 0


class _InitHalter(NodeAlgorithm):
    """Halts during init() when told to; otherwise pings all neighbors once."""

    def init(self):
        if self.ctx.extra["halts_in_init"]:
            self.halt("init-halted")

    def send(self):
        return {port: "ping" for port in self.ctx.ports}

    def receive(self, messages):
        self.halt(sorted(messages.values()))


class TestInitHalting:
    """Nodes that halt during init() stay silent and unreachable.

    Regression tests: before the delivery guard, messages addressed to an
    init-halted node were retained in its inbox; now they are dropped and
    counted, and the run completes with only live nodes exchanging data.
    """

    def test_messages_to_init_halted_nodes_are_dropped(self):
        # C4 with IDs 1..4 on nodes 0..3: halt the even nodes in init.
        network = Network(graph=cycle(4))
        halted_nodes = {node for node in network.graph.nodes if node % 2 == 0}
        probe = EngineProbe()
        result = run_synchronous(
            network,
            _InitHalter,
            extra=lambda node: {"halts_in_init": node in halted_nodes},
            on_round=probe,
        )
        measurement = probe.summarize()
        assert result.rounds == 1
        for node in halted_nodes:
            assert result.outputs[node] == "init-halted"
        # On C4 both neighbors of a live node halted in init, so every live
        # node received nothing and every sent message was dropped.
        for node in set(network.graph.nodes) - halted_nodes:
            assert result.outputs[node] == []
        assert measurement.messages_delivered == 0
        assert measurement.messages_dropped == 4  # 2 live nodes x 2 ports

    def test_live_nodes_still_communicate(self):
        # C6 with a single init-halted node: its two neighbors lose one
        # inbox entry each; everyone else has a full inbox.
        network = Network(graph=cycle(6))
        probe = EngineProbe()
        result = run_synchronous(
            network,
            _InitHalter,
            extra=lambda node: {"halts_in_init": node == 0},
            on_round=probe,
        )
        measurement = probe.summarize()
        assert result.outputs[0] == "init-halted"
        assert result.outputs[1] == ["ping"]   # lost the message from 0
        assert result.outputs[5] == ["ping"]
        assert result.outputs[3] == ["ping", "ping"]
        assert measurement.messages_dropped == 2
        assert measurement.messages_delivered == 8

    def test_all_nodes_halting_in_init_is_a_zero_round_run(self):
        network = Network(graph=cycle(5))
        result = run_synchronous(
            network, _InitHalter, extra=lambda node: {"halts_in_init": True}
        )
        assert result.rounds == 0
        assert set(result.outputs.values()) == {"init-halted"}

    def test_halting_during_send_with_messages_rejected(self):
        class SilenceViolator(NodeAlgorithm):
            def send(self):
                self.halt("done")
                return {port: "x" for port in self.ctx.ports}

        network = Network(graph=cycle(3))
        with pytest.raises(SimulationError, match="halted during send"):
            run_synchronous(network, SilenceViolator)

    def test_halting_silently_during_send_is_allowed(self):
        class SilentQuitter(NodeAlgorithm):
            def send(self):
                self.halt("quit")
                return {}

        network = Network(graph=cycle(3))
        result = run_synchronous(network, SilentQuitter)
        assert result.rounds == 1
        assert set(result.outputs.values()) == {"quit"}


class TestMeasurement:
    def test_probe_traces_every_round(self):
        network = Network(graph=cycle(4))
        probe = EngineProbe()
        result = run_synchronous(network, _EchoIds, on_round=probe)
        assert len(probe.traces) == result.rounds == 1
        trace = probe.traces[0]
        assert trace.live_nodes == 4
        assert trace.messages_delivered == 8
        assert trace.messages_dropped == 0

    def test_measured_run_summary(self):
        network = Network(graph=cycle(4))
        probe = EngineProbe()
        result, seconds = timed(run_synchronous, network, _EchoIds, on_round=probe)
        measurement = probe.summarize(wall_seconds=seconds)
        assert measurement.rounds == result.rounds
        assert measurement.wall_seconds > 0
        assert measurement.peak_live_nodes == 4
        assert measurement.as_record() == {
            "rounds": 1,
            "messages_delivered": 8,
            "messages_dropped": 0,
            "peak_live_nodes": 4,
        }
