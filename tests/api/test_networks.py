"""Default networks: built from arrays, equal to the networkx build.

The oracle is the build the arrays replace: ``nx.random_regular_graph``,
``bipartite_double_cover`` and ``Network(graph=…)``, whose IDs rank the
nodes by ``str`` and whose ports follow neighbor IDs.
"""

import pickle
import random
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.api import family_network
from repro.api.networks import str_rank
from repro.api.types import ProblemSpec
from repro.graphs import bipartite_double_cover
from repro.local import Network


def _networkx_build(spec: str, n: int, seed: int) -> Network:
    """The default network as it was built through networkx."""
    parsed = ProblemSpec.parse(spec)
    delta = parsed.param("delta", 3)
    if parsed.family in ("matching", "maximal-matching"):
        n = max(n // 2, delta + 1)
    elif parsed.family == "sinkless-orientation":
        delta = max(delta, 2)
    n = max(n, delta + 1)
    n += n * delta % 2
    graph = nx.random_regular_graph(delta, n, seed=seed)
    if parsed.family in ("matching", "maximal-matching"):
        graph = bipartite_double_cover(graph)
    return Network(graph=graph)


def _assert_same_network(spec: str, n: int, seed: int) -> None:
    built = family_network(ProblemSpec.parse(spec), n=n, seed=seed)
    reference = _networkx_build(spec, n, seed)
    ref_graph = reference.graph
    assert built.nodes == tuple(ref_graph.nodes)
    assert built.max_degree == reference.max_degree
    # Compared before the lazy graph exists: IDs and ports come from the
    # arrays alone.
    assert list(built.ids.items()) == list(reference.ids.items())
    for node in ref_graph.nodes:
        by_id = sorted(ref_graph.neighbors(node), key=reference.ids.get)
        assert built.neighbors(node) == by_id
    assert built._graph is None
    graph = built.graph
    assert list(graph.nodes(data=True)) == list(ref_graph.nodes(data=True))
    assert [(u, list(nbrs)) for u, nbrs in graph.adjacency()] == [
        (u, list(nbrs)) for u, nbrs in ref_graph.adjacency()
    ]


_SPECS = (
    "matching:delta=4,x=0,y=1",
    "maximal-matching:delta=3",
    "mis:delta=4",
    "sinkless-orientation:delta=3",
)


class TestDefaultNetworks:
    @pytest.mark.parametrize("spec", _SPECS)
    @pytest.mark.parametrize("n", [8, 64, 500, 2048])
    def test_equal_to_networkx_build(self, spec, n):
        for seed in range(3):
            _assert_same_network(spec, n, seed)

    @pytest.mark.parametrize("delta", [2, 3, 5])
    def test_every_cover_degree(self, delta):
        _assert_same_network(f"matching:delta={delta},x=0,y=1", 300, seed=1)

    def test_cover_colors_sides(self):
        network = family_network(
            ProblemSpec.parse("matching:delta=3,x=0,y=1"), n=40, seed=0
        )
        colors = network.node_colors()
        assert {node: colors[node] for node in [(0, 0), (0, 1)]} == {
            (0, 0): "white",
            (0, 1): "black",
        }
        assert network._graph is None

    def test_network_pickles(self):
        network = family_network(ProblemSpec.parse("mis:delta=3"), n=50, seed=2)
        copy = pickle.loads(pickle.dumps(network))
        assert copy.neighbors(7) == network.neighbors(7)
        assert list(copy.graph.edges) == list(network.graph.edges)


class TestStrRank:
    # Digit-count boundaries: str order puts "10" between "1" and "2",
    # "100" right after "10", and "(1, 1)" before "(10, 0)".
    _VALUES = [0, 1, 2, 9, 10, 11, 19, 20, 99, 100, 101, 109, 110, 999, 1000, 1009]

    def test_ints_rank_in_str_order(self):
        values = np.array(self._VALUES + list(range(0, 12345, 7)))
        rank = str_rank(values)
        expected = sorted(range(len(values)), key=lambda i: str(int(values[i])))
        assert rank[expected].tolist() == list(range(len(values)))

    def test_pairs_rank_in_str_order(self):
        labels = [(v, s) for v in self._VALUES + list(range(0, 3000, 13)) for s in (0, 1)]
        rank = str_rank(
            np.array([v for v, _ in labels]), np.array([s for _, s in labels])
        )
        expected = sorted(range(len(labels)), key=lambda i: str(labels[i]))
        assert rank[expected].tolist() == list(range(len(labels)))

    def test_empty(self):
        assert str_rank(np.array([], dtype=np.int64)).shape == (0,)


class TestArrayOnlyMatchingSolve:
    def test_memory_budget_and_no_networkx(self):
        """The default vectorized matching solve at n = 20 000 stays under
        1.25 KB per node and never builds the graph or the port maps."""
        spec = ProblemSpec.parse("matching:delta=4,x=0,y=1")
        tracemalloc.start()
        try:
            network = family_network(spec, n=20_000, seed=0)
            report = api.solve(
                spec,
                algorithm="matching:proposal",
                engine="vectorized",
                network=network,
                seed=0,
            )
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.valid
        assert peak < 1250 * network.n
        assert network._graph is None
        assert network._ports is None and network._port_of is None


class TestArrayOnlySolvesThroughSerialization:
    """Default vectorized solves, checks and ``canonical_json`` at
    n = 20 000 read arrays only: no graph, port map or node index is
    built, and no ``random.Random`` beyond Luby's one master generator.
    Measured tracemalloc peaks per node (network build, solve and
    serialization): matching 448 B, ruling set 564 B, Luby 1,403 B.  A
    tail of per-element Python objects (set elements, n output dicts,
    ``json.dumps`` keys) measures 745 B and 953 B, over the first two
    budgets.  Luby's peak is mostly one 8,192-lane chunk of replayed
    Mersenne Twister states (20 MB, ~1 KB a node here); one
    ``random.Random`` per node measured 3,289 B a node."""

    @pytest.mark.parametrize(
        "problem,algorithm,budget",
        [
            ("matching:delta=4,x=0,y=1", "matching:proposal", 600),
            ("mis:delta=4", "mis:luby", 1750),
            ("ruling-set:delta=4,colors=1,beta=2", "ruling-set:class-sweep", 700),
        ],
    )
    def test_no_networkx_and_memory_budget(self, problem, algorithm, budget, monkeypatch):
        spec = ProblemSpec.parse(problem)
        constructed = []
        construct = random.Random.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args)
            construct(self, *args, **kwargs)

        tracemalloc.start()
        try:
            network = family_network(spec, n=20_000, seed=0)
            monkeypatch.setattr(random.Random, "__init__", counting_init)
            report = api.solve(
                spec, algorithm=algorithm, engine="vectorized", network=network, seed=0
            )
            monkeypatch.undo()
            text = report.canonical_json()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.valid
        assert text.startswith('{"algorithm":')
        assert network._graph is None
        assert network._ports is None and network._port_of is None
        assert network._index is None
        assert len(constructed) <= 1
        assert peak < budget * network.n


@pytest.mark.fuzz
class TestDefaultNetworksAtScale:
    @pytest.mark.parametrize("spec", _SPECS[:3])
    def test_equal_to_networkx_build(self, spec):
        for seed in range(2):
            _assert_same_network(spec, 20_000, seed)
