"""Engine equivalence: every registered algorithm, on every engine, over
seeded random graphs, produces identical outputs, round counts and
canonical JSON — the contract that makes engines freely interchangeable —
and hits the round limit at the same round with the same error text.

The port-key contract of node programs' ``send()`` dicts is checked on
the object engine only: kernels address half-edges, never port dicts."""

import re
from fractions import Fraction

import networkx as nx
import pytest

from repro import api
from repro.api.engines import resolve_engine
from repro.api.types import MessagePassingProgram
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm
from repro.utils import SimulationError

#: (spec, algorithm) covering every registered algorithm at least once.
CASES = [
    ("matching:Δ=3,x=0,y=1", "matching:proposal"),
    ("maximal-matching:Δ=4", "matching:proposal"),
    ("mis:Δ=3", "mis:aapr23"),
    ("mis:Δ=3", "mis:luby"),
    ("mis:Δ=3", "ruling-set:class-sweep"),
    ("coloring:Δ=3,c=4", "coloring:class-sweep"),
    ("ruling-set:Δ=3,c=1,β=2", "ruling-set:class-sweep"),
    ("arbdefective:Δ=4,c=2", "arbdefective:class-sweep"),
    ("sinkless-orientation:Δ=3", "sinkless-orientation:global"),
]


def test_cases_cover_every_registered_algorithm():
    assert {algorithm for _spec, algorithm in CASES} == set(
        api.available_algorithms()
    )


@pytest.mark.parametrize("spec,algorithm", CASES)
@pytest.mark.parametrize("seed", [0, 7])
def test_identical_reports_on_default_random_networks(spec, algorithm, seed):
    reports = {
        engine: api.solve(
            spec, algorithm=algorithm, engine=engine, seed=seed, n=40
        )
        for engine in api.available_engines()
    }
    reference = reports["object"]
    assert reference.valid is True
    for engine, report in reports.items():
        assert report.outputs == reference.outputs, engine
        assert report.rounds == reference.rounds, engine
        assert report.messages_delivered == reference.messages_delivered, engine
        assert report.messages_dropped == reference.messages_dropped, engine
        assert report.canonical_json() == reference.canonical_json(), engine


#: (id, seed, builder) of irregular graphs: three G(48, 0.08) draws,
#: id'd by their seed (isolated nodes, mixed degrees), a star K_{1,200}
#: (one hub, skewed degrees) and a disconnected union of a 7-cycle, a
#: 5-path and four isolated nodes — shapes the default regular
#: substrates never produce.
IRREGULAR_GRAPHS = [
    *(
        (str(seed), seed, lambda seed=seed: nx.gnp_random_graph(48, 0.08, seed=seed))
        for seed in (1, 2, 3)
    ),
    ("star-200", 0, lambda: nx.star_graph(200)),
    (
        "cycle-path-isolated",
        0,
        lambda: nx.disjoint_union_all(
            [nx.cycle_graph(7), nx.path_graph(5), nx.empty_graph(4)]
        ),
    ),
]

#: algorithm → its spec on a graph of max degree Δ (at least 2).
IRREGULAR_SPECS = {
    "mis:aapr23": "mis:Δ={delta}",
    "mis:luby": "mis:Δ={delta}",
    "coloring:class-sweep": "coloring:Δ={delta}",
    "ruling-set:class-sweep": "ruling-set:Δ={delta},c=1,β=2",
    "arbdefective:class-sweep": "arbdefective:Δ={delta},c=2",
}


@pytest.mark.parametrize(
    "seed,build", [case[1:] for case in IRREGULAR_GRAPHS],
    ids=[case[0] for case in IRREGULAR_GRAPHS],
)
@pytest.mark.parametrize("algorithm", sorted(IRREGULAR_SPECS))
def test_identical_reports_on_irregular_random_graphs(seed, build, algorithm):
    """Parity must hold on non-regular graphs too, for the randomized
    MIS and every class sweep."""
    graph = build()
    delta = max((d for _n, d in graph.degree), default=0)
    spec = IRREGULAR_SPECS[algorithm].format(delta=max(delta, 2))
    reports = {
        engine: api.solve(
            spec, algorithm=algorithm, engine=engine, graph=graph, seed=seed
        )
        for engine in api.available_engines()
    }
    reference = reports["object"]
    assert reference.valid is True
    for report in reports.values():
        assert report.canonical_json() == reference.canonical_json()
        assert report.outputs == reference.outputs


#: (id, seed, builder) of irregular bipartite graphs for the proposal
#: matching, which needs a 2-coloring and so cannot run on
#: IRREGULAR_GRAPHS: three random bipartite draws B(24, 24, 0.1), id'd by
#: their seed, a star K_{1,200}, a path P_9 and a disconnected union of an
#: 8-cycle, a 5-path and four isolated nodes.
IRREGULAR_BIPARTITE_GRAPHS = [
    *(
        (
            str(seed),
            seed,
            lambda seed=seed: nx.bipartite.random_graph(24, 24, 0.1, seed=seed),
        )
        for seed in (1, 2, 3)
    ),
    ("star-200", 0, lambda: nx.star_graph(200)),
    ("path-9", 0, lambda: nx.path_graph(9)),
    (
        "cycle-path-isolated",
        0,
        lambda: nx.disjoint_union_all(
            [nx.cycle_graph(8), nx.path_graph(5), nx.empty_graph(4)]
        ),
    ),
]


@pytest.mark.parametrize(
    "seed,build", [case[1:] for case in IRREGULAR_BIPARTITE_GRAPHS],
    ids=[case[0] for case in IRREGULAR_BIPARTITE_GRAPHS],
)
@pytest.mark.parametrize("restricted", [False, True], ids=["G", "every-other-edge"])
def test_identical_matchings_on_irregular_bipartite_graphs(seed, build, restricted):
    """Matching parity beyond regular covers, on G and on G′ = every other
    edge of G in ``str`` order.  Only the runs on G must be valid: the
    checker judges maximality on G, so a matching that is maximal on G′
    may fail it — with the same reason on both engines."""
    graph = build()
    delta = max((d for _n, d in graph.degree), default=0)
    options = {}
    if restricted:
        options["input_edges"] = sorted(graph.edges, key=str)[::2]
    reports = {
        engine: api.solve(
            f"maximal-matching:Δ={max(delta, 2)}",
            algorithm="matching:proposal",
            engine=engine,
            graph=graph,
            seed=seed,
            **options,
        )
        for engine in api.available_engines()
    }
    reference = reports["object"]
    if not restricted:
        assert reference.valid is True
    for report in reports.values():
        assert report.canonical_json() == reference.canonical_json()
        assert report.outputs == reference.outputs


def _sender(messages_factory):
    """A probe algorithm: every node emits ``messages_factory()`` once and
    halts with whatever its inbox was (so delivery itself is compared)."""

    class Probe(NodeAlgorithm):
        def send(self):
            return messages_factory()

        def receive(self, messages):
            self.halt(dict(messages))

    return Probe


def _run_object(factory):
    network = Network(graph=nx.path_graph(2))
    return resolve_engine("object").run(
        network, MessagePassingProgram(factory=factory)
    )


#: Port keys the object engine accepts as port 1 (set-membership equality:
#: anything == 1 names port 1) on a degree-1 node, and keys it rejects as
#: stray.  The matrix pins the coercion contract of the set-membership
#: port check (``local/simulator.py``) — bools, integral floats and
#: integral Fractions are ports; strings, fractional values and
#: out-of-range ints are violations.
ACCEPTED_PORT_KEYS = [1, True, 1.0, Fraction(1, 1)]
REJECTED_PORT_KEYS = [0, 99, -1, "1", "a", 2.5, Fraction(3, 2), None, (1,)]


@pytest.mark.parametrize("key", ACCEPTED_PORT_KEYS, ids=repr)
def test_accepted_port_keys(key):
    result = _run_object(_sender(lambda: {key: "ping"}))
    assert result.outputs == {0: {1: "ping"}, 1: {1: "ping"}}
    assert result.rounds == 1


@pytest.mark.parametrize("key", REJECTED_PORT_KEYS, ids=repr)
def test_rejected_port_keys(key):
    with pytest.raises(SimulationError, match="invalid ports"):
        _run_object(_sender(lambda: {key: "ping"}))


def test_heterogeneous_invalid_ports_raise_simulation_error():
    """Regression: mixed-type port keys (``{"a": m, 99: m}``) used to hit
    ``sorted()``'s cross-type comparison and escape as ``TypeError``; the
    protocol violation must surface as a ``SimulationError``."""
    with pytest.raises(SimulationError, match=re.escape("invalid ports [99, 'a']")):
        _run_object(_sender(lambda: {"a": "x", 99: "y"}))


def test_heterogeneous_ports_after_halt_raise_simulation_error():
    """The halted-during-send violation takes the same heterogeneous-key
    path; it too must stay a SimulationError."""

    class HaltsButSends(NodeAlgorithm):
        def send(self):
            self.halt(None)
            return {"a": "x", 99: "y"}

    with pytest.raises(SimulationError) as info:
        _run_object(HaltsButSends)
    assert "halted during send()" in str(info.value)
    assert "[99, 'a']" in str(info.value)


@pytest.mark.parametrize("spec,algorithm", CASES)
def test_engines_agree_at_the_round_limit(spec, algorithm):
    """With ``max_rounds`` at the object engine's round count both engines
    return identical bytes; one round fewer, both raise the same error."""

    def run(engine, max_rounds):
        return api.solve(
            spec, algorithm=algorithm, engine=engine, n=16, seed=0,
            max_rounds=max_rounds,
        )

    rounds = run("object", 10_000).rounds
    at_limit = {run(engine, rounds).canonical_json() for engine in api.available_engines()}
    assert len(at_limit) == 1
    if rounds == 0:  # every node halts at init: there is no round to cut
        assert algorithm == "sinkless-orientation:global"
        return
    errors = set()
    for engine in api.available_engines():
        with pytest.raises(SimulationError) as info:
            run(engine, rounds - 1)
        errors.add(str(info.value))
    assert errors == {f"algorithm did not halt within {rounds - 1} rounds"}


@pytest.mark.parametrize("seed", [0, 5])
def test_identical_matching_on_random_bipartite_subgraphs(seed):
    """The proposal algorithm with a strict input subgraph G' ⊂ G."""
    rng_graph = nx.random_regular_graph(4, 24, seed=seed)
    from repro.graphs import bipartite_double_cover

    cover = bipartite_double_cover(rng_graph)
    edges = sorted(cover.edges, key=str)
    input_edges = frozenset(
        frozenset(edge) for index, edge in enumerate(edges) if index % 3 != 0
    )
    reports = {
        engine: api.solve(
            "matching:Δ=4,x=0,y=1",
            algorithm="matching:proposal",
            engine=engine,
            graph=cover,
            seed=seed,
            check=False,
            input_edges=input_edges,
        )
        for engine in api.available_engines()
    }
    reference = reports["object"]
    for report in reports.values():
        assert report.outputs == reference.outputs
        assert report.rounds == reference.rounds
        assert report.canonical_json() == reference.canonical_json()
