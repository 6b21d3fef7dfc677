"""Seeded random *case* generators for the differential oracles.

Every generator produces a plain-JSON parameter dict (a *case*), and every
case has a matching ``build_*`` function that reconstructs the concrete
objects.  The split is what makes counterexamples replayable: the fuzzer
serializes the dict into ``tests/corpus/`` and the replay path rebuilds
the exact instance with no RNG involved.

Sizes are deliberately tiny — the oracles compare *exact* implementations
(brute-force enumeration, reference round elimination), so a case must
stay well inside their exponential envelopes.
"""

from __future__ import annotations

import random

import networkx as nx

from repro.formalism.configurations import Configuration
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem
from repro.utils import InvalidParameterError

#: Label pool for random problems (small on purpose: collisions between
#: configurations are what make R/R̄ interesting).
LABEL_POOL = ("A", "B", "C", "D")

#: Edge cap for solver-oracle graphs — brute force enumerates
#: |Σ|^edges assignments, so with |Σ| ≤ 3 this caps a case at 3^8.
MAX_SOLVER_EDGES = 8


# ---------------------------------------------------------------------------
# Random problems (alphabets / arities over repro.formalism)


def random_problem_params(
    rng: random.Random,
    *,
    max_alphabet: int = 3,
    max_arity: int = 3,
    max_configs: int = 4,
) -> dict:
    """A random problem as a JSON-able dict.

    ``alphabet`` may contain labels no configuration uses — R's maximal
    set configurations range over the *alphabet*, so unused labels are a
    distinct (and historically bug-prone) code path worth generating.
    """
    alphabet = sorted(rng.sample(LABEL_POOL, rng.randint(1, max_alphabet)))
    white_arity = rng.randint(1, max_arity)
    black_arity = rng.randint(1, max_arity)

    def configs(arity: int) -> list[list[str]]:
        count = rng.randint(1, max_configs)
        chosen = {
            tuple(sorted(rng.choice(alphabet) for _ in range(arity)))
            for _ in range(count)
        }
        return [list(config) for config in sorted(chosen)]

    return {
        "alphabet": alphabet,
        "white": configs(white_arity),
        "black": configs(black_arity),
    }


def build_problem(params: dict) -> Problem:
    """Reconstruct the :class:`Problem` a problem-params dict names."""
    alphabet = frozenset(params["alphabet"])
    if not alphabet:
        raise InvalidParameterError("problem params need a non-empty alphabet")
    return Problem(
        alphabet=alphabet,
        white=Constraint(Configuration(labels) for labels in params["white"]),
        black=Constraint(Configuration(labels) for labels in params["black"]),
        name="fuzz",
    )


# ---------------------------------------------------------------------------
# Random 2-colored graphs (the solver-oracle substrate)


def _alternating_cycle(n: int) -> tuple[list, list]:
    nodes = [(f"v{i}", "white" if i % 2 == 0 else "black") for i in range(n)]
    edges = [[f"v{i}", f"v{(i + 1) % n}"] for i in range(n)]
    return nodes, edges


def _alternating_path(n: int) -> tuple[list, list]:
    nodes = [(f"v{i}", "white" if i % 2 == 0 else "black") for i in range(n)]
    edges = [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)]
    return nodes, edges


def _random_bipartite(rng: random.Random) -> tuple[list, list]:
    whites = [f"w{i}" for i in range(rng.randint(1, 3))]
    blacks = [f"b{i}" for i in range(rng.randint(1, 3))]
    nodes = [(w, "white") for w in whites] + [(b, "black") for b in blacks]
    pairs = [[w, b] for w in whites for b in blacks]
    rng.shuffle(pairs)
    keep = rng.randint(1, min(len(pairs), MAX_SOLVER_EDGES))
    return nodes, sorted(pairs[:keep])


def random_colored_graph_params(rng: random.Random) -> dict:
    """A random small 2-colored graph (explicit nodes + colors + edges)."""
    kind = rng.choice(("even_cycle", "path", "bipartite", "star"))
    if kind == "even_cycle":
        nodes, edges = _alternating_cycle(rng.choice((4, 6, 8)))
    elif kind == "path":
        nodes, edges = _alternating_path(rng.randint(2, 6))
    elif kind == "star":
        center = ("c", "white")
        leaves = [(f"l{i}", "black") for i in range(rng.randint(1, 3))]
        nodes = [center] + leaves
        edges = [["c", leaf] for leaf, _color in leaves]
    else:
        nodes, edges = _random_bipartite(rng)
    return {
        "kind": kind,
        "nodes": [[name, color] for name, color in nodes],
        "edges": edges,
    }


def build_colored_graph(params: dict) -> nx.Graph:
    """Reconstruct a 2-colored graph from its explicit description."""
    graph = nx.Graph()
    for name, color in params["nodes"]:
        graph.add_node(name, color=color)
    for u, v in params["edges"]:
        if u not in graph or v not in graph:
            raise InvalidParameterError(f"edge {(u, v)} uses undeclared nodes")
        graph.add_edge(u, v)
    return graph


# ---------------------------------------------------------------------------
# SAT-vs-CSP backend cases (graph × problem × activity / lift shapes)


def _random_incidence_graph(rng: random.Random) -> dict:
    """The 2-colored incidence graph of a small random hypergraph.

    White nodes are vertices, black nodes are hyperedges, an edge means
    membership — the instance shape Definition 5.6's S-solutions live
    on, with black degree equal to the hyperedge rank.
    """
    vertices = rng.randint(2, 4)
    hyperedges = rng.randint(1, 3)
    nodes = [[f"x{i}", "white"] for i in range(vertices)] + [
        [f"e{j}", "black"] for j in range(hyperedges)
    ]
    edges = []
    for j in range(hyperedges):
        rank = rng.randint(1, min(3, vertices))
        for i in sorted(rng.sample(range(vertices), rank)):
            edges.append([f"x{i}", f"e{j}"])
    return {"kind": "incidence", "nodes": nodes, "edges": sorted(edges)}


def random_sat_case_params(rng: random.Random) -> dict:
    """A random SAT-vs-CSP differential case.

    Four kinds cover the backend contract's surface: plain bipartite
    instances, S-solutions (random activity subsets), hypergraph
    incidence graphs, and lifted problems on their smallest biregular
    support (the Theorem 3.2 gate's instance shape).
    """
    kind = rng.choice(("bipartite", "s_solution", "hypergraph", "lift"))
    if kind == "bipartite":
        return {
            "kind": kind,
            "graph": random_colored_graph_params(rng),
            "problem": random_problem_params(rng),
        }
    if kind == "s_solution":
        graph = random_colored_graph_params(rng)
        whites = [name for name, color in graph["nodes"] if color == "white"]
        blacks = [name for name, color in graph["nodes"] if color == "black"]
        return {
            "kind": kind,
            "graph": graph,
            "problem": random_problem_params(rng),
            "white_active": sorted(
                rng.sample(whites, rng.randint(0, len(whites)))
            ),
            "black_active": sorted(
                rng.sample(blacks, rng.randint(0, len(blacks)))
            ),
        }
    if kind == "hypergraph":
        return {
            "kind": kind,
            "graph": _random_incidence_graph(rng),
            "problem": random_problem_params(rng),
        }
    # "lift": small arities keep the set-label alphabet of the lifted
    # problem tiny (≤ 3 labels, ≤ 4 support edges).
    return {
        "kind": "lift",
        "problem": random_problem_params(
            rng, max_alphabet=2, max_arity=2, max_configs=3
        ),
    }


def build_sat_case(params: dict):
    """Reconstruct ``(graph, problem, white_active, black_active)``.

    Lift cases derive both the support (the smallest biregular graph of
    the base problem's arities) and the lifted problem deterministically
    from the stored base problem, so the case dict stays plain JSON.
    """
    if params["kind"] == "lift":
        from repro.core.lift import lift

        base = build_problem(params["problem"])
        nodes = [[f"w{i}", "white"] for i in range(base.black_arity)] + [
            [f"b{j}", "black"] for j in range(base.white_arity)
        ]
        edges = [
            [f"w{i}", f"b{j}"]
            for i in range(base.black_arity)
            for j in range(base.white_arity)
        ]
        graph = build_colored_graph({"nodes": nodes, "edges": edges})
        lifted = lift(base, base.white_arity, base.black_arity).to_problem()
        return graph, lifted, None, None
    graph = build_colored_graph(params["graph"])
    problem = build_problem(params["problem"])
    white_active = black_active = None
    if params["kind"] == "s_solution":
        whites = frozenset(params["white_active"])
        blacks = frozenset(params["black_active"])
        white_active = whites.__contains__
        black_active = blacks.__contains__
    return graph, problem, white_active, black_active


# ---------------------------------------------------------------------------
# Engine-parity runs (spec × algorithm × size × seed)


#: Every registered algorithm, exercised through a compatible spec.  The
#: fuzzer varies n / seed (and thereby the seeded default network).
#: Every registered algorithm names a numpy kernel, so each row
#: differentially tests a kernel against the per-node engine.
ENGINE_CASE_MATRIX: tuple[tuple[str, str], ...] = (
    ("matching:delta=3,x=0,y=1", "matching:proposal"),
    ("maximal-matching:delta=4", "matching:proposal"),
    ("mis:delta=3", "mis:aapr23"),
    ("mis:delta=3", "mis:luby"),
    ("mis:delta=3", "ruling-set:class-sweep"),
    ("coloring:delta=3,colors=4", "coloring:class-sweep"),
    ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep"),
    ("arbdefective:delta=4,colors=2", "arbdefective:class-sweep"),
    ("sinkless-orientation:delta=3", "sinkless-orientation:global"),
)


def random_engine_case_params(rng: random.Random) -> dict:
    """A random (spec, algorithm, n, seed) engine-parity case."""
    spec, algorithm = ENGINE_CASE_MATRIX[rng.randrange(len(ENGINE_CASE_MATRIX))]
    return {
        "spec": spec,
        "algorithm": algorithm,
        "n": rng.choice((8, 12, 16, 24, 32)),
        "seed": rng.randrange(1000),
    }


# ---------------------------------------------------------------------------
# Supported LOCAL instances (support graph + input subgraph + radius)


def random_supported_instance_params(rng: random.Random) -> dict:
    """A random Supported LOCAL instance description.

    The support graph may be disconnected (two components) and the input
    graph G′ is a random — frequently disconnected — subset of support
    edges; ``radius`` includes the T=0 edge case.
    """
    kind = rng.choice(("cycle", "two_cycles", "random_regular", "path"))
    if kind == "cycle":
        n = rng.choice((4, 6, 8))
        nodes = [f"v{i}" for i in range(n)]
        edges = [[f"v{i}", f"v{(i + 1) % n}"] for i in range(n)]
    elif kind == "two_cycles":
        sizes = (rng.choice((3, 4)), rng.choice((3, 4)))
        nodes, edges = [], []
        for side, size in enumerate(sizes):
            ring = [f"c{side}n{i}" for i in range(size)]
            nodes.extend(ring)
            edges.extend(
                [ring[i], ring[(i + 1) % size]] for i in range(size)
            )
    elif kind == "path":
        n = rng.randint(2, 7)
        nodes = [f"v{i}" for i in range(n)]
        edges = [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)]
    else:
        n = rng.choice((6, 8))
        graph = nx.random_regular_graph(3, n, seed=rng.randrange(1000))
        nodes = [f"v{i}" for i in range(n)]
        edges = sorted([f"v{u}", f"v{v}"] for u, v in graph.edges)
    keep = rng.randint(0, len(edges))
    shuffled = list(edges)
    rng.shuffle(shuffled)
    input_edges = sorted(sorted(edge) for edge in shuffled[:keep])
    return {
        "kind": kind,
        "nodes": nodes,
        "edges": sorted(sorted(edge) for edge in edges),
        "input_edges": input_edges,
        "radius": rng.randint(0, 3),
    }


def build_support_graph(params: dict) -> nx.Graph:
    """Reconstruct the support graph of a supported-instance case."""
    graph = nx.Graph()
    graph.add_nodes_from(params["nodes"])
    for u, v in params["edges"]:
        graph.add_edge(u, v)
    return graph


# ---------------------------------------------------------------------------
# Fault plans (the reliability oracle's case shape)


#: Chaos scenarios the reliability oracle fuzzes.  ``transport`` is
#: deliberately absent: it binds a real HTTP daemon per case, which
#: belongs in the chaos matrix (CI's chaos job), not in a fuzz loop.
RELIABILITY_SCENARIOS = ("service", "explore")

#: Fault hits are drawn from [1, MAX_FAULT_HIT] (hit 1 = the first time
#: the site is reached): the chaos workload touches each site a handful
#: of times, so late hits never fire — itself a case worth generating (a
#: plan that does nothing must trivially preserve parity).
MAX_FAULT_HIT = 4


def random_fault_plan_params(
    rng: random.Random, *, max_faults: int = 3
) -> dict:
    """A random chaos case: a scenario plus explicit (site, hit, kind)
    triples.

    The faults are spelled out rather than stored as a plan seed so a
    corpus entry replays with no RNG and the shrinker can drop or
    weaken individual faults structurally.
    """
    from repro.reliability.chaos import SCENARIO_SITES
    from repro.reliability.faults import FAULT_SITES

    scenario = rng.choice(RELIABILITY_SCENARIOS)
    sites = SCENARIO_SITES[scenario]
    taken = set()
    faults = []
    for _ in range(rng.randint(1, max_faults)):
        site = rng.choice(sites)
        hit = rng.randint(1, MAX_FAULT_HIT)
        if (site, hit) in taken:
            continue  # at most one fault per (site, hit), like FaultPlan
        taken.add((site, hit))
        faults.append([site, hit, rng.choice(FAULT_SITES[site])])
    return {"scenario": scenario, "faults": sorted(faults)}


def build_fault_plan(params: dict):
    """Reconstruct the :class:`~repro.reliability.faults.FaultPlan` a
    fault-plan-params dict names (scenario validated here so a corrupted
    corpus entry fails loudly)."""
    from repro.reliability.faults import FaultPlan

    if params.get("scenario") not in RELIABILITY_SCENARIOS:
        raise InvalidParameterError(
            f"fault-plan params name unknown scenario "
            f"{params.get('scenario')!r}; known: {list(RELIABILITY_SCENARIOS)}"
        )
    return FaultPlan.from_faults(params["faults"], name="fuzz")


# ---------------------------------------------------------------------------
# Canonical-serialization payloads (spec trees → Python values)


def random_value_tree(rng: random.Random, depth: int = 3) -> dict:
    """A JSON-able *spec tree* describing a nested Python value.

    The builder realizes it with tuples, sets, frozensets and non-string
    dict keys — the shapes :mod:`repro.utils.serialization` must encode
    canonically.
    """
    leaves = ("int", "str", "bool", "none", "float")
    branches = ("list", "tuple", "set", "frozenset", "dict")
    kind = rng.choice(leaves if depth <= 0 else leaves + branches * 2)
    if kind == "int":
        return {"kind": "int", "value": rng.randint(-99, 99)}
    if kind == "str":
        return {"kind": "str", "value": "s" + str(rng.randint(0, 99))}
    if kind == "bool":
        return {"kind": "bool", "value": rng.random() < 0.5}
    if kind == "none":
        return {"kind": "none"}
    if kind == "float":
        return {"kind": "float", "value": rng.choice((0.0, 0.5, -1.25, 3.75))}
    width = rng.randint(0, 3)
    if kind in ("set", "frozenset"):
        # Members must be hashable: restrict to scalar leaves.
        items = [random_value_tree(rng, 0) for _ in range(width)]
        return {"kind": kind, "items": items}
    if kind == "dict":
        entries = []
        for index in range(width):
            key_kind = rng.choice(("str", "int", "frozenset", "tuple"))
            if key_kind == "str":
                key: dict = {"kind": "str", "value": f"k{index}"}
            elif key_kind == "int":
                key = {"kind": "int", "value": rng.randint(0, 9)}
            elif key_kind == "tuple":
                key = {
                    "kind": "tuple",
                    "items": [random_value_tree(rng, 0) for _ in range(2)],
                }
            else:
                key = {
                    "kind": "frozenset",
                    "items": [
                        {"kind": "str", "value": rng.choice(("u", "v", "w"))}
                        for _ in range(2)
                    ],
                }
            entries.append([key, random_value_tree(rng, depth - 1)])
        return {"kind": "dict", "entries": entries}
    return {
        "kind": kind,
        "items": [random_value_tree(rng, depth - 1) for _ in range(width)],
    }


def build_value(tree: dict):
    """Realize a spec tree as the Python value it describes."""
    kind = tree["kind"]
    if kind in ("int", "str", "bool", "float"):
        return tree["value"]
    if kind == "none":
        return None
    if kind == "list":
        return [build_value(item) for item in tree["items"]]
    if kind == "tuple":
        return tuple(build_value(item) for item in tree["items"])
    if kind == "set":
        return {build_value(item) for item in tree["items"]}
    if kind == "frozenset":
        return frozenset(build_value(item) for item in tree["items"])
    if kind == "dict":
        return {
            build_value(key): build_value(value)
            for key, value in tree["entries"]
        }
    raise InvalidParameterError(f"unknown value-tree kind {kind!r}")
