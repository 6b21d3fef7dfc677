"""Measurement pipelines: the bodies behind scenario `pipeline` keys.

Each pipeline takes a resolved :class:`~repro.experiments.scenarios.Scenario`
plus that scenario's private RNG and returns a list of *records* — plain
dicts of deterministic, JSON-ready observations.  The parameters its
scenarios may set are its keyword-only arguments: the signature is the
scenario schema, the runner passes ``scenario.params`` as keywords, and a
parameter without a default is one every scenario of the pipeline sets.
Graph generation, input subgraph construction, round measurement,
validity checks and paper-bound arithmetic live here once.  A record's
``valid`` states whether the paper claim it measures holds, so a failing
claim makes the runner exit non-zero; README's claims table maps each
statement of the paper to its scenario and the record field that carries
the verdict.

Determinism contract: a record may depend only on the scenario definition
and the supplied RNG — never on wall-clock, process identity or execution
order.  Wall-clock timing is measured by the runner *around* a pipeline
(see :func:`repro.local.measurement.timed`), kept out of the records so
serial and parallel runs serialize identically.

Algorithm execution goes through the :func:`repro.api.solve` façade, so
every scenario runs on the engine backend its :class:`Scenario` names
(``scenario.engine``, the ``--engine`` dimension) — and, by the engine
contract, produces identical records on all of them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Callable

import networkx as nx

from repro.api import solve
from repro.analysis import (
    classify_types,
    contradiction_region,
    extract_coloring,
    extract_family_solution,
    palette_size,
    peel_once,
)
from repro.checkers import (
    check_bipartite_solution,
    check_maximal_matching,
    check_proper_coloring,
)
from repro.core import (
    admissible_subgraphs,
    algorithm_from_lift_solution,
    check_lift_solution,
    derive_zero_round_black_algorithm,
    exists_zero_round_algorithm,
    is_correct_one_round,
    is_correct_zero_round,
    lift,
    lift_solution_from_algorithm,
)
from repro.core.bounds import (
    aapr23_mis_parameters,
    lemma_64_sequence_length,
    matching_sequence_length,
    theorem_41_bound,
    theorem_51_applicable,
    theorem_51_bound,
    theorem_61_bound,
)
from repro.core.derandomization import (
    count_supported_instances_exact,
    derandomize_by_union_bound,
    hypergraph_instance_count_bound,
    supported_instance_count_bound,
    supported_instance_count_exact_exponent,
    union_bound_guarantee,
)
from repro.core.speedup import check_against_R_problem
from repro.experiments.scenarios import Scenario
from repro.formalism.diagrams import (
    black_diagram,
    diagram_edges,
    right_closed_subsets,
    right_closure,
)
from repro.formalism.labels import set_label_members
from repro.formalism.problems import problem_from_lines
from repro.formalism.relaxations import (
    find_config_map_relaxation,
    find_label_relaxation,
    is_relaxation_via_config_map,
)
from repro.graphs import (
    analyze_support_graph,
    bipartite_double_cover,
    cage,
    cycle,
    mark_bipartition,
    random_regular_with_girth,
)
from repro.problems import (
    arbdefective_to_family_labels,
    matching_sequence_problems,
    maximal_matching_problem,
    pi_arbdefective,
    pi_matching,
    pi_matching_endpoint,
    pi_ruling,
    ruling_set_to_family_labels,
    sinkless_orientation_problem,
)
from repro.roundelim import (
    LowerBoundSequence,
    apply_R,
    compress_labels,
    is_fixed_point,
    round_elimination,
)
from repro.solvers import lift_solvable_bipartite, lift_solvable_non_bipartite, solve_bipartite
from repro.utils import InvalidParameterError

#: Pipeline registry: key → callable(scenario, rng, **params) -> list[dict].
PIPELINES: dict[str, Callable[..., list[dict]]] = {}


def pipeline(name: str):
    """Register a pipeline function under ``name``."""

    def register(fn):
        PIPELINES[name] = fn
        return fn

    return register


def resolve_pipeline(name: str) -> Callable[..., list[dict]]:
    try:
        return PIPELINES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown pipeline {name!r}; known: {sorted(PIPELINES)}"
        ) from None


# --------------------------------------------------------------------------
# Graph families
# --------------------------------------------------------------------------


def resolve_family(spec: str, rng: random.Random) -> nx.Graph:
    """Build the graph named by a family spec.

    Specs: ``cage:<name>``, ``double_cover:<cage>``, ``cycle:<n>``,
    ``marked_cycle:<n>`` and ``random_regular:<degree>:<girth>:<n>``
    (the only randomized family; it draws its seed from the scenario RNG).
    """
    kind, _, rest = spec.partition(":")
    if kind == "cage":
        graph, _degree, _girth = cage(rest)
        return graph
    if kind == "double_cover":
        graph, _degree, _girth = cage(rest)
        return bipartite_double_cover(graph)
    if kind == "cycle":
        return cycle(int(rest))
    if kind == "marked_cycle":
        return mark_bipartition(cycle(int(rest)))
    if kind == "random_regular":
        degree, girth, n = (int(part) for part in rest.split(":"))
        certified = random_regular_with_girth(
            n, degree, girth, seed=rng.randrange(2**31),
            certify_independence=False,
        )
        return certified.graph
    raise InvalidParameterError(f"unknown graph family spec {spec!r}")


def _require_family(scenario: Scenario, rng: random.Random) -> nx.Graph:
    if scenario.family is None:
        raise InvalidParameterError(
            f"pipeline {scenario.pipeline!r} needs a graph family "
            f"(scenario {scenario.name!r} declares none)"
        )
    return resolve_family(scenario.family, rng)


def input_subgraph_of_degree(cover: nx.Graph, delta_prime: int) -> frozenset:
    """A spanning subgraph of ``cover`` with max degree ≈ Δ′ (greedy)."""
    degrees = {node: 0 for node in cover.nodes}
    chosen = set()
    for edge in sorted(cover.edges, key=str):
        u, v = edge
        if degrees[u] < delta_prime and degrees[v] < delta_prime:
            chosen.add(frozenset(edge))
            degrees[u] += 1
            degrees[v] += 1
    return frozenset(chosen)


def matching_to_labels(graph: nx.Graph, matching: set) -> dict:
    """Appendix A translation: matched edges M; edges at an unmatched
    white node P; remaining edges O."""
    matched_nodes = {node for edge in matching for node in edge}
    labeling = {}
    for u, v in graph.edges:
        edge = frozenset((u, v))
        white = u if graph.nodes[u]["color"] == "white" else v
        if edge in matching:
            labeling[edge] = "M"
        elif white not in matched_nodes:
            labeling[edge] = "P"
        else:
            labeling[edge] = "O"
    return labeling


# --------------------------------------------------------------------------
# Matching (Theorem 4.1 / Lemma 4.5 / Figure 3)
# --------------------------------------------------------------------------


@pipeline("matching_proposal_sweep")
def matching_proposal_sweep(scenario: Scenario, rng: random.Random) -> list[dict]:
    """Proposal-algorithm rounds vs the Theorem 4.1 bound, neither falling as Δ′ grows."""
    cover = _require_family(scenario, rng)
    delta = max(dict(cover.degree).values())
    records = []
    previous_rounds = 0
    previous_bound = -math.inf
    for delta_prime in scenario.sizes:
        input_edges = input_subgraph_of_degree(cover, delta_prime)
        report = solve(
            f"matching:Δ={delta},x=0,y=1",
            algorithm="matching:proposal",
            engine=scenario.engine,
            graph=cover,
            check=False,  # validity is judged on the input graph G′ below
            input_edges=input_edges,
        )
        matching, rounds = report.outputs, report.rounds
        input_graph = nx.Graph(tuple(edge) for edge in input_edges)
        input_graph.add_nodes_from(cover.nodes)
        valid = bool(check_maximal_matching(input_graph, matching))
        # The bound at Δ = 50 and 10·Δ′, evaluated at n = Δ^⌈(k+1)/ε⌉: there
        # ε·log_Δ n exceeds k, so the min is the Θ(Δ′) term k, not log n.
        k = matching_sequence_length(delta_prime * 10, 0, 1)
        bound = theorem_41_bound(
            delta=50, delta_prime=delta_prime * 10, x=0, y=1,
            n=50 ** math.ceil((k + 1) / 0.1), epsilon=0.1,
        ).deterministic
        records.append(
            {
                "delta_prime": delta_prime,
                "input_edges": len(input_edges),
                "rounds": rounds,
                "matching_size": len(matching),
                "sequence_length_k": matching_sequence_length(delta_prime, 0, 1),
                "paper_bound_deterministic": round(bound, 1),
                "valid": valid and rounds >= previous_rounds and bound >= previous_bound,
            }
        )
        previous_rounds = rounds
        previous_bound = bound
    return records


@pipeline("matching_labels_example")
def matching_labels_example(scenario: Scenario, rng: random.Random) -> list[dict]:
    """Figure 3: a maximal matching rendered as M/O/P formalism labels."""
    cover = _require_family(scenario, rng)
    degree = max(dict(cover.degree).values())
    report = solve(
        f"matching:Δ={degree},x=0,y=1",
        algorithm="matching:proposal",
        engine=scenario.engine,
        graph=cover,
    )
    matching, rounds = report.outputs, report.rounds
    # The labeling is derived from the matching, so labeling validity
    # alone could mask a broken matching; check both independently.
    matching_valid = bool(report.valid)
    labeling = matching_to_labels(cover, matching)
    labeling_valid = bool(
        check_bipartite_solution(cover, maximal_matching_problem(degree), labeling)
    )
    counts = Counter(labeling.values())
    return [
        {
            "n": cover.number_of_nodes(),
            "degree": degree,
            "matching_size": len(matching),
            "rounds": rounds,
            "labels": {"M": counts["M"], "O": counts["O"], "P": counts["P"]},
            "matching_valid": matching_valid,
            "labeling_valid": labeling_valid,
            "valid": matching_valid and labeling_valid and counts["M"] == len(matching),
        }
    ]


@pipeline("matching_sequence_steps")
def matching_sequence_steps(
    scenario: Scenario, rng: random.Random, *, x: int, y: int, re_engine: str = "kernel"
) -> list[dict]:
    """Lemma 4.5 steps: RE(Π_Δ(x,y)) relaxes to Π_Δ(x+y,y), certified.

    No label map may witness a step: the steps need the general
    config-map notion (README, "Findings").  ``re_engine`` selects the round elimination backend
    (``kernel``/``reference``); records are engine-independent by the
    operator contract, so scenarios differing only in ``re_engine``
    cross-check the two implementations end to end.
    """
    records = []
    for delta in scenario.sizes:
        source, _ = compress_labels(
            round_elimination(pi_matching(delta, x, y), engine=re_engine)
        )
        target = pi_matching(delta, x + y, y)
        label_map = find_label_relaxation(source, target)
        config_map = find_config_map_relaxation(source, target)
        verified = config_map is not None and is_relaxation_via_config_map(
            source, target, config_map
        )
        records.append(
            {
                "delta": delta,
                "x": x,
                "y": y,
                "label_map_witness": label_map is not None,
                "config_map_witness": verified,
                "re_alphabet_size": len(source.alphabet),
                "valid": verified and label_map is None,
            }
        )
    return records


@pipeline("matching_full_sequence")
def matching_full_sequence(
    scenario: Scenario, rng: random.Random, *, delta: int, x: int, y: int
) -> list[dict]:
    """Corollary 4.6: verify the whole lower-bound sequence mechanically."""
    records = []
    for steps in scenario.sizes:
        problems = matching_sequence_problems(delta, x, y, steps=steps)
        witnesses = LowerBoundSequence(problems=tuple(problems)).verify()
        records.append(
            {
                "delta": delta,
                "x": x,
                "y": y,
                "steps": steps,
                "witnesses": len(witnesses),
                "valid": len(witnesses) == steps
                and all(
                    w.config_map is not None or w.relaxation_map is not None
                    for w in witnesses
                ),
            }
        )
    return records


#: Figure 1 as drawn (a transitive reduction), and the right-closed sets §4.2 lists.
_FIGURE1_EDGES = (("Z", "M"), ("Z", "P"), ("P", "O"), ("O", "X"), ("M", "X"))
_FIGURE1_SETS = frozenset({"X", "OX", "MX", "MOX", "OPX", "MOPX", "MOPXZ"})


@pipeline("matching_black_diagram")
def matching_black_diagram(
    scenario: Scenario, rng: random.Random, *, delta: int, y: int
) -> list[dict]:
    """Figure 1: Π_Δ′(0, y)'s black diagram is the drawing's transitive
    closure; the endpoint x′ = Δ′ − 1 − y refines the drawing (README,
    "Findings") and keeps its right-closed sets among those §4.2 lists."""
    drawn = frozenset(nx.transitive_closure(nx.DiGraph(_FIGURE1_EDGES)).edges)
    generic = diagram_edges(black_diagram(pi_matching(delta, 0, y)))
    endpoint = black_diagram(pi_matching_endpoint(delta, y))
    sets = ["".join(sorted(labels)) for labels in right_closed_subsets(endpoint)]
    return [
        {
            "generic_is_drawn_closure": generic == drawn,
            "endpoint_refinement": sorted(map(list, diagram_edges(endpoint) - generic)),
            "endpoint_right_closed_sets": sets,
            "valid": generic == drawn and set(sets) <= _FIGURE1_SETS,
        }
    ]


@pipeline("matching_contradiction_region")
def matching_contradiction_region(
    scenario: Scenario, rng: random.Random, *, ratios: tuple[int, ...], c: int, y: int
) -> list[dict]:
    """§4.2: per Δ′, the ratios Δ/Δ′ at which Lemma 4.8's lower bound
    exceeds Lemma 4.9's upper bound, which must include every ratio from
    the paper's c on; then the contrast: on the support, where Δ = Δ′,
    the endpoint's lift is solvable, so the bound needs Δ ≫ Δ′."""
    records = []
    for delta_prime in scenario.sizes:
        found = [r for r in ratios if contradiction_region(r * delta_prime, delta_prime, y=y)]
        valid = all(r in found for r in ratios if r >= c)
        records.append({"delta_prime": delta_prime, "contradicting_ratios": found, "valid": valid})
    support = _require_family(scenario, rng)
    delta = max(dict(support.degree).values())
    solvable, _solution, _lifted = lift_solvable_bipartite(
        support, pi_matching_endpoint(delta, y), delta=delta, rank=2
    )
    records.append({"delta": delta, "endpoint_lift_solvable": solvable, "valid": solvable})
    return records


# --------------------------------------------------------------------------
# Ruling sets (Theorem 6.1)
# --------------------------------------------------------------------------


@pipeline("ruling_bound_series")
def ruling_bound_series(scenario: Scenario, rng: random.Random) -> list[dict]:
    """Theorem 6.1's β-tradeoff, never rising in β, vs Lemma 6.4 sequence lengths."""
    records = []
    previous = float("inf")
    for beta in scenario.sizes:
        bound = theorem_61_bound(
            delta=10**5, delta_prime=256, alpha=0, colors=1, beta=beta, n=10**300
        )
        t = lemma_64_sequence_length(
            delta=10**5, alpha=0, colors=1, k=256, beta=beta, epsilon=1.0
        )
        deterministic = round(bound.deterministic, 1)
        records.append(
            {
                "beta": beta,
                "bound_deterministic": deterministic,
                "sequence_length_t": t,
                "valid": deterministic <= previous,
            }
        )
        previous = deterministic
    return records


@pipeline("ruling_black_diagram")
def ruling_black_diagram(
    scenario: Scenario, rng: random.Random, *, delta: int, colors: int, beta: int
) -> list[dict]:
    """Figure 2: Π_Δ(c, β)'s black diagram is exactly three parts, each
    recorded as present: the closed pointer chain P1 → … → Pβ → Uβ → … →
    U1, each color set above its proper subsets, and X above every label."""
    problem = pi_ruling(delta, colors, beta)
    edges = diagram_edges(black_diagram(problem))
    chain = [f"P{i}" for i in range(1, beta + 1)] + [f"U{i}" for i in range(beta, 0, -1)]
    sets = {a: frozenset(a.strip("{}").split(",")) for a in problem.alphabet if a[0] == "{"}
    parts = {
        "pointer_chain": {(a, b) for i, a in enumerate(chain) for b in chain[i + 1:]},
        "containment_lattice": {(a, b) for a in sets for b in sets if sets[b] < sets[a]},
        "x_top": {(label, "X") for label in problem.alphabet - {"X"}},
    }
    record = {name: part <= edges for name, part in parts.items()}
    record["strength_edges"] = len(edges)
    record["valid"] = edges == set().union(*parts.values())
    return [record]


@pipeline("ruling_peeling")
def ruling_peeling(scenario: Scenario, rng: random.Random, *, beta: int, delta: int) -> list[dict]:
    """One Lemma 6.6 peeling step executed on a real ruling-set solution."""
    graph = _require_family(scenario, rng)
    report = solve(
        f"ruling-set:Δ={delta},c=1,β={beta}",
        algorithm="ruling-set:class-sweep",
        engine=scenario.engine,
        graph=graph,
    )
    selected, rounds = report.outputs, report.rounds
    valid = bool(report.valid)  # independent and β-dominating
    labels = ruling_set_to_family_labels(
        graph, selected, {node: 1 for node in selected}, set(), alpha=0, beta=beta
    )
    diagram = black_diagram(pi_ruling(delta, 1, beta))
    sets = {key: right_closure(diagram, [lab]) for key, lab in labels.items()}
    s_nodes = set(graph.nodes)
    type1, type2, type3, untouched = classify_types(
        graph, s_nodes, sets, delta, 1, beta
    )
    types_partition_s = (
        (type1 | type2 | type3 | untouched) == s_nodes
        and len(type1) + len(type2) + len(type3) + len(untouched) == len(s_nodes)
    )
    result = peel_once(
        graph, s_nodes, sets, delta=delta, delta_prime=1, k=1, beta=beta
    )
    eliminated = all(
        f"P{beta}" not in result.assignment[(node, neighbor)]
        and f"U{beta}" not in result.assignment[(node, neighbor)]
        for node in result.s_prime
        for neighbor in graph.neighbors(node)
    )
    return [
        {
            "n": graph.number_of_nodes(),
            "beta": beta,
            "ruling_set_size": len(selected),
            "rounds": rounds,
            "types": [len(type1), len(type2), len(type3), len(untouched)],
            "types_partition_s": types_partition_s,
            "s_prime_size": len(result.s_prime),
            "quarter_certificate": len(result.s_prime) >= len(s_nodes) / 4,
            "fraction_ok": bool(result.fraction_ok),
            "pointers_eliminated": eliminated,
            "valid": valid
            and types_partition_s
            and bool(result.fraction_ok)
            and eliminated
            and len(result.s_prime) >= len(s_nodes) / 4,
        }
    ]


# --------------------------------------------------------------------------
# Arbdefective coloring (Theorem 5.1)
# --------------------------------------------------------------------------


@pipeline("arbdefective_fixed_points")
def arbdefective_fixed_points(scenario: Scenario, rng: random.Random, *, k: int) -> list[dict]:
    """Lemma 5.4: RE(Π_Δ(k)) ≅ Π_Δ(k), run literally over a Δ sweep."""
    records = []
    for delta in scenario.sizes:
        fixed = is_fixed_point(pi_arbdefective(delta, k))
        records.append({"delta": delta, "k": k, "fixed_point": fixed, "valid": fixed})
    return records


@pipeline("arbdefective_lift_refutation")
def arbdefective_lift_refutation(
    scenario: Scenario, rng: random.Random, *, k: int, delta: int
) -> list[dict]:
    """Corollary 5.8: the lift refuted on a support with χ > 2k."""
    graph = _require_family(scenario, rng)
    report = analyze_support_graph(graph)
    solvable, _sol, _lifted = lift_solvable_non_bipartite(
        graph, pi_arbdefective(2, k), delta=delta, rank=2
    )
    refuted = report.chromatic_number > 2 * k and not solvable
    return [
        {
            "n": report.n,
            "chromatic_number": report.chromatic_number,
            "girth": report.girth,
            "k": k,
            "lift_solvable": bool(solvable),
            "paper_bound": round(theorem_51_bound(8, 10**9).deterministic, 2),
            "applicable": theorem_51_applicable(
                delta=100, delta_prime=10, alpha=0, colors=2
            ),
            "valid": refuted,
        }
    ]


@pipeline("arbdefective_extraction")
def arbdefective_extraction(scenario: Scenario, rng: random.Random, *, delta: int) -> list[dict]:
    """Lemmas 5.9 + 5.10: Hall extraction and 2k-coloring, executed."""
    graph = _require_family(scenario, rng)
    report = solve(
        f"arbdefective:Δ={delta},c=2",
        algorithm="arbdefective:class-sweep",
        engine=scenario.engine,
        graph=graph,
        check=False,  # the extraction below is what this pipeline validates
    )
    color_of = report.outputs["color_of"]
    orientation = report.outputs["orientation"]
    alpha = report.outputs["alpha"]
    k = (alpha + 1) * 2
    labels = arbdefective_to_family_labels(graph, color_of, orientation, alpha)
    diagram = black_diagram(pi_arbdefective(delta, k))
    sets = {key: right_closure(diagram, [lab]) for key, lab in labels.items()}
    s_nodes = set(graph.nodes)
    family = extract_family_solution(graph, s_nodes, sets, k)
    coloring = extract_coloring(graph, s_nodes, family)
    proper = bool(check_proper_coloring(graph, coloring))
    palette = palette_size(coloring)
    return [
        {
            "n": graph.number_of_nodes(),
            "k": k,
            "palette": palette,
            "palette_cap": 2 * k,
            "proper": proper,
            "valid": proper and palette <= 2 * k,
        }
    ]


# --------------------------------------------------------------------------
# MIS ([AAPR23], §1.1)
# --------------------------------------------------------------------------


@pipeline("mis_supported")
def mis_supported(scenario: Scenario, rng: random.Random) -> list[dict]:
    """The χ_G-round Supported LOCAL MIS on a certified support graph."""
    graph = _require_family(scenario, rng)
    report = analyze_support_graph(graph)
    delta = max(dict(graph.degree).values())
    solved = solve(
        f"mis:Δ={delta}",
        algorithm="mis:aapr23",
        engine=scenario.engine,
        graph=graph,
    )
    mis, rounds = solved.outputs, solved.rounds
    valid = bool(solved.valid)
    return [
        {
            "n": report.n,
            "chromatic_number": report.chromatic_number,
            "rounds": rounds,
            "mis_size": len(mis),
            "rounds_at_least_chi_minus_1": rounds >= report.chromatic_number - 1,
            "valid": valid and rounds >= report.chromatic_number - 1,
        }
    ]


@pipeline("mis_luby")
def mis_luby(scenario: Scenario, rng: random.Random, *, trials: int) -> list[dict]:
    """Luby's randomized MIS — exercises the seeded randomized path."""
    graph = _require_family(scenario, rng)
    delta = max(dict(graph.degree).values())
    records = []
    for _trial in range(trials):
        seed = rng.randrange(2**31)
        report = solve(
            f"mis:Δ={delta}",
            algorithm="mis:luby",
            engine=scenario.engine,
            graph=graph,
            seed=seed,
        )
        mis, rounds = report.outputs, report.rounds
        records.append(
            {
                "n": graph.number_of_nodes(),
                "luby_seed": seed,
                "mis_size": len(mis),
                "rounds": rounds,
                "valid": bool(report.valid),
            }
        )
    return records


@pipeline("mis_parameters")
def mis_parameters(scenario: Scenario, rng: random.Random) -> list[dict]:
    """§1.1 instantiation: the Theorem 1.7 bound matching χ_G, never falling in n."""
    records = []
    previous = float("-inf")
    for exponent in scenario.sizes:
        delta, delta_prime, bound = aapr23_mis_parameters(2**exponent)
        bound = round(bound, 2)
        records.append(
            {
                "log2_n": exponent,
                "delta": delta,
                "delta_prime": delta_prime,
                "bound": bound,
                "valid": bound >= previous,
            }
        )
        previous = bound
    return records


# --------------------------------------------------------------------------
# Round elimination (Appendix B), Theorem 3.2's lift, Appendix C
# --------------------------------------------------------------------------


@pipeline("re_step_census")
def re_step_census(
    scenario: Scenario, rng: random.Random, *, re_engine: str = "kernel"
) -> list[dict]:
    """Alphabet/configuration growth of one RE step on MM_Δ."""
    records = []
    for delta in scenario.sizes:
        problem = maximal_matching_problem(delta)
        eliminated, _mapping = compress_labels(
            round_elimination(problem, engine=re_engine)
        )
        records.append(
            {
                "delta": delta,
                "source_alphabet": len(problem.alphabet),
                "re_alphabet": len(eliminated.alphabet),
                "re_white_configs": len(eliminated.white),
                "re_black_configs": len(eliminated.black),
            }
        )
    return records


@pipeline("speedup_b2")
def speedup_b2(
    scenario: Scenario, rng: random.Random, *, edge_limit: int, re_engine: str = "kernel"
) -> list[dict]:
    """Lemma B.1 / Theorem B.2: the T = 1 → 0 speedup step, exhaustively
    validated on every admissible input graph of the support."""
    graph = _require_family(scenario, rng)
    problem = maximal_matching_problem(2)
    lifted = lift(problem, 2, 2)
    solution = solve_bipartite(graph, lifted.to_problem())
    decoded = {edge: set_label_members(label) for edge, label in solution.items()}
    zero_round = algorithm_from_lift_solution(graph, lifted, decoded)

    def one_round_rule(node, own_inputs, view):
        return zero_round.run(node, frozenset(own_inputs))

    one_round_ok = is_correct_one_round(
        graph, one_round_rule, problem, edge_limit=edge_limit
    )
    r_problem = apply_R(problem, engine=re_engine)
    checked = passed = 0
    for input_edges in admissible_subgraphs(graph, 2, 2, edge_limit=edge_limit):
        derived = derive_zero_round_black_algorithm(
            graph, one_round_rule, problem, input_edges, edge_limit=edge_limit
        )
        checked += 1
        if check_against_R_problem(derived, graph, r_problem, input_edges):
            passed += 1
    return [
        {
            "n": graph.number_of_nodes(),
            "one_round_certified": bool(one_round_ok),
            "input_graphs_checked": checked,
            "r_problem_satisfied": passed,
            "r_alphabet": sorted(str(label) for label in r_problem.alphabet),
            "valid": bool(one_round_ok) and checked == passed == 2**edge_limit,
        }
    ]


@pipeline("lift_equivalence")
def lift_equivalence(scenario: Scenario, rng: random.Random, *, edge_limit: int) -> list[dict]:
    """Theorem 3.2: Π is 0-round solvable on a support iff its lift is,
    decided by search against a brute force of the whole algorithm space;
    where the lift is solvable, both directions of the proof round-trip."""
    gallery = (
        ("MM_2 on C4", 4, maximal_matching_problem(2)),
        ("MM_2 on C6", 6, maximal_matching_problem(2)),
        ("SO_2 on C4", 4, sinkless_orientation_problem(2)),
        ("forced-MM on C4", 4, problem_from_lines(["M M"], ["M O"], name="forced-MM")),
    )
    records = []
    for name, length, problem in gallery:
        graph = mark_bipartition(cycle(length))
        lifted = lift(problem, 2, 2)
        solution = solve_bipartite(graph, lifted.to_problem())
        brute = exists_zero_round_algorithm(graph, problem, edge_limit=edge_limit)
        round_trip = None
        if solution is not None:
            decoded = {edge: set_label_members(label) for edge, label in solution.items()}
            algorithm = algorithm_from_lift_solution(graph, lifted, decoded)
            round_trip = is_correct_zero_round(algorithm, problem) and check_lift_solution(
                graph, lifted, lift_solution_from_algorithm(algorithm, lifted)
            )
        records.append(
            {
                "instance": name,
                "lift_solvable": solution is not None,
                "zero_round_algorithm": brute,
                "round_trip": round_trip,
                "valid": (solution is not None) == brute and round_trip is not False,
            }
        )
    return records


@pipeline("instance_counts")
def instance_counts(scenario: Scenario, rng: random.Random) -> list[dict]:
    """Lemma C.2 / Theorem C.3: exact instance counts within 2^{3n²}, whose
    exponent the paper composes from graphs, IDs and inputs
    (``exponent_terms``), and the hypergraph bound 2^{4n³} above it."""
    records = []
    for n in scenario.sizes:
        bound = supported_instance_count_bound(n)
        exact = count_supported_instances_exact(n)
        dominated = hypergraph_instance_count_bound(n) >= bound
        records.append(
            {
                "n": n,
                "exact_instances": exact,
                "exponent_terms": round(supported_instance_count_exact_exponent(n), 1),
                "paper_exponent": 3 * n * n,
                "hypergraph_bound_dominates": dominated,
                "valid": exact <= bound and dominated,
            }
        )
    return records


@pipeline("union_bound_derandomization")
def union_bound_derandomization(
    scenario: Scenario, rng: random.Random, *, instances: int, seeds: int, failure: float
) -> list[dict]:
    """Lemma C.1's proof step, executed: a failure probability below
    1/#instances guarantees a seed that succeeds everywhere; find it."""

    def succeeds(instance: int, seed: int) -> bool:
        return random.Random(f"{instance}:{seed}").random() > failure

    result = derandomize_by_union_bound(list(range(instances)), range(seeds), succeeds)
    guaranteed = union_bound_guarantee(instances, failure)
    return [
        {
            "guaranteed": guaranteed,
            "seed": result.seed,
            "seeds_examined": len(result.failure_counts),
            "valid": guaranteed and result.succeeded,
        }
    ]


# --------------------------------------------------------------------------
# Differential verification (repro.verification)
# --------------------------------------------------------------------------


@pipeline("verification_fuzz")
def verification_fuzz(
    scenario: Scenario, rng: random.Random, *, cases: int, oracles: tuple[str, ...] = ()
) -> list[dict]:
    """A bounded differential-fuzz batch as an experiment scenario.

    Runs :func:`repro.verification.run_fuzz` over the scenario's
    ``oracles`` (default: all) with ``cases`` cases; the fuzz seed
    derives from the scenario RNG, so the records are deterministic per
    (suite, base seed) like every other pipeline.  A record is invalid as
    soon as one discrepancy survives — the suite fails loudly.
    """
    from repro.verification import available_oracles, run_fuzz

    oracle_names = list(oracles or available_oracles())
    fuzz_seed = rng.randrange(10**6)
    payload, _entries = run_fuzz(oracle_names, cases=cases, seed=fuzz_seed)
    return [
        {
            "oracle": name,
            "fuzz_seed": fuzz_seed,
            "cases": stats["cases"],
            "discrepancies": stats["discrepancies"],
            "valid": stats["discrepancies"] == 0,
        }
        for name, stats in sorted(payload["oracles"].items())
    ]


# --------------------------------------------------------------------------
# Solve service (repro.service)
# --------------------------------------------------------------------------


@pipeline("service_roundtrip")
def service_roundtrip(scenario: Scenario, rng: random.Random, *, duplicates: int) -> list[dict]:
    """The service's core contract, exercised as an experiment scenario.

    Runs an in-process :class:`~repro.service.SolveService` (no socket:
    the experiment asserts the pipeline, not the transport) through a
    cold/warm/duplicate cycle per spec and records the properties CI
    gates on: byte parity against the direct façade, cache hits on
    repeats, digest invariance across engines, and exactly-one-solve
    dedup.  Records carry digests and booleans only — no latencies — so
    they are byte-deterministic like every other pipeline.
    """
    import threading as _threading

    from repro.service import SolveService, solve_request
    from repro.utils.serialization import canonical_dumps

    specs = (
        ("maximal-matching:delta=3", "matching:proposal"),
        ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep"),
    )
    n = 32
    records = []
    with SolveService(jobs=1) as service:
        for spec, algorithm in specs:
            seed = rng.randrange(2**31)
            request = solve_request(
                spec, algorithm=algorithm, n=n, seed=seed,
                engine=scenario.engine,
            )
            before = service.solves_computed
            cold = service.submit(request)
            warm = service.submit(request)
            other_engine = "object" if scenario.engine == "vectorized" else "vectorized"
            cross = service.submit(solve_request(
                spec, algorithm=algorithm, n=n, seed=seed, engine=other_engine,
            ))
            responses = [None] * duplicates
            request2 = solve_request(
                spec, algorithm=algorithm, n=n, seed=seed + 1,
                engine=scenario.engine,
            )
            def _hit(i, out=responses, req=request2, svc=service):
                out[i] = svc.submit(req)
            threads = [
                _threading.Thread(target=_hit, args=(i,))
                for i in range(duplicates)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            solves = service.solves_computed - before
            direct = solve(
                spec, algorithm=algorithm, n=n, seed=seed,
                engine=scenario.engine,
            )
            parity = (
                canonical_dumps(cold["report"]) == direct.canonical_json()
            )
            records.append(
                {
                    "spec": spec,
                    "algorithm": algorithm,
                    "digest": cold["digest"],
                    "cold_cached": cold["cached"],
                    "warm_cached": warm["cached"],
                    "engine_invariant": cross["cached"]
                    and cross["digest"] == cold["digest"],
                    "byte_parity": parity,
                    "duplicates": duplicates,
                    "duplicate_solves": solves - 1,
                    "valid": parity
                    and not cold["cached"]
                    and warm["cached"]
                    and cross["cached"]
                    and solves == 2  # the cold solve + one for all duplicates
                    and all(r["status"] == "ok" for r in responses),
                }
            )
    return records


# --------------------------------------------------------------------------
# Solver backends (repro.solvers)
# --------------------------------------------------------------------------


@pipeline("zero_round_gates")
def zero_round_gates(
    scenario: Scenario, rng: random.Random, *, delta: int, solver: str = "csp"
) -> list[dict]:
    """Theorem 3.2 zero-round gates decided by a named solver backend.

    ``solver`` picks the decision procedure (``csp``/``sat``)
    behind :func:`~repro.core.zero_round.zero_round_solvable` and
    :func:`~repro.solvers.solution_set`.  Like the engine, the backend is
    deliberately absent from the records: by the backend contract they
    are byte-identical across both, which the ``solvers`` suite's
    ``-sat-solver`` twin pins in CI.  Each record cross-checks the gate
    three ways — the uniform sufficient condition implies it, and it
    must agree with the lift's enumerated solution count being nonzero.
    """
    from repro.core.zero_round import zero_round_solvable
    from repro.roundelim.explore.classify import uniform_zero_round
    from repro.solvers import solution_set

    support = _require_family(scenario, rng)
    records = []
    for x in scenario.sizes:
        problem = pi_matching(delta, x, 1)
        lifted = lift(problem, problem.white_arity, problem.black_arity)
        gate = zero_round_solvable(support, problem, backend=solver)
        uniform = uniform_zero_round(problem)
        solutions = solution_set(support, lifted.to_problem(), backend=solver)
        records.append(
            {
                "delta": delta,
                "x": x,
                "uniform_zero_round": uniform,
                "zero_round": bool(gate),
                "lift_solutions": len(solutions),
                "valid": gate == (len(solutions) > 0) and (not uniform or gate),
            }
        )
    return records


# --------------------------------------------------------------------------
# Round elimination exploration (repro.roundelim.explore)
# --------------------------------------------------------------------------


@pipeline("exploration_search")
def exploration_search(
    scenario: Scenario,
    rng: random.Random,
    *,
    delta: int,
    max_depth: int,
    max_nodes: int,
    k: int = 2,
    colors: int = 1,
    beta: int = 2,
    order: str = "bfs",
    moves: tuple[str, ...] = ("RE",),
    re_engine: str = "kernel",
    jobs: int = 1,
    expect_sequence_length: int = 0,
    expect_fixed_point: str | None = None,
) -> list[dict]:
    """One frontier search over a paper family, summarized per family.

    Roots come from the problem family the scenario's ``family`` field
    names (``matching`` uses ``scenario.sizes`` as the x-sweep of
    Π_Δ(x,1); ``ruling`` / ``arbdefective`` seed their single family
    problem — no graph is involved, so the field is free for this); the
    search runs with the scenario's ``order`` and ``moves`` under the
    explorer's default step budget, and the record distills the
    deterministic :class:`ExplorationReport`.  ``jobs`` (worker
    processes inside the explorer) and ``re_engine`` are execution
    details: by the explorer's determinism contract and the operator
    engine contract the record — including the embedded report digest —
    is byte-identical across both, which is what the suite's
    ``-jobs4`` / ``-reference-engine`` twin scenarios pin down.
    """
    from repro.roundelim.explore import (
        ExplorationLimits,
        ExplorationPolicy,
        explore,
    )

    family = scenario.family
    if family == "matching":
        roots = [pi_matching(delta, x, 1) for x in scenario.sizes]
    elif family == "ruling":
        roots = [pi_ruling(delta, colors, beta)]
    elif family == "arbdefective":
        roots = [pi_arbdefective(delta, k)]
    else:
        raise InvalidParameterError(
            f"unknown exploration family {family!r}; "
            f"known: ['arbdefective', 'matching', 'ruling']"
        )
    policy = ExplorationPolicy(order=order, moves=tuple(moves), engine=re_engine)
    limits = ExplorationLimits(max_depth=max_depth, max_nodes=max_nodes)
    report = explore(roots, policy=policy, limits=limits, jobs=jobs)
    payload = report.payload()

    fixed_point_ok = True
    if expect_fixed_point == "exact":
        fixed_point_ok = len(report.fixed_points) >= 1
    elif expect_fixed_point == "relaxation":
        fixed_point_ok = len(report.relaxation_fixed_points) >= 1
    consistent = (
        report.visited == len(report.nodes)
        and report.expanded <= limits.max_nodes
        and all(node["depth"] <= limits.max_depth for node in report.nodes.values())
    )
    return [
        {
            "family": family,
            "delta": delta,
            "visited": report.visited,
            "expanded": report.expanded,
            "dedup_hits": report.dedup_hits,
            "budget_exhausted_ops": report.counts["budget_exhausted_ops"],
            "steps": report.counts["steps"],
            "exact_fixed_points": len(report.fixed_points),
            "relaxation_fixed_points": len(report.relaxation_fixed_points),
            "zero_round_nodes": len(report.zero_round_nodes),
            "sequences": len(report.sequences),
            "verified_sequences": len(report.verified_sequences),
            "best_sequence_length": report.best_sequence_length,
            "report_digest": payload["digest"],
            "valid": consistent
            and fixed_point_ok
            and report.best_sequence_length >= expect_sequence_length,
        }
    ]
