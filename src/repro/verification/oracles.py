"""The differential-oracle registry.

An *oracle* names a pair (or family) of independently-implemented answers
to the same question and turns their agreement into a checkable property:

======================  ====================================================
oracle                  cross-checked implementations
======================  ====================================================
``roundelim``           kernel vs reference ``apply_R`` / ``apply_R_bar`` /
                        ``round_elimination`` (:mod:`repro.roundelim`)
``engines``             object vs vectorized execution of every
                        registered algorithm through
                        :func:`repro.api.solve` (every algorithm now
                        dispatches to a numpy kernel)
``solver``              CSP existence vs brute-force enumeration, with the
                        returned solution validated by two checkers
``serialization``       canonical-JSON encode → decode → encode stability
                        and digest agreement (:mod:`repro.utils.serialization`)
``views``               Supported LOCAL view collection vs an independent
                        BFS reimplementation (:mod:`repro.local.views`)
``explore``             store-memoized canonical RE expansion
                        (:mod:`repro.roundelim.explore`) vs direct kernel
                        and reference operator calls, including digest
                        invariance under renaming and budget-exhaustion
                        parity
``sat``                 SAT backend vs CSP backend: existence agreement and
                        exact solution-set equality on bipartite,
                        S-solution, hypergraph-incidence and lifted
                        instances, with UNSAT answers RUP-certified
``reliability``         faulted service/exploration runs (explicit fault
                        plans through :mod:`repro.reliability.chaos`) vs
                        fault-free baselines: record-byte parity,
                        exactly-once re-dispatch, bounded recovery
                        recompute
======================  ====================================================

Each oracle generates its own random cases (JSON-able dicts, see
:mod:`repro.verification.generators`), checks one case — returning a
discrepancy description or ``None`` — and proposes structurally smaller
candidate cases for the shrinking minimizer.
"""

from __future__ import annotations

import json
import random
from collections import deque
from collections.abc import Iterator

from repro import api
from repro.checkers import check_bipartite_solution
from repro.local.supported import SupportedInstance, run_supported_view_algorithm
from repro.roundelim import operators
from repro.solvers.backends import make_solver
from repro.solvers.csp import check_edge_labeling
from repro.solvers.enumeration import brute_force_solvable, solution_set
from repro.solvers.existence import solve_bipartite
from repro.utils import InvalidParameterError, LocalityViolationError, SolverLimitError
from repro.utils.serialization import canonical_dumps, result_digest, to_jsonable
from repro.verification.generators import (
    MAX_SOLVER_EDGES,
    build_colored_graph,
    build_fault_plan,
    build_problem,
    build_sat_case,
    build_support_graph,
    build_value,
    random_colored_graph_params,
    random_engine_case_params,
    random_fault_plan_params,
    random_problem_params,
    random_sat_case_params,
    random_supported_instance_params,
    random_value_tree,
)

#: Popped-configuration budget for fuzzed round elimination steps.  Small
#: enough that a pathological random problem cannot stall the fuzzer;
#: budget exhaustion itself must agree across engines.
ROUNDELIM_BUDGET = 20_000


class Oracle:
    """One differential property: generate, check, shrink."""

    name: str = ""
    description: str = ""

    def generate(self, rng: random.Random) -> dict:
        raise NotImplementedError

    def check(self, params: dict) -> str | None:
        """Run both implementations; describe a disagreement or return None."""
        raise NotImplementedError

    def shrink(self, params: dict) -> Iterator[dict]:
        """Structurally smaller candidate cases (all must be buildable)."""
        return iter(())


# ---------------------------------------------------------------------------
# roundelim: kernel vs reference operators


_ROUNDELIM_OPS = {
    "R": operators.apply_R,
    "R_bar": operators.apply_R_bar,
    "RE": operators.round_elimination,
}


def _problem_difference(kernel, reference) -> str | None:
    if kernel.name != reference.name:
        return f"names differ: {kernel.name!r} vs {reference.name!r}"
    if kernel.alphabet != reference.alphabet:
        return (
            f"alphabets differ: {sorted(kernel.alphabet)} vs "
            f"{sorted(reference.alphabet)}"
        )
    for side in ("white", "black"):
        ours, theirs = getattr(kernel, side), getattr(reference, side)
        if ours != theirs:
            only_kernel = sorted(str(c) for c in ours if c not in theirs)
            only_reference = sorted(str(c) for c in theirs if c not in ours)
            return (
                f"{side} constraints differ: kernel-only={only_kernel}, "
                f"reference-only={only_reference}"
            )
    return None


class RoundElimOracle(Oracle):
    name = "roundelim"
    description = "kernel vs reference apply_R / apply_R_bar / round_elimination"

    def generate(self, rng: random.Random) -> dict:
        params = random_problem_params(rng)
        params["op"] = rng.choice(tuple(sorted(_ROUNDELIM_OPS)))
        return params

    def check(self, params: dict) -> str | None:
        problem = build_problem(params)
        op = _ROUNDELIM_OPS[params["op"]]
        results: dict[str, object] = {}
        limited: dict[str, bool] = {}
        for engine in operators.ENGINES:
            try:
                results[engine] = op(
                    problem, budget=ROUNDELIM_BUDGET, engine=engine
                )
                limited[engine] = False
            except SolverLimitError:
                limited[engine] = True
        if limited["kernel"] != limited["reference"]:
            exhausted = "kernel" if limited["kernel"] else "reference"
            return (
                f"only the {exhausted} engine exhausted the budget "
                f"{ROUNDELIM_BUDGET} on {params['op']}"
            )
        if limited["kernel"]:
            return None  # both exhausted: consistent
        return _problem_difference(results["kernel"], results["reference"])

    def shrink(self, params: dict) -> Iterator[dict]:
        # A cheaper operator first: R̄ is R on the swapped problem and RE
        # composes both, so a bug usually survives the downgrade.
        for op in ("R_bar", "R"):
            if params["op"] not in (op, "R"):
                yield {**params, "op": op}
        for side in ("white", "black"):
            if len(params[side]) > 1:
                for index in range(len(params[side])):
                    configs = [
                        config
                        for position, config in enumerate(params[side])
                        if position != index
                    ]
                    yield {**params, side: configs}
        used = {
            label
            for side in ("white", "black")
            for config in params[side]
            for label in config
        }
        for label in params["alphabet"]:
            if label not in used and len(params["alphabet"]) > 1:
                yield {
                    **params,
                    "alphabet": [a for a in params["alphabet"] if a != label],
                }


# ---------------------------------------------------------------------------
# engines: every registered engine vs the object reference


class EngineParityOracle(Oracle):
    """Byte parity of every registered engine against ``object``.

    Every registered algorithm names a numpy kernel, so each matrix row
    differentially tests a kernel against the per-node engine (the
    vectorized engine has no per-node path: a program without a
    registered kernel raises).
    """

    name = "engines"
    description = "object vs vectorized engine runs through repro.api.solve"

    def generate(self, rng: random.Random) -> dict:
        return random_engine_case_params(rng)

    def check(self, params: dict) -> str | None:
        reports = {
            engine: api.solve(
                params["spec"],
                algorithm=params["algorithm"],
                engine=engine,
                n=params["n"],
                seed=params["seed"],
            )
            for engine in api.available_engines()
        }
        reference = reports.pop("object")
        if reference.valid is not True:
            reason = "" if reference.check is None else reference.check.reason
            return (
                f"object-engine solution failed its checker: {reason or 'invalid'}"
            )
        expected = reference.canonical_json()
        for engine, report in sorted(reports.items()):
            if report.canonical_json() != expected:
                return (
                    f"engine {engine!r} report diverges from 'object' on "
                    f"{params['spec']} / {params['algorithm']}"
                )
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        if params["n"] > 8:
            yield {**params, "n": max(8, params["n"] // 2)}
        if params["seed"] != 0:
            yield {**params, "seed": 0}


# ---------------------------------------------------------------------------
# solver: CSP existence vs brute-force enumeration vs checkers


class SolverOracle(Oracle):
    name = "solver"
    description = "CSP existence vs brute-force enumeration, checker-validated"

    def generate(self, rng: random.Random) -> dict:
        return {
            "graph": random_colored_graph_params(rng),
            "problem": random_problem_params(rng),
        }

    def check(self, params: dict) -> str | None:
        graph = build_colored_graph(params["graph"])
        problem = build_problem(params["problem"])
        solution = solve_bipartite(graph, problem)
        brute = brute_force_solvable(graph, problem, edge_limit=MAX_SOLVER_EDGES)
        if (solution is not None) != brute:
            return (
                f"existence disagrees: CSP={'sat' if solution is not None else 'unsat'}"
                f" but brute force={'sat' if brute else 'unsat'}"
            )
        if solution is not None:
            verdict = check_bipartite_solution(graph, problem, solution)
            if not verdict:
                return (
                    f"CSP solution rejected by check_bipartite_solution: "
                    f"{verdict.reason}"
                )
            if not check_edge_labeling(graph, problem, solution):
                return "CSP solution rejected by check_edge_labeling"
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        graph = params["graph"]
        for index in range(len(graph["edges"])):
            edges = [
                edge
                for position, edge in enumerate(graph["edges"])
                if position != index
            ]
            yield {**params, "graph": {**graph, "edges": edges}}
        touched = {node for edge in graph["edges"] for node in edge}
        isolated = [
            [name, color] for name, color in graph["nodes"] if name not in touched
        ]
        if isolated and len(graph["nodes"]) > 1:
            name, _color = isolated[0]
            nodes = [entry for entry in graph["nodes"] if entry[0] != name]
            yield {**params, "graph": {**graph, "nodes": nodes}}
        problem = params["problem"]
        for side in ("white", "black"):
            if len(problem[side]) > 1:
                for index in range(len(problem[side])):
                    configs = [
                        config
                        for position, config in enumerate(problem[side])
                        if position != index
                    ]
                    yield {**params, "problem": {**problem, side: configs}}


# ---------------------------------------------------------------------------
# sat: SAT backend vs CSP backend (existence + exact solution sets)


class SatOracle(Oracle):
    name = "sat"
    description = (
        "SAT vs CSP solver backends: existence, solution sets, UNSAT proofs"
    )

    def generate(self, rng: random.Random) -> dict:
        return random_sat_case_params(rng)

    def check(self, params: dict) -> str | None:
        graph, problem, white_active, black_active = build_sat_case(params)
        sets = {
            backend: solution_set(
                graph,
                problem,
                backend=backend,
                white_active=white_active,
                black_active=black_active,
            )
            for backend in ("csp", "sat")
        }
        if sets["csp"] != sets["sat"]:
            only_csp = len(set(sets["csp"]) - set(sets["sat"]))
            only_sat = len(set(sets["sat"]) - set(sets["csp"]))
            return (
                f"solution sets differ on kind {params['kind']!r}: "
                f"csp={len(sets['csp'])} sat={len(sets['sat'])} "
                f"(csp-only={only_csp}, sat-only={only_sat})"
            )
        solver = make_solver(
            graph,
            problem,
            backend="sat",
            white_active=white_active,
            black_active=black_active,
        )
        solution = solver.solve()
        if (solution is not None) != bool(sets["csp"]):
            verdict = "sat" if solution is not None else "unsat"
            return (
                f"SAT existence ({verdict}) disagrees with the enumerated "
                f"solution count {len(sets['csp'])}"
            )
        if solution is None:
            if not solver.certify_unsat():
                return "UNSAT answer failed its RUP proof check"
        elif white_active is None and black_active is None:
            verdict = check_bipartite_solution(graph, problem, solution)
            if not verdict:
                return (
                    f"SAT solution rejected by check_bipartite_solution: "
                    f"{verdict.reason}"
                )
            if not check_edge_labeling(graph, problem, solution):
                return "SAT solution rejected by check_edge_labeling"
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        problem = params["problem"]
        for side in ("white", "black"):
            if len(problem[side]) > 1:
                for index in range(len(problem[side])):
                    configs = [
                        config
                        for position, config in enumerate(problem[side])
                        if position != index
                    ]
                    yield {**params, "problem": {**problem, side: configs}}
        graph = params.get("graph")
        if graph:
            for index in range(len(graph["edges"])):
                edges = [
                    edge
                    for position, edge in enumerate(graph["edges"])
                    if position != index
                ]
                yield {**params, "graph": {**graph, "edges": edges}}


# ---------------------------------------------------------------------------
# serialization: canonical JSON round-trip stability


class SerializationOracle(Oracle):
    name = "serialization"
    description = "canonical JSON encode → decode → encode byte stability"

    def generate(self, rng: random.Random) -> dict:
        return {"tree": random_value_tree(rng)}

    def check(self, params: dict) -> str | None:
        value = build_value(params["tree"])
        encoded = canonical_dumps(value)
        decoded = json.loads(encoded)
        re_encoded = canonical_dumps(decoded)
        if re_encoded != encoded:
            return (
                f"round trip unstable: first pass {encoded!r}, "
                f"second pass {re_encoded!r}"
            )
        if result_digest(decoded) != result_digest(value):
            return "digest changes across an encode/decode round trip"
        flattened = to_jsonable(value)
        if to_jsonable(flattened) != flattened:
            return "to_jsonable is not idempotent on its own output"
        # The wire format built on these primitives: a SolveReport
        # carrying the fuzzed tree as its outputs must survive
        # encode → from_record → encode byte-identically (the
        # repro.api/report-v1 contract the solve service caches rely on).
        report = api.SolveReport(
            problem="fuzz:serialization",
            family="fuzz",
            algorithm="fuzz:tree",
            engine="object",
            seed=0,
            n=1,
            rounds=0,
            outputs=value,
            check=None,
            messages_delivered=0,
            messages_dropped=0,
            peak_live_nodes=1,
        )
        first = report.canonical_json()
        try:
            rebuilt = api.SolveReport.from_record(json.loads(first))
        except Exception as error:  # noqa: BLE001 - any crash is a finding
            return (
                f"SolveReport.from_record rejected its own canonical "
                f"record: {type(error).__name__}: {error}"
            )
        if rebuilt.canonical_json() != first:
            return (
                "SolveReport encode → from_record → encode is not "
                "byte-stable on the fuzzed outputs tree"
            )
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        tree = params["tree"]
        children = tree.get("items", []) + [
            node for entry in tree.get("entries", []) for node in entry
        ]
        for child in children:
            yield {"tree": child}
        if "items" in tree and tree["items"]:
            for index in range(len(tree["items"])):
                items = [
                    item
                    for position, item in enumerate(tree["items"])
                    if position != index
                ]
                yield {"tree": {**tree, "items": items}}
        if "entries" in tree and tree["entries"]:
            for index in range(len(tree["entries"])):
                entries = [
                    entry
                    for position, entry in enumerate(tree["entries"])
                    if position != index
                ]
                yield {"tree": {**tree, "entries": entries}}


# ---------------------------------------------------------------------------
# views: Supported LOCAL view collection vs an independent BFS


def _reference_ball(adjacency: dict, source, radius: int) -> set:
    """Nodes within ``radius`` of ``source`` — an independent BFS, written
    against a plain adjacency dict so it shares no code with
    :func:`repro.local.views.collect_supported_view`."""
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if distances[node] == radius:
            continue
        for neighbor in adjacency[node]:
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return set(distances)


class ViewsOracle(Oracle):
    name = "views"
    description = "Supported LOCAL radius-T views vs independent BFS marks"

    def generate(self, rng: random.Random) -> dict:
        return random_supported_instance_params(rng)

    def check(self, params: dict) -> str | None:
        support = build_support_graph(params)
        instance = SupportedInstance.from_graphs(support, params["input_edges"])
        radius = params["radius"]
        adjacency = {node: sorted(support.neighbors(node)) for node in support}
        input_edges = {frozenset(edge) for edge in params["input_edges"]}
        all_edges = {frozenset(edge) for edge in params["edges"]}
        for node in sorted(support.nodes):
            view = instance.view(node, radius)
            ball = _reference_ball(adjacency, node, radius)
            expected = {
                frozenset((member, neighbor)): frozenset((member, neighbor))
                in input_edges
                for member in ball
                for neighbor in adjacency[member]
            }
            if view._visible_marks != expected:
                missing = sorted(
                    tuple(sorted(edge)) for edge in expected if edge not in view._visible_marks
                )
                extra = sorted(
                    tuple(sorted(edge)) for edge in view._visible_marks if edge not in expected
                )
                return (
                    f"visible marks of {node!r} at radius {radius} disagree "
                    f"with the reference BFS (missing={missing}, extra={extra})"
                )
            for edge in sorted(all_edges - set(expected), key=sorted):
                u, v = sorted(edge)
                try:
                    view.is_input_edge(u, v)
                except LocalityViolationError:
                    continue
                return (
                    f"mark of out-of-radius edge {(u, v)} was readable from "
                    f"{node!r} at radius {radius}"
                )
            expected_inputs = sorted(
                (
                    neighbor
                    for neighbor in adjacency[node]
                    if frozenset((node, neighbor)) in input_edges
                ),
                key=lambda v: instance.network.ids[v],
            )
            if view.input_neighbors(node) != expected_inputs:
                return (
                    f"input_neighbors of {node!r} disagree with the input "
                    f"graph adjacency"
                )
        result = run_supported_view_algorithm(
            instance, radius, lambda view: sum(view._visible_marks.values())
        )
        if result.rounds != radius:
            return (
                f"view runner accounted {result.rounds} rounds for a "
                f"radius-{radius} algorithm"
            )
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        if params["radius"] > 0:
            yield {**params, "radius": params["radius"] - 1}
        for index in range(len(params["input_edges"])):
            kept = [
                edge
                for position, edge in enumerate(params["input_edges"])
                if position != index
            ]
            yield {**params, "input_edges": kept}
        for index, removed in enumerate(params["edges"]):
            edges = [
                edge
                for position, edge in enumerate(params["edges"])
                if position != index
            ]
            inputs = [edge for edge in params["input_edges"] if edge != removed]
            yield {**params, "edges": edges, "input_edges": inputs}


# ---------------------------------------------------------------------------
# explore: store-memoized canonical expansion vs direct operator calls


class ExploreOracle(Oracle):
    name = "explore"
    description = (
        "store-memoized canonical RE expansion vs direct kernel/reference calls"
    )

    def generate(self, rng: random.Random) -> dict:
        params = random_problem_params(rng)
        params["op"] = rng.choice(tuple(sorted(_ROUNDELIM_OPS)))
        params["budget"] = rng.choice((200, 2_000, ROUNDELIM_BUDGET))
        return params

    def check(self, params: dict) -> str | None:
        from repro.formalism.normalize import normal_form
        from repro.roundelim.explore import ProblemStore, STATUS_OK

        problem = build_problem(params)
        op, budget = params["op"], params["budget"]
        store = ProblemStore(capacity=8)
        form = store.intern(problem)

        # Digest invariance: a deterministic re-spelling of the alphabet
        # must land on the same content address.
        renamed = problem.rename(
            {label: f"R{index}" for index, label in enumerate(sorted(problem.alphabet))}
        )
        if normal_form(renamed).digest != form.digest:
            return "canonical digest changes under a label renaming"

        cold = store.apply(form.digest, op, budget)
        warm = store.apply(form.digest, op, budget)
        if warm != cold:
            return "memoized result differs from the freshly computed one"
        if store.stats.memory_hits == 0:
            return "second store lookup bypassed the memory tier"

        direct: dict[str, dict] = {}
        for engine in operators.ENGINES:
            try:
                result = _ROUNDELIM_OPS[op](problem, budget=budget, engine=engine)
            except SolverLimitError:
                direct[engine] = {"status": "budget_exhausted", "payload": None}
                continue
            direct[engine] = {
                "status": STATUS_OK,
                "payload": normal_form(result).payload,
            }
        if direct["kernel"]["status"] != direct["reference"]["status"]:
            return (
                f"kernel and reference disagree on budget exhaustion at "
                f"budget {budget} on {op}"
            )
        if cold["status"] != direct["kernel"]["status"]:
            return (
                f"store outcome {cold['status']!r} disagrees with the direct "
                f"calls ({direct['kernel']['status']!r}) at budget {budget}"
            )
        if cold["status"] != STATUS_OK:
            return None  # consistent exhaustion everywhere
        stored_payload = store.payload_of(cold["child"])
        for engine in operators.ENGINES:
            if canonical_dumps(direct[engine]["payload"]) != canonical_dumps(
                stored_payload
            ):
                return (
                    f"store-memoized canonical payload diverges from the "
                    f"direct {engine} call on {op}"
                )
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        if params["budget"] < ROUNDELIM_BUDGET:
            yield {**params, "budget": ROUNDELIM_BUDGET}
        for op in ("R_bar", "R"):
            if params["op"] not in (op, "R"):
                yield {**params, "op": op}
        for side in ("white", "black"):
            if len(params[side]) > 1:
                for index in range(len(params[side])):
                    configs = [
                        config
                        for position, config in enumerate(params[side])
                        if position != index
                    ]
                    yield {**params, side: configs}


# ---------------------------------------------------------------------------
# reliability: faulted runs vs fault-free baselines (the chaos harness)


#: Memoized fault-free baselines per scenario.  The clean run is
#: identical for every fault plan by the determinism contract, so one
#: baseline serves an entire fuzz session.
_RELIABILITY_BASELINES: dict[str, dict] = {}


def _reliability_baseline(scenario: str) -> dict:
    if scenario not in _RELIABILITY_BASELINES:
        from repro.reliability import chaos

        _RELIABILITY_BASELINES[scenario] = (
            chaos.explore_baseline()
            if scenario == "explore"
            else chaos.service_baseline()
        )
    return _RELIABILITY_BASELINES[scenario]


class ReliabilityOracle(Oracle):
    name = "reliability"
    description = (
        "faulted vs fault-free runs: byte parity, exactly-once re-dispatch"
    )

    def generate(self, rng: random.Random) -> dict:
        return random_fault_plan_params(rng)

    def check(self, params: dict) -> str | None:
        import tempfile

        from repro.reliability import chaos

        plan = build_fault_plan(params)
        scenario = params["scenario"]
        baseline = _reliability_baseline(scenario)
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
            case = chaos.run_case(scenario, plan, workdir, baseline=baseline)
        # ``retry_budget_exhausted`` without a failure is the invariant's
        # carve-out, not a finding; any recorded failure is one.
        if case["failures"]:
            return case["failures"][0]
        return None

    def shrink(self, params: dict) -> Iterator[dict]:
        faults = params["faults"]
        if len(faults) > 1:
            for index in range(len(faults)):
                yield {
                    **params,
                    "faults": [
                        fault
                        for position, fault in enumerate(faults)
                        if position != index
                    ],
                }
        # Weaken surviving faults toward the first hit (earlier hits are
        # easier to reason about in a minimized artifact).
        taken = {(site, hit) for site, hit, _kind in faults}
        for index, (site, hit, kind) in enumerate(faults):
            if hit > 1 and (site, hit - 1) not in taken:
                weakened = [list(fault) for fault in faults]
                weakened[index] = [site, hit - 1, kind]
                yield {**params, "faults": sorted(weakened)}


# ---------------------------------------------------------------------------
# Registry


ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        RoundElimOracle(),
        EngineParityOracle(),
        SolverOracle(),
        SatOracle(),
        SerializationOracle(),
        ViewsOracle(),
        ExploreOracle(),
        ReliabilityOracle(),
    )
}


def available_oracles() -> list[str]:
    """Sorted names of registered oracles."""
    return sorted(ORACLES)


def resolve_oracle(name: str) -> Oracle:
    """Look an oracle up by name."""
    try:
        return ORACLES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown oracle {name!r}; available: {available_oracles()}"
        ) from None


def run_check(oracle: Oracle, params: dict) -> str | None:
    """Check one case, converting an unexpected crash into a discrepancy.

    A differential harness must treat "one implementation raised" as a
    finding, not as a fuzzer error — the exception text becomes the
    discrepancy description.
    """
    try:
        return oracle.check(params)
    except Exception as error:  # noqa: BLE001 - any crash is a finding
        return f"exception during check: {type(error).__name__}: {error}"
