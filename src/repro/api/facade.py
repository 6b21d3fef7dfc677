"""End-to-end façade: ``solve()``, ``check()`` and ``simulate()``.

One call composes the whole pipeline the paper's experiments repeat —
resolve a problem spec, pick a registered algorithm, run it on an engine
backend, validate the output, measure rounds::

    from repro import api
    report = api.solve("matching:Δ=4,x=0,y=1",
                       algorithm="matching:proposal",
                       engine="vectorized", seed=0)
    assert report.valid and report.rounds > 0

``solve`` returns a :class:`~repro.api.types.SolveReport`; ``check``
validates an existing solution against a problem spec; ``simulate`` runs
an algorithm on an engine and returns the raw
(:class:`~repro.local.simulator.RunResult`,
:class:`~repro.local.measurement.Measurement`) pair without finalizing
or checking.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.api.engines import DEFAULT_ENGINE, Engine, resolve_engine
from repro.api.errors import AlgorithmMismatchError, SpecError
from repro.api.registry import (
    Algorithm,
    available_algorithms,
    resolve_algorithm,
)
from repro.api.types import ProblemSpec, SolveReport
from repro.checkers import (
    CheckResult,
    check_arbdefective_coloring,
    check_proper_coloring,
    check_ruling_set,
    check_sinkless_orientation,
    check_x_maximal_y_matching,
)
from repro.local.measurement import EngineProbe, Measurement, timed
from repro.local.network import Network
from repro.local.simulator import RoundTrace, RunResult

if TYPE_CHECKING:
    import networkx as nx


def _graph(network: Network | nx.Graph) -> nx.Graph:
    return network.graph if isinstance(network, Network) else network


def _check_matching(
    network: Network | nx.Graph, spec: ProblemSpec, solution
) -> CheckResult:
    return check_x_maximal_y_matching(
        network,
        solution,
        x=spec.param("x", 0),
        y=spec.param("y", 1),
        # The spec's Δ is the problem parameter; only when the spec omits
        # it does the checker fall back to the graph's max degree.
        delta=spec.param("delta"),
    )


def _check_maximal_matching(
    network: Network | nx.Graph, spec: ProblemSpec, solution
) -> CheckResult:
    return check_x_maximal_y_matching(network, solution, x=0, y=1)


def _check_coloring(
    network: Network | nx.Graph, spec: ProblemSpec, solution
) -> CheckResult:
    result = check_proper_coloring(_graph(network), solution)
    colors = spec.param("colors")
    if result and colors is not None:
        used = len(set(solution.values()))
        if used > colors:
            return CheckResult(
                valid=False,
                reason=f"uses {used} colors > c = {colors} of the spec",
            )
    return result


def _check_ruling(
    network: Network | nx.Graph, spec: ProblemSpec, solution
) -> CheckResult:
    # Also the MIS checker: an MIS spec has no β, and an MIS is a
    # (2,1)-ruling set.
    return check_ruling_set(
        network, solution, beta=spec.param("beta", 1), independent=True
    )


def _check_arbdefective(
    network: Network | nx.Graph, spec: ProblemSpec, solution
) -> CheckResult:
    # Spec parameters take precedence over the solution's self-declared
    # ones, and the claimed α is capped by the family's ⌊Δ/c⌋ — a
    # solution must not be able to certify itself by inflating α.
    colors = spec.param("colors", solution["colors"])
    alpha = solution["alpha"]
    delta = spec.param("delta")
    if delta is not None and colors:
        alpha_cap = delta // colors
        if alpha > alpha_cap:
            return CheckResult(
                valid=False,
                reason=f"claimed α = {alpha} exceeds ⌊Δ/c⌋ = {alpha_cap}",
            )
    return check_arbdefective_coloring(
        _graph(network),
        solution["color_of"],
        solution["orientation"],
        alpha,
        colors,
    )


def _check_orientation(
    network: Network | nx.Graph, spec: ProblemSpec, solution
) -> CheckResult:
    return check_sinkless_orientation(_graph(network), solution)


#: Family → checker(network or graph, spec, solution) used by check() and
#: solve().  The matching, MIS and ruling-set checkers read a Network's
#: CSR (and an array-backed solution's indices); the others check its
#: networkx graph.
FAMILY_CHECKERS: dict[
    str, Callable[[Network | nx.Graph, ProblemSpec, object], CheckResult]
] = {
    "matching": _check_matching,
    "maximal-matching": _check_maximal_matching,
    "mis": _check_ruling,
    "coloring": _check_coloring,
    "ruling-set": _check_ruling,
    "arbdefective": _check_arbdefective,
    "sinkless-orientation": _check_orientation,
}


def _family_check(
    spec: ProblemSpec, network: Network | nx.Graph, solution
) -> CheckResult:
    try:
        checker = FAMILY_CHECKERS[spec.family]
    except KeyError:
        raise SpecError(
            f"no validity checker registered for family {spec.family!r}; "
            f"checkable families: {sorted(FAMILY_CHECKERS)}"
        ) from None
    return checker(network, spec, solution)


def check(problem: ProblemSpec | str, graph, solution) -> CheckResult:
    """Validate ``solution`` to ``problem`` on ``graph``.

    Dispatches on the spec's family to the matching concrete checker;
    accepts a :class:`Network` or a bare graph.
    """
    return _family_check(ProblemSpec.parse(problem), graph, solution)


def _resolve_network(
    algorithm: Algorithm,
    spec: ProblemSpec,
    network: Network | None,
    graph: nx.Graph | None,
    n: int | None,
    seed: int,
) -> Network:
    if network is not None and graph is not None:
        raise SpecError("pass either network= or graph=, not both")
    if network is not None:
        return network
    if graph is not None:
        return Network(graph=graph)
    return algorithm.default_network(spec, n=n, seed=seed)


def _resolve_pair(
    problem: ProblemSpec | str, algorithm: Algorithm | str
) -> tuple[ProblemSpec, Algorithm]:
    """Parse the spec and match it to the algorithm.

    Parsing already range-validates parameters cheaply (see
    :func:`repro.problems.registry.validate_parameters`); the formalism
    problem itself is *not* built here — its condensed configurations
    expand exponentially in Δ, and the façade never needs the expansion.
    """
    spec = ProblemSpec.parse(problem)
    resolved = (
        algorithm
        if isinstance(algorithm, Algorithm)
        else resolve_algorithm(algorithm)
    )
    if not resolved.supports(spec.family):
        raise AlgorithmMismatchError(
            resolved.name,
            spec.family,
            solves=list(resolved.families),
            alternatives=available_algorithms(spec.family),
        )
    return spec, resolved


def _check_options(algorithm: Algorithm, options: dict) -> None:
    """Reject solve options ``algorithm`` does not declare (a typo'd or
    foreign key must not be silently ignored)."""
    unknown = sorted(set(options) - set(algorithm.options), key=str)
    if unknown:
        raise SpecError(
            f"algorithm {algorithm.name!r} takes no option(s) {unknown}; "
            f"accepted options: {list(algorithm.options)}"
        )


def _execute(
    algo: Algorithm,
    spec: ProblemSpec,
    net: Network,
    eng: Engine,
    *,
    seed: int,
    max_rounds: int,
    options: dict,
    probe: Callable[[RoundTrace], None] | None = None,
) -> tuple[RunResult, Measurement]:
    """Run ``algo`` on ``eng`` — the one execution path solve()/simulate()
    share."""
    program = algo.program(net, spec, options)
    internal = EngineProbe()
    observer: Callable[[RoundTrace], None] = internal
    if probe is not None:

        def observer(trace: RoundTrace) -> None:
            internal(trace)
            probe(trace)

    result, wall = timed(
        eng.run, net, program, seed=seed, max_rounds=max_rounds, probe=observer
    )
    return result, internal.summarize(wall_seconds=wall)


def simulate(
    problem: ProblemSpec | str,
    *,
    algorithm: Algorithm | str,
    engine: Engine | str = DEFAULT_ENGINE,
    network: Network | None = None,
    graph: nx.Graph | None = None,
    n: int | None = None,
    seed: int = 0,
    max_rounds: int = 10_000,
    probe: Callable[[RoundTrace], None] | None = None,
    **options,
) -> tuple[RunResult, Measurement]:
    """Run an algorithm on an engine; return raw (result, measurement).

    No finalization, no checking — the low-level entry point.
    """
    spec, algo = _resolve_pair(problem, algorithm)
    _check_options(algo, options)
    eng = resolve_engine(engine)
    net = _resolve_network(algo, spec, network, graph, n, seed)
    return _execute(
        algo, spec, net, eng,
        seed=seed, max_rounds=max_rounds, options=options, probe=probe,
    )


def solve(
    problem: ProblemSpec | str,
    *,
    algorithm: Algorithm | str,
    engine: Engine | str = DEFAULT_ENGINE,
    network: Network | None = None,
    graph: nx.Graph | None = None,
    n: int | None = None,
    seed: int = 0,
    max_rounds: int = 10_000,
    check: bool = True,
    **options,
) -> SolveReport:
    """Solve ``problem`` with ``algorithm`` on ``engine``; report everything.

    When neither ``network`` nor ``graph`` is given, the algorithm's
    default family network on ~``n`` nodes (seeded) is used.  Extra
    keyword ``options`` are forwarded to the algorithm, which must
    declare each of them in :attr:`Algorithm.options` (e.g.
    ``input_edges=...`` for ``"matching:proposal"``); any other key is a
    :class:`SpecError`.  ``check=False`` skips validation
    (``report.valid`` is then ``None``).
    """
    spec, algo = _resolve_pair(problem, algorithm)
    _check_options(algo, options)
    eng = resolve_engine(engine)
    net = _resolve_network(algo, spec, network, graph, n, seed)
    result, measurement = _execute(
        algo, spec, net, eng, seed=seed, max_rounds=max_rounds, options=options
    )
    solution = algo.finalize(net, spec, options, result.outputs)
    check_result = _family_check(spec, net, solution) if check else None
    return SolveReport(
        problem=spec.spec,
        family=spec.family,
        algorithm=algo.name,
        engine=eng.name,
        seed=seed,
        n=net.n,
        rounds=result.rounds,
        outputs=solution,
        check=check_result,
        messages_delivered=measurement.messages_delivered,
        messages_dropped=measurement.messages_dropped,
        peak_live_nodes=measurement.peak_live_nodes,
        wall_seconds=measurement.wall_seconds,
    )
