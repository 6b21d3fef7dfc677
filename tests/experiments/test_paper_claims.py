"""Each paper claim is checked by its scenario's ``valid``.

Every case replaces the dependency one claim rests on with a version under
which the claim is false, and the scenario must then fail.  One case per
check a record's ``valid`` carries: the validity check of each pipeline
that checks a solution (a checker it calls, or the ``solve`` façade's
check), the shape and count checks of the existing pipelines, and each
scenario for a figure or statement (README's claims table lists them all).
"""

from types import SimpleNamespace

import networkx as nx
import pytest

from repro.experiments import execute_scenario, get_scenario, pipelines


def _falling_rounds(solve):
    rounds = iter(range(100, 0, -1))

    def falling(*args, **kwargs):
        report = solve(*args, **kwargs)
        return SimpleNamespace(outputs=report.outputs, rounds=next(rounds))

    return falling


def _failing_check(solve):
    def failing(*args, **kwargs):
        report = solve(*args, **kwargs)
        return SimpleNamespace(outputs=report.outputs, rounds=report.rounds, valid=False)

    return failing


def _rejects(_checker):
    return lambda *args: False


def _labels_of_a_maximum_matching(matching_to_labels):
    # A valid M/O/P labeling, but of a larger matching than the one solved.
    def labels(graph, _matching):
        maximum = nx.max_weight_matching(graph, maxcardinality=True)
        return matching_to_labels(graph, {frozenset(edge) for edge in maximum})

    return labels


def _with_edge(edge):
    def broken(diagram_edges):
        return lambda diagram: diagram_edges(diagram) | {edge}

    return broken


CASES = [
    pytest.param(
        "matching", "thm41-proposal-sweep", "check_maximal_matching", _rejects,
        id="thm41-maximal-matching-check",
    ),
    pytest.param(
        "matching", "fig3-formalism-labels", "check_bipartite_solution", _rejects,
        id="fig3-labeling-check",
    ),
    pytest.param(
        "arbdefective", "thm51-extraction", "check_proper_coloring", _rejects,
        id="thm51-proper-coloring-check",
    ),
    pytest.param(
        "ruling_sets", "thm61-peeling", "solve", _failing_check,
        id="thm61-ruling-set-check",
    ),
    pytest.param("mis", "aapr23-petersen", "solve", _failing_check, id="aapr23-mis-check"),
    pytest.param("mis", "luby-petersen", "solve", _failing_check, id="luby-mis-check"),
    pytest.param(
        "matching", "thm41-proposal-sweep", "solve", _falling_rounds,
        id="thm41-rounds-never-fall",
    ),
    pytest.param(
        "matching", "thm41-proposal-sweep", "theorem_41_bound",
        lambda _real: lambda **kwargs: SimpleNamespace(deterministic=-kwargs["delta_prime"]),
        id="thm41-bound-never-falls",
    ),
    pytest.param(
        "matching", "fig3-formalism-labels", "matching_to_labels",
        _labels_of_a_maximum_matching,
        id="fig3-m-count-is-matching-size",
    ),
    pytest.param(
        "matching", "lem45-steps-x0", "find_label_relaxation",
        lambda _real: lambda source, _target: {label: label for label in source.alphabet},
        id="lem45-no-label-map",
    ),
    pytest.param(
        "mis", "aapr23-parameters", "aapr23_mis_parameters",
        lambda real: lambda n: (*real(n)[:2], -real(n)[2]),
        id="aapr23-bound-never-falls",
    ),
    pytest.param(
        "ruling_sets", "thm61-bound-series", "theorem_61_bound",
        lambda _real: lambda **kwargs: SimpleNamespace(deterministic=float(kwargs["beta"])),
        id="thm61-bound-never-rises",
    ),
    pytest.param(
        "matching", "fig1-black-diagram", "diagram_edges", _with_edge(("X", "M")),
        id="fig1-diagram",
    ),
    pytest.param(
        "matching", "thm41-contradiction-region", "contradiction_region",
        lambda _real: lambda *args, **kwargs: False,
        id="sec42-contradiction-region",
    ),
    pytest.param(
        "matching", "thm41-contradiction-region", "lift_solvable_bipartite",
        lambda _real: lambda *args, **kwargs: (False, None, None),
        id="sec42-solvable-contrast",
    ),
    pytest.param(
        "ruling_sets", "fig2-black-diagram", "diagram_edges", _with_edge(("X", "P1")),
        id="fig2-diagram",
    ),
    pytest.param(
        "round_elimination", "thm32-lift-equivalence", "exists_zero_round_algorithm",
        lambda _real: lambda *args, **kwargs: False,
        id="thm32-equivalence",
    ),
    pytest.param(
        "round_elimination", "thm32-lift-equivalence", "check_lift_solution",
        lambda _real: lambda *args: False,
        id="thm32-round-trip",
    ),
    pytest.param(
        "round_elimination", "thmc2-instance-counts", "count_supported_instances_exact",
        lambda _real: lambda n: 2 ** (3 * n * n) + 1,
        id="thmc2-instance-counts",
    ),
    pytest.param(
        "round_elimination", "thmc2-union-bound", "derandomize_by_union_bound",
        lambda real: lambda instances, _seeds, succeeds: real(instances, (), succeeds),
        id="thmc2-union-bound",
    ),
]


@pytest.mark.parametrize(("suite", "scenario", "dependency", "broken"), CASES)
def test_a_false_claim_fails_its_scenario(monkeypatch, suite, scenario, dependency, broken):
    monkeypatch.setattr(pipelines, dependency, broken(getattr(pipelines, dependency)))
    assert execute_scenario(get_scenario(suite, scenario)).ok is False
