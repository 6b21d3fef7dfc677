"""Golden-output tests for :mod:`repro.formalism.rendering`.

Rendering is how humans audit problems and diagrams against the paper's
figures; a formatting change must show up as a test diff, not be noticed
by eye.  The expected strings are frozen literals on purpose — update
them only when a rendering change is intended."""

import networkx as nx
import pytest

from repro.formalism.problems import problem_from_lines
from repro.formalism.rendering import (
    condensed_listing,
    render_diagram,
    render_problem,
)
from repro.problems import maximal_matching_problem


@pytest.fixture
def demo_problem():
    return problem_from_lines(["M O^2", "P^3"], ["[MP] O", "O O"], name="demo")


class TestRenderProblem:
    def test_condensed_problem_golden(self, demo_problem):
        assert render_problem(demo_problem) == (
            "Problem demo\n"
            "  Σ = {M, O, P}\n"
            "  white constraint (arity 3):\n"
            "    M O^2\n"
            "    P^3\n"
            "  black constraint (arity 2):\n"
            "    M O\n"
            "    O P\n"
            "    O^2"
        )

    def test_maximal_matching_golden(self):
        assert render_problem(maximal_matching_problem(3)) == (
            "Problem MM_3\n"
            "  Σ = {M, O, P}\n"
            "  white constraint (arity 3):\n"
            "    M O^2\n"
            "    P^3\n"
            "  black constraint (arity 3):\n"
            "    M O P\n"
            "    M O^2\n"
            "    M P^2\n"
            "    O^3"
        )


class TestCondensedListing:
    def test_exponent_compression(self, demo_problem):
        assert condensed_listing(demo_problem, "white") == ["M O^2", "P^3"]
        assert condensed_listing(demo_problem, "black") == ["M O", "O P", "O^2"]

    def test_single_occurrence_has_no_exponent(self, demo_problem):
        listing = condensed_listing(demo_problem, "black")
        assert "M O" in listing and "M^1" not in " ".join(listing)


class TestRenderDiagram:
    def test_diagram_with_reduction_golden(self):
        graph = nx.DiGraph()
        graph.add_edges_from(
            [("O", "M"), ("O", "P"), ("M", "X"), ("P", "X"), ("O", "X")]
        )
        assert render_diagram(graph, title="demo diagram") == (
            "demo diagram:\n"
            "  labels: M, O, P, X\n"
            "  strength relation (weak -> strong):\n"
            "    M -> X\n"
            "    O -> M\n"
            "    O -> P\n"
            "    O -> X\n"
            "    P -> X\n"
            "  transitive reduction (as drawn in the paper):\n"
            "    M -> X\n"
            "    O -> M\n"
            "    O -> P\n"
            "    P -> X"
        )

    def test_empty_relation_golden(self):
        graph = nx.DiGraph()
        graph.add_nodes_from(["A", "B"])
        assert render_diagram(graph) == (
            "diagram:\n  labels: A, B\n  strength relation: (empty)"
        )
