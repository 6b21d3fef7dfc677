"""How far the Supported LOCAL view runner sees, plus rendering
round-trips."""

from repro.formalism import render_diagram, render_problem, black_diagram
from repro.graphs import cycle
from repro.local import SupportedInstance, run_supported_view_algorithm
from repro.problems import maximal_matching_problem


class TestViewRadius:
    def test_component_detection_needs_radius(self):
        """Toy task: every node reports the number of input edges within
        its view.  With the whole cycle as input, what a node can count
        grows with the radius T the runner grants it."""
        graph = cycle(8)
        instance = SupportedInstance.from_graphs(graph, list(graph.edges))

        def rule(view):
            # Count visible input edges (marks within the radius).
            seen = set()
            for edge, marked in view._visible_marks.items():
                if marked:
                    seen.add(edge)
            return len(seen)

        # Radius T sees the edges incident to the 2T + 1 nodes within
        # distance T: 2T + 2 edges on a cycle.
        for radius, visible in [(1, 4), (2, 6)]:
            result = run_supported_view_algorithm(instance, radius, rule)
            assert result.rounds == radius
            assert set(result.outputs.values()) == {visible}


class TestRendering:
    def test_render_problem_contains_constraints(self):
        problem = maximal_matching_problem(3)
        text = render_problem(problem)
        assert "M O^2" in text
        assert "white constraint" in text

    def test_render_diagram_shows_reduction(self):
        problem = maximal_matching_problem(3)
        text = render_diagram(black_diagram(problem), title="black")
        assert "P -> O" in text
        assert "transitive reduction" in text
