"""Human-readable rendering of problems and diagrams.

Regenerates the paper's figures as text: Figure 1 and Figure 2 are label
diagrams (we print nodes, edges and the Hasse-style reduction); constraint
listings are grouped back into condensed form where possible.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from repro.formalism.diagrams import diagram_reduction
from repro.formalism.problems import Problem

if TYPE_CHECKING:
    import networkx as nx


def render_diagram(graph: nx.DiGraph, title: str = "diagram") -> str:
    """Render a diagram as an adjacency listing plus its reduction.

    The full relation and the transitive reduction are both shown; the
    reduction is what the paper draws in Figures 1 and 2.
    """
    lines = [f"{title}:"]
    lines.append("  labels: " + ", ".join(str(node) for node in sorted(graph.nodes)))
    edges = sorted(graph.edges)
    if edges:
        lines.append("  strength relation (weak -> strong):")
        lines.extend(f"    {weak} -> {strong}" for weak, strong in edges)
    else:
        lines.append("  strength relation: (empty)")
    reduced = diagram_reduction(graph)
    reduced_edges = sorted(reduced.edges)
    if reduced_edges:
        lines.append("  transitive reduction (as drawn in the paper):")
        lines.extend(f"    {weak} -> {strong}" for weak, strong in reduced_edges)
    return "\n".join(lines)


def render_problem(problem: Problem) -> str:
    """Render a problem with condensed-form constraint grouping."""
    lines = [f"Problem {problem.name}"]
    lines.append(f"  Σ = {{{', '.join(sorted(problem.alphabet))}}}")
    lines.append(f"  white constraint (arity {problem.white_arity}):")
    lines.extend(f"    {line}" for line in condensed_listing(problem, "white"))
    lines.append(f"  black constraint (arity {problem.black_arity}):")
    lines.extend(f"    {line}" for line in condensed_listing(problem, "black"))
    return "\n".join(lines)


def condensed_listing(problem: Problem, side: str) -> list[str]:
    """List a constraint's configurations in exponent notation.

    Full condensed re-grouping (recovering brackets) is intentionally not
    attempted — it is not unique — but exponent compression keeps listings
    readable for wide configurations.
    """
    constraint = problem.white if side == "white" else problem.black
    rendered = []
    for config in constraint:
        counter = Counter(config.labels)
        parts = []
        for label in sorted(counter):
            count = counter[label]
            parts.append(label if count == 1 else f"{label}^{count}")
        rendered.append(" ".join(parts))
    return sorted(rendered)
