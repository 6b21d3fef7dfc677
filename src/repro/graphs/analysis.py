"""Certified property bundles for support graphs.

The framework entry points (Theorem 3.4 pipelines) want a single object
carrying a support graph together with the certificates its hypotheses
consume: regularity, girth, independence / chromatic bounds, bipartition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graphs.chromatic import (
    chromatic_lower_bound_from_independence,
    exact_chromatic_number,
)
from repro.graphs.girth import exact_girth
from repro.graphs.independence import exact_independence_number

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class SupportGraphReport:
    """Everything Theorem 3.4 / §5-§6 arguments ask of a support graph."""

    n: int
    is_regular: bool
    degree: int
    girth: float
    independence_number: int | None
    chromatic_number: int | None
    chromatic_lower_bound: int | None
    is_bipartite: bool


def analyze_support_graph(
    graph: nx.Graph,
    exact_limits: tuple[int, int] = (64, 48),
) -> SupportGraphReport:
    """Compute the certified report (exact values only below the limits)."""
    import networkx as nx

    independence_limit, chromatic_limit = exact_limits
    n = graph.number_of_nodes()
    degrees = {graph.degree(node) for node in graph.nodes}
    degree = max(degrees, default=0)

    independence = None
    chromatic = None
    chromatic_lb = None
    if n <= independence_limit:
        independence = exact_independence_number(graph, node_limit=independence_limit)
        chromatic_lb = chromatic_lower_bound_from_independence(
            graph, node_limit=independence_limit
        )
    if n <= chromatic_limit:
        chromatic = exact_chromatic_number(graph, node_limit=chromatic_limit)

    return SupportGraphReport(
        n=n,
        is_regular=len(degrees) <= 1,
        degree=degree,
        girth=exact_girth(graph),
        independence_number=independence,
        chromatic_number=chromatic,
        chromatic_lower_bound=chromatic_lb,
        is_bipartite=nx.is_bipartite(graph),
    )
