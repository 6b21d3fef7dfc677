"""Checkers for black-white-formalism solutions on concrete graphs.

Three solution shapes appear in the paper and are all validated here:

* *bipartite* solutions: one label per edge of a 2-colored graph (§2);
* *half-edge* labelings: a label per (node, neighbor) pair of a plain
  graph — the shape produced by the Lemma 5.3 / 6.3 conversions, validated
  against the problem on the graph's incidence structure (node constraint
  on nodes, edge constraint on the pair of half-edge labels);
* *S-solutions* (Definition 5.6): constraints active only inside S.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.checkers.graph_problems import CheckResult
from repro.formalism.configurations import Configuration, Label
from repro.formalism.problems import Problem

if TYPE_CHECKING:
    import networkx as nx


def _ok() -> CheckResult:
    return CheckResult(valid=True)


def _fail(reason: str) -> CheckResult:
    return CheckResult(valid=False, reason=reason)


def check_bipartite_solution(
    graph: nx.Graph, problem: Problem, labeling: dict[frozenset, Label]
) -> CheckResult:
    """Validate an edge labeling of a 2-colored graph (paper §2 semantics:
    only nodes of degree exactly d_W / d_B are constrained)."""
    for edge in graph.edges:
        if frozenset(edge) not in labeling:
            return _fail(f"edge {tuple(edge)} is unlabeled")
    for node, data in graph.nodes(data=True):
        color = data.get("color")
        if color == "white":
            constraint, arity = problem.white, problem.white_arity
        elif color == "black":
            constraint, arity = problem.black, problem.black_arity
        else:
            return _fail(f"node {node!r} has no white/black color")
        if graph.degree(node) != arity:
            continue
        incident = [
            labeling[frozenset((node, neighbor))]
            for neighbor in graph.neighbors(node)
        ]
        if not constraint.allows_multiset(incident):
            return _fail(
                f"{color} node {node!r} sees {Configuration(incident)} ∉ "
                f"{color} constraint"
            )
    return _ok()


def check_half_edge_labeling(
    graph: nx.Graph,
    problem: Problem,
    labels: dict[tuple, Label],
    s_nodes: set | None = None,
) -> CheckResult:
    """Validate a half-edge labeling of a plain graph against Π.

    Node constraint (white) applies to nodes of degree exactly d_W (inside
    S when given); edge constraint (black, arity 2) applies to the two
    half-edge labels of each edge (with both endpoints in S when given) —
    the non-bipartite semantics via the incidence graph.
    """
    if s_nodes is None:
        s_nodes = set(graph.nodes)
    for node in graph.nodes:
        if node not in s_nodes:
            continue
        for neighbor in graph.neighbors(node):
            if (node, neighbor) not in labels:
                return _fail(f"half-edge {(node, neighbor)} is unlabeled")
        if graph.degree(node) != problem.white_arity:
            continue
        incident = [
            labels[(node, neighbor)] for neighbor in graph.neighbors(node)
        ]
        if not problem.white.allows_multiset(incident):
            return _fail(
                f"node {node!r} sees {Configuration(incident)} ∉ node constraint"
            )
    if problem.black_arity != 2:
        return _fail(
            f"half-edge checking expects edge constraints of arity 2, got "
            f"{problem.black_arity}"
        )
    for u, v in graph.edges:
        if u not in s_nodes or v not in s_nodes:
            continue
        pair = [labels[(u, v)], labels[(v, u)]]
        if not problem.black.allows_multiset(pair):
            return _fail(
                f"edge {(u, v)} carries {Configuration(pair)} ∉ edge constraint"
            )
    return _ok()
