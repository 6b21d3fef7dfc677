"""Strength relations and diagrams (paper §2).

For a constraint C and labels X, Y: *X is at least as strong as Y w.r.t. C*
if, for every configuration of C containing Y, replacing an arbitrary number
of occurrences of Y with X yields a configuration that is also in C.

The *diagram* of a problem w.r.t. C is the directed graph on Σ with an edge
(or more generally a path) from Y to X whenever X is at least as strong as
Y.  A set S of labels is *right-closed* w.r.t. a diagram when every label
reachable from a member of S is also in S.  Right-closed sets are exactly
the labels of the lift operator (Definition 3.1), so this module is the
foundation of :mod:`repro.core.lift`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations
from typing import TYPE_CHECKING

from repro.formalism.configurations import Label
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem

if TYPE_CHECKING:
    import networkx as nx


def is_at_least_as_strong(
    strong: Label, weak: Label, constraint: Constraint
) -> bool:
    """Decide the strength relation ``strong ≥ weak`` w.r.t. ``constraint``.

    It suffices to check single replacements: if replacing one occurrence
    always stays inside C, replacing any number does too (induction on the
    number of replaced occurrences, each intermediate configuration being in
    C and containing one fewer ``weak``).
    """
    if strong == weak:
        return True
    for config in constraint.configurations:
        if not config.contains(weak):
            continue
        if config.replace_one(weak, strong) not in constraint:
            return False
    return True


def strength_relation(
    alphabet: Iterable[Label], constraint: Constraint
) -> set[tuple[Label, Label]]:
    """All ordered pairs (weak, strong) with strong ≥ weak, strong ≠ weak."""
    labels = sorted(set(alphabet))
    relation: set[tuple[Label, Label]] = set()
    for weak, strong in ((a, b) for a in labels for b in labels if a != b):
        if is_at_least_as_strong(strong, weak, constraint):
            relation.add((weak, strong))
    return relation


def diagram(alphabet: Iterable[Label], constraint: Constraint) -> nx.DiGraph:
    """The diagram of a constraint: edge Y→X iff X ≥ Y (X ≠ Y).

    The graph carries the *full* (transitively closed) relation; use
    :func:`diagram_reduction` for the Hasse-style rendering of Figures 1-2.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(sorted(set(alphabet)))
    graph.add_edges_from(strength_relation(alphabet, constraint))
    return graph


def black_diagram(problem: Problem) -> nx.DiGraph:
    """The diagram of a problem w.r.t. its black constraint."""
    return diagram(problem.alphabet, problem.black)


def diagram_reduction(graph: nx.DiGraph) -> nx.DiGraph:
    """Transitive reduction after collapsing strength-equivalent labels.

    Labels that are mutually at-least-as-strong form cycles; the transitive
    reduction of a DAG is only defined after condensing those.  Each
    condensed node is represented by its sorted member tuple.
    """
    import networkx as nx

    condensation = nx.condensation(graph)
    reduced = nx.transitive_reduction(condensation)
    rendered = nx.DiGraph()
    members = condensation.nodes(data="members")
    label_of = {
        node: "≡".join(sorted(member_set)) for node, member_set in members
    }
    rendered.add_nodes_from(label_of[node] for node in reduced.nodes)
    rendered.add_edges_from(
        (label_of[u], label_of[v]) for u, v in reduced.edges
    )
    return rendered


def successors_closure(graph: nx.DiGraph, labels: Iterable[Label]) -> frozenset[Label]:
    """All labels reachable from ``labels`` (including themselves)."""
    import networkx as nx

    closure: set[Label] = set()
    for label in labels:
        if label not in graph:
            raise KeyError(f"label {label!r} not in diagram")
        closure.add(label)
        closure.update(nx.descendants(graph, label))
    return frozenset(closure)


def is_right_closed(graph: nx.DiGraph, labels: frozenset[Label]) -> bool:
    """True if ``labels`` is right-closed w.r.t. the diagram."""
    return successors_closure(graph, labels) == labels


def right_closed_subsets(graph: nx.DiGraph) -> Iterator[frozenset[Label]]:
    """Enumerate all non-empty right-closed subsets of the diagram.

    A right-closed set is a union of closures of single labels, so we
    enumerate unions of the (finitely many) distinct single-label closures.
    Deduplicated; order is deterministic (sorted by size then members).
    """
    base_closures = sorted(
        {successors_closure(graph, [label]) for label in graph.nodes},
        key=lambda closure: (len(closure), sorted(closure)),
    )
    found: set[frozenset[Label]] = set()
    for count in range(1, len(base_closures) + 1):
        for combo in combinations(base_closures, count):
            union = frozenset().union(*combo)
            if union not in found:
                found.add(union)
    yield from sorted(found, key=lambda closure: (len(closure), sorted(closure)))


def right_closure(graph: nx.DiGraph, labels: Iterable[Label]) -> frozenset[Label]:
    """The smallest right-closed superset of ``labels``."""
    return successors_closure(graph, labels)


def diagram_edges(graph: nx.DiGraph) -> frozenset[tuple[Label, Label]]:
    """The edge set of a diagram as a frozenset."""
    return frozenset(graph.edges)
