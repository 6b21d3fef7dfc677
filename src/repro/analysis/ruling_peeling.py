"""Lemma 6.6, executable: one peeling step of the §6 ruling-set argument.

The lemma transforms an S-solution of ¯Π_{Δ′,x}(k,β) — whose node
constraint allows each node to satisfy lift_{Δ,2}(Π_{Δ′−y}(k,β)) for some
y ∈ {0..x} — into an S′-solution of ¯Π_{Δ′,x+1}(2k, β−1) with
|S′| ≥ |S|/4, eliminating the deepest pointer labels P_β, U_β.  Node
types, exactly as in the proof:

* type 3 — some incident label-set lacks U_β: drop P_β/U_β, lose at most
  one unit of effective degree;
* type 1 — all label-sets contain U_β and ≥ Δ−Δ′ of them contain P_β:
  removed from S (the counting argument bounds them by 3|S|/4);
* type 2 — all label-sets contain U_β, < Δ−Δ′ contain P_β: relabelled
  with color sets shifted by k (the fresh palette {k+1..2k}) plus X.

The module provides the classifier, the per-step transformation, the
|S′| ≥ |S|/4 certificate, and a checker for ¯Π solutions at any (x, k, β).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import networkx as nx

from repro.formalism.configurations import Label
from repro.formalism.labels import color_label, color_label_members, is_set_label
from repro.formalism.problems import Problem
from repro.problems.ruling_sets import pi_ruling, pointer_label, unpointed_label
from repro.utils import CertificateError


@dataclass(frozen=True)
class BarPiChecker:
    """Validity of ¯Π_{Δ′,x}(k,β) S-solutions (label-sets on half-edges)."""

    delta_prime: int
    x: int
    k: int
    beta: int

    def _family_problem(self, y: int) -> Problem:
        return pi_ruling(self.delta_prime - y, self.k, self.beta)

    def node_ok(self, label_sets: list[frozenset[Label]]) -> bool:
        """∃ y ∈ {0..x}: every (Δ′−y)-subset admits a white-constraint
        choice of Π_{Δ′−y}(k,β) — the lift node condition."""
        for y in range(self.x + 1):
            arity = self.delta_prime - y
            if arity < 1 or arity > len(label_sets):
                continue
            problem = self._family_problem(y)
            if all(
                problem.white.exists_choice(subset)
                for subset in combinations(label_sets, arity)
            ):
                return True
        return False

    def edge_ok(
        self, first: frozenset[Label], second: frozenset[Label]
    ) -> bool:
        """Every choice across the pair is in the family's edge constraint
        (which is independent of Δ′−y)."""
        problem = self._family_problem(0)
        return all(
            problem.black.allows_multiset(choice)
            for choice in product(first, second)
        )

    def check(
        self,
        graph: nx.Graph,
        s_nodes: set,
        assignment: dict[tuple, frozenset[Label]],
    ) -> bool:
        for node in s_nodes:
            sets = [
                assignment[(node, neighbor)] for neighbor in graph.neighbors(node)
            ]
            if not self.node_ok(sets):
                return False
        for u, v in graph.edges:
            if u in s_nodes and v in s_nodes:
                if not self.edge_ok(assignment[(u, v)], assignment[(v, u)]):
                    return False
        return True


def classify_types(
    graph: nx.Graph,
    s_nodes: set,
    assignment: dict[tuple, frozenset[Label]],
    delta: int,
    delta_prime: int,
    beta: int,
) -> tuple[set, set, set, set]:
    """Split S into (type1, type2, type3, untouched) per the proof.

    ``untouched`` nodes have no P_β/U_β anywhere and keep their labels.
    """
    p_beta = pointer_label(beta)
    u_beta = unpointed_label(beta)
    type1: set = set()
    type2: set = set()
    type3: set = set()
    untouched: set = set()
    for node in s_nodes:
        sets = [assignment[(node, neighbor)] for neighbor in graph.neighbors(node)]
        touches = any(p_beta in s or u_beta in s for s in sets)
        if not touches:
            untouched.add(node)
            continue
        if any(u_beta not in s for s in sets):
            type3.add(node)
            continue
        p_count = sum(1 for s in sets if p_beta in s)
        if p_count >= delta - delta_prime:
            type1.add(node)
        else:
            type2.add(node)
    return type1, type2, type3, untouched


def type1_fraction_certificate(
    s_size: int, type1_size: int, delta: int, delta_prime: int
) -> bool:
    """The proof's bound: with Δ ≥ 3Δ′, type-1 nodes ≤ |S|·Δ/(2(Δ−Δ′))
    ≤ 3|S|/4 — verify both inequalities numerically."""
    if delta < 3 * delta_prime:
        raise CertificateError(
            f"the Lemma 6.6 counting needs Δ ≥ 3Δ′ (got Δ={delta}, Δ′={delta_prime})"
        )
    bound = s_size * delta / (2 * (delta - delta_prime))
    return type1_size <= bound and bound <= 3 * s_size / 4 + 1e-9


@dataclass(frozen=True)
class PeelResult:
    """Outcome of one Lemma 6.6 application."""

    s_prime: set
    assignment: dict
    type1: set
    type2: set
    type3: set
    fraction_ok: bool


def peel_once(
    graph: nx.Graph,
    s_nodes: set,
    assignment: dict[tuple, frozenset[Label]],
    delta: int,
    delta_prime: int,
    k: int,
    beta: int,
) -> PeelResult:
    """Apply the Lemma 6.6 transformation once (β → β−1, k → 2k).

    Label-sets of type-2 nodes are rebuilt from the fresh color palette
    {k+1..2k} plus X; every other surviving node just drops P_β/U_β from
    its sets.  The caller re-checks the result with a
    :class:`BarPiChecker` at (x+1, 2k, β−1) — that check *is* the lemma's
    conclusion.
    """
    if beta < 1:
        raise CertificateError("peeling needs β ≥ 1")
    p_beta = pointer_label(beta)
    u_beta = unpointed_label(beta)
    type1, type2, type3, untouched = classify_types(
        graph, s_nodes, assignment, delta, delta_prime, beta
    )
    s_prime = (s_nodes - type1)
    fraction_ok = type1_fraction_certificate(
        len(s_nodes), len(type1), delta, delta_prime
    )

    new_assignment: dict[tuple, frozenset[Label]] = dict(assignment)
    drop = {p_beta, u_beta}
    for node in type3 | untouched:
        for neighbor in graph.neighbors(node):
            new_assignment[(node, neighbor)] = (
                assignment[(node, neighbor)] - drop
            )
    for node in type2:
        shifted = _shifted_union(graph, node, assignment, k)
        for neighbor in graph.neighbors(node):
            original = assignment[(node, neighbor)]
            if p_beta in original:
                # P-edges get the union of all the new U-edge sets.
                new_assignment[(node, neighbor)] = shifted | {"X"}
            else:
                new_assignment[(node, neighbor)] = (
                    _shift_colors(original, k) | {"X"}
                )
    return PeelResult(
        s_prime=s_prime,
        assignment=new_assignment,
        type1=type1,
        type2=type2,
        type3=type3,
        fraction_ok=fraction_ok,
    )


def _shift_colors(label_set: frozenset[Label], k: int) -> frozenset[Label]:
    """{ℓ({c+k : c ∈ C}) : ℓ(C) ∈ L} — the proof's palette shift,
    discarding P_i/U_i/X labels."""
    shifted: set[Label] = set()
    for label in label_set:
        if label == "X" or not is_set_label(label):
            continue
        colors = color_label_members(label)
        shifted.add(color_label({color + k for color in colors}))
    return frozenset(shifted)


def _shifted_union(
    graph: nx.Graph, node, assignment: dict, k: int
) -> frozenset[Label]:
    """Union of the shifted label-sets over the node's U-edges."""
    union: set[Label] = set()
    for neighbor in graph.neighbors(node):
        union |= _shift_colors(assignment[(node, neighbor)], k)
    return frozenset(union)
