"""The arbdefective colored ruling set family Π_Δ(c,β) (paper §6).

An α-arbdefective c-colored β-ruling set is a node subset S carrying an
α-arbdefective c-coloring of its induced subgraph such that every node
outside S has a member of S within distance β.  The family contains MIS
(α = 0, c = 1, β = 1), (2,β)-ruling sets, arbdefective colorings (β = 0)
and sinkless coloring (β = 0, c = 1, α = Δ−1) as special cases (§6.1).

Definition 6.2 extends Π_Δ(c) (Definition 5.2) with pointer labels P_i and
U_i for 1 ≤ i ≤ β: a node at distance i from S outputs P_i on one edge
(towards S) and U_i elsewhere.  On the black side P_i and U_i are
compatible with X, with every ℓ(C) and among themselves as follows:
P_i U_j allowed iff j < i, and U_i U_j always.

On U_i ℓ(C): the configuration list in Definition 6.2 spells out
``P_i ℓ(C)``; the accompanying bullet ("we make P_i *and U_i* compatible
with all the labels of Π_Δ(c)") and Figure 2's diagram (which contains the
edge P_2 → U_2, impossible without U_i ℓ(C)) show the U_i ℓ(C)
configurations are intended as well, so this construction includes them.
The Lemma 6.6 proof relies on the same compatibilities (type-2/type-3
arguments), which the executable version in
:mod:`repro.analysis.ruling_peeling` exercises.
"""

from __future__ import annotations

from repro.formalism.configurations import CondensedConfiguration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.labels import color_label
from repro.formalism.problems import Problem
from repro.problems.arbdefective import (
    arbdefective_alphabet,
    nonempty_color_subsets,
    pi_arbdefective,
)
from repro.utils import InvalidParameterError


def pointer_label(index: int) -> Label:
    """The P_i label."""
    return f"P{index}"


def unpointed_label(index: int) -> Label:
    """The U_i label."""
    return f"U{index}"


def ruling_alphabet(colors: int, beta: int) -> frozenset[Label]:
    """Σ of Π_Δ(c,β): the Π_Δ(c) alphabet plus P_i, U_i for 1 ≤ i ≤ β."""
    extra = [pointer_label(i) for i in range(1, beta + 1)]
    extra += [unpointed_label(i) for i in range(1, beta + 1)]
    return arbdefective_alphabet(colors) | frozenset(extra)


def pi_ruling(delta: int, colors: int, beta: int) -> Problem:
    """The problem Π_Δ(c,β) of Definition 6.2.

    For β = 0 this is exactly Π_Δ(c) (Definition 5.2); for β ≥ 1 the
    pointer machinery described in the module docstring is added.
    """
    if beta < 0:
        raise InvalidParameterError(f"β must be ≥ 0, got {beta}")
    if beta == 0:
        return pi_arbdefective(delta, colors)
    if delta < 2:
        raise InvalidParameterError(f"Δ must be ≥ 2, got {delta}")

    base = pi_arbdefective(delta, colors)
    alphabet = ruling_alphabet(colors, beta)

    # White constraint: the Π_Δ(c) configurations plus P_i U_i^{Δ-1}.
    white_configs = set(base.white.configurations)
    white_extra = [
        CondensedConfiguration(
            [frozenset([pointer_label(i)])]
            + [frozenset([unpointed_label(i)])] * (delta - 1)
        )
        for i in range(1, beta + 1)
    ]
    white = Constraint(
        white_configs | {c for cc in white_extra for c in cc.expand()}
    )

    # Black constraint: Π_Δ(c) black configurations, with X L extended to
    # the new labels, plus the pointer compatibilities.
    black_condensed = []
    subsets = nonempty_color_subsets(colors)
    for first in subsets:
        for second in subsets:
            if first & second:
                continue
            black_condensed.append(
                CondensedConfiguration(
                    [
                        frozenset([color_label(first)]),
                        frozenset([color_label(second)]),
                    ]
                )
            )
    for label in sorted(alphabet):
        black_condensed.append(
            CondensedConfiguration([frozenset(["X"]), frozenset([label])])
        )
    for i in range(1, beta + 1):
        for j in range(1, i):
            black_condensed.append(
                CondensedConfiguration(
                    [
                        frozenset([pointer_label(i)]),
                        frozenset([unpointed_label(j)]),
                    ]
                )
            )
    for i in range(1, beta + 1):
        for subset in subsets:
            black_condensed.append(
                CondensedConfiguration(
                    [
                        frozenset([pointer_label(i)]),
                        frozenset([color_label(subset)]),
                    ]
                )
            )
            # U_i ℓ(C): see the module docstring for why these are included.
            black_condensed.append(
                CondensedConfiguration(
                    [
                        frozenset([unpointed_label(i)]),
                        frozenset([color_label(subset)]),
                    ]
                )
            )
    for i in range(1, beta + 1):
        for j in range(i, beta + 1):
            black_condensed.append(
                CondensedConfiguration(
                    [
                        frozenset([unpointed_label(i)]),
                        frozenset([unpointed_label(j)]),
                    ]
                )
            )
    black = Constraint.from_condensed(black_condensed)

    return Problem(
        alphabet=alphabet,
        white=white,
        black=black,
        name=f"Π_{delta}({colors},{beta})",
    )


def ruling_set_to_family_labels(
    graph,
    ruling_set: set,
    color_of: dict[object, int],
    orientation: set[tuple[object, object]],
    alpha: int,
    beta: int,
) -> dict[tuple[object, object], Label]:
    """Lemma 6.3's β-round conversion, executed on a concrete solution.

    Given an α-arbdefective c-colored β-ruling set (S = ``ruling_set``
    with its coloring/orientation), label half-edges for Π_Δ((α+1)c, β):
    nodes of S use the Lemma 5.3 conversion; a node at distance i from S
    (1 ≤ i ≤ β) points with P_i along one shortest path towards S and
    outputs U_i elsewhere.
    """
    from repro.checkers.graph_problems import hop_distances
    from repro.problems.arbdefective import arbdefective_to_family_labels

    if not ruling_set:
        raise InvalidParameterError("the ruling set must be non-empty")
    distances = hop_distances(graph, set(ruling_set))
    too_far = [node for node, dist in distances.items() if dist > beta]
    if too_far or len(distances) < graph.number_of_nodes():
        raise InvalidParameterError(
            f"nodes {too_far or 'disconnected ones'} are farther than β = {beta} from S"
        )

    inside = graph.subgraph(ruling_set)
    inside_labels = arbdefective_to_family_labels(
        inside, {v: color_of[v] for v in ruling_set}, orientation, alpha
    )

    outdegree_in_s = {node: 0 for node in ruling_set}
    for tail, _head in orientation:
        outdegree_in_s[tail] += 1

    labels: dict[tuple[object, object], Label] = {}
    for node in graph.nodes:
        dist = distances[node]
        if dist == 0:
            # Recompute the node's ℓ(C_v) with the same rule as
            # arbdefective_to_family_labels, so in-S and out-of-S edges
            # carry a consistent label (the white constraint fixes exact
            # counts: ℓ(C_v)^{Δ-j} X^j with |C_v| = j+1).
            base = _block_base(color_of[node], alpha)
            chosen_label = color_label(
                range(base + 1, base + outdegree_in_s[node] + 2)
            )
            for neighbor in graph.neighbors(node):
                if neighbor in ruling_set:
                    labels[(node, neighbor)] = inside_labels[(node, neighbor)]
                else:
                    labels[(node, neighbor)] = chosen_label
        else:
            parent = min(
                (
                    neighbor
                    for neighbor in graph.neighbors(node)
                    if distances[neighbor] == dist - 1
                ),
                key=str,
            )
            for neighbor in graph.neighbors(node):
                if neighbor == parent:
                    labels[(node, neighbor)] = pointer_label(dist)
                else:
                    labels[(node, neighbor)] = unpointed_label(dist)
    return labels


def _block_base(color: int, alpha: int) -> int:
    return (color - 1) * (alpha + 1)
