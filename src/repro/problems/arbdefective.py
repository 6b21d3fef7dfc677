"""The arbdefective coloring family Π_Δ(c) (paper §5, Definition 5.2).

The α-arbdefective c-coloring problem asks for a c-coloring of the nodes
plus an orientation of the monochromatic edges in which every node has
outdegree at most α.  Lemma 5.3 ([BBKO22]) turns any α-arbdefective
c-coloring into a Π_Δ((α+1)c) solution in 0 rounds, so lower bounds for the
family transfer to arbdefective coloring.

Labels: X plus ℓ(C) for every non-empty C ⊆ {1,…,c} (encoded ``{1,3}``).
White (arity Δ): ℓ(C)^{Δ-x} X^x with x = |C|−1, one per C.
Black (arity 2): ℓ(C₁)ℓ(C₂) for disjoint non-empty C₁, C₂; X L for every L.

The family is a *fixed point* under round elimination when c ≤ Δ
(Lemma 5.4), which the test-suite verifies mechanically at small sizes.
"""

from __future__ import annotations

from itertools import chain, combinations

from repro.formalism.configurations import CondensedConfiguration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.labels import color_label
from repro.formalism.problems import Problem
from repro.utils import InvalidParameterError

MAX_EXPLICIT_COLORS = 6


def nonempty_color_subsets(colors: int) -> list[frozenset[int]]:
    """All non-empty subsets of {1..colors}, smallest first."""
    universe = range(1, colors + 1)
    return [
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(universe, size) for size in range(1, colors + 1)
        )
    ]


def arbdefective_alphabet(colors: int) -> frozenset[Label]:
    """Σ of Π_Δ(c): {X} ∪ {ℓ(C) : ∅ ≠ C ⊆ [c]}."""
    return frozenset(
        ["X"] + [color_label(subset) for subset in nonempty_color_subsets(colors)]
    )


def pi_arbdefective(delta: int, colors: int) -> Problem:
    """The problem Π_Δ(c) of Definition 5.2.

    ``colors`` is the paper's c — in applications c = (α+1)·c_base after
    Lemma 5.3's conversion.  The alphabet has 2^c labels; sizes above
    ``MAX_EXPLICIT_COLORS`` are rejected to keep constructions explicit.
    """
    if delta < 2:
        raise InvalidParameterError(f"Δ must be ≥ 2, got {delta}")
    if colors < 1:
        raise InvalidParameterError(f"c must be ≥ 1, got {colors}")
    if colors > MAX_EXPLICIT_COLORS:
        raise InvalidParameterError(
            f"c = {colors} exceeds the explicit-construction cap "
            f"{MAX_EXPLICIT_COLORS} (alphabet would have 2^c labels)"
        )

    subsets = nonempty_color_subsets(colors)
    white_condensed = []
    for subset in subsets:
        x = len(subset) - 1
        if delta - x < 1:
            # ℓ(C)^{Δ-x} needs at least one ℓ(C); subsets too large for Δ
            # contribute no configuration.
            continue
        label = color_label(subset)
        slots = [frozenset([label])] * (delta - x) + [frozenset(["X"])] * x
        white_condensed.append(CondensedConfiguration(slots))
    white = Constraint.from_condensed(white_condensed)

    alphabet = arbdefective_alphabet(colors)
    black_configs = []
    for first in subsets:
        for second in subsets:
            if first & second:
                continue
            black_configs.append(
                CondensedConfiguration(
                    [
                        frozenset([color_label(first)]),
                        frozenset([color_label(second)]),
                    ]
                )
            )
    for label in sorted(alphabet):
        black_configs.append(
            CondensedConfiguration([frozenset(["X"]), frozenset([label])])
        )
    black = Constraint.from_condensed(black_configs)

    return Problem(
        alphabet=alphabet,
        white=white,
        black=black,
        name=f"Π_{delta}({colors})",
    )


def sinkless_coloring_problem(delta: int) -> Problem:
    """Sinkless coloring: Π_Δ(Δ), the (Δ−1)-arbdefective 1-coloring case.

    §1.1 notes sinkless coloring (equivalent to sinkless orientation up to
    one round) arises from the ruling-set family at β = 0, α = Δ−1, c = 1;
    after the Lemma 5.3 conversion that is Π_Δ((α+1)·c) = Π_Δ(Δ).
    """
    return pi_arbdefective(delta, delta)


def arbdefective_to_family_labels(
    graph,
    color_of: dict[object, int],
    orientation: set[tuple[object, object]],
    alpha: int,
) -> dict[tuple[object, object], Label]:
    """Lemma 5.3's 0-round conversion, executed on a concrete solution.

    Given an α-arbdefective c-coloring of ``graph`` (a color per node plus
    an orientation of the monochromatic edges with outdegree ≤ α), produce
    half-edge labels for Π_Δ((α+1)c): node v with color q and outdegree j
    labels its outgoing monochromatic edges X and every other incident
    edge ℓ(C_v), where C_v is a (j+1)-subset of the dedicated color block
    B_q = {(q−1)(α+1)+1, …, q(α+1)}.  The white constraint
    ℓ(C)^{Δ-x} X^x (x = |C|−1) holds with exact counts because
    |C_v| − 1 = j; the black constraint holds because blocks of distinct
    colors are disjoint and every monochromatic edge carries X on its tail
    side (X is compatible with everything).

    ``orientation`` contains (tail, head) pairs for monochromatic edges.
    Returns labels keyed by the directed half-edge (node, neighbor).
    """
    outgoing: dict[object, set[object]] = {node: set() for node in graph.nodes}
    for tail, head in orientation:
        if not graph.has_edge(tail, head):
            raise InvalidParameterError(f"oriented pair {(tail, head)} is not an edge")
        if color_of[tail] != color_of[head]:
            raise InvalidParameterError(
                f"orientation contains bichromatic edge {(tail, head)}"
            )
        outgoing[tail].add(head)
    labels: dict[tuple[object, object], Label] = {}
    for node in graph.nodes:
        color = color_of[node]
        if len(outgoing[node]) > alpha:
            raise InvalidParameterError(
                f"node {node!r} has outdegree {len(outgoing[node])} > α = {alpha}"
            )
        base = (color - 1) * (alpha + 1)
        outdegree = len(outgoing[node])
        chosen = frozenset(range(base + 1, base + outdegree + 2))
        chosen_label = color_label(chosen)
        for neighbor in graph.neighbors(node):
            if neighbor in outgoing[node]:
                labels[(node, neighbor)] = "X"
            else:
                labels[(node, neighbor)] = chosen_label
    return labels
