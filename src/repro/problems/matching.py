"""The x-maximal y-matching problem family Π_Δ(x,y) (paper §4).

An *x-maximal y-matching* of G is an edge subset M where every node is
incident to at most y edges of M, and every M-free node v has at least
min{deg(v), Δ−x} matched neighbors.  Maximal matching is the case
x = 0, y = 1.

Definition 4.2 encodes the family in the black-white formalism over labels
{M, O, P, X, Z}; Lemma 4.4 ([BO20]) shows a solution to x-maximal
y-matching yields one to Π_Δ(x,y) in 2 rounds, so lower bounds transfer
(minus 2).  Observation 4.3 gives the relaxation maps inside the family and
Lemma 4.5 / Corollary 4.6 the round elimination sequence
Π_Δ(x,y) → Π_Δ(x+y,y) → … used by Theorem 4.1.
"""

from __future__ import annotations

from repro.formalism.configurations import CondensedConfiguration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem
from repro.utils import InvalidParameterError

MATCHING_LABELS = ("M", "O", "P", "X", "Z")


def _slots(*groups: tuple[str, int]) -> list[frozenset[str]]:
    """Build condensed slots from (alternatives, multiplicity) pairs."""
    slots: list[frozenset[str]] = []
    for alternatives, count in groups:
        if count < 0:
            raise InvalidParameterError(
                f"negative multiplicity {count} for slot [{alternatives}]"
            )
        slots.extend([frozenset(alternatives)] * count)
    return slots


def validate_xy_parameters(delta: int, x: int, y: int) -> None:
    """Check Definition 4.2's implicit parameter range.

    Requires 1 ≤ y, 0 ≤ x, and y + x ≤ Δ so that every exponent in the
    definition is non-negative.
    """
    if delta < 2:
        raise InvalidParameterError(f"Δ must be ≥ 2, got {delta}")
    if y < 1:
        raise InvalidParameterError(f"y must be ≥ 1, got {y}")
    if x < 0:
        raise InvalidParameterError(f"x must be ≥ 0, got {x}")
    if y + x > delta:
        raise InvalidParameterError(
            f"need x + y ≤ Δ for Π_Δ(x,y); got x={x}, y={y}, Δ={delta}"
        )


def pi_matching(delta: int, x: int, y: int) -> Problem:
    """The problem Π_Δ(x,y) of Definition 4.2.

    White constraint (node side, arity Δ):
        X^{y-1} M O^{Δ-y}
        X^y O^x P^{Δ-y-x}
        X^y Z O^{Δ-y-1}
    Black constraint (arity Δ):
        [MZPOX]^{y-1} [MX] [POX]^{Δ-y}
        [MZPOX]^y [POX]^x [OX]^{Δ-y-x}
        [MZPOX]^y [X] [POX]^{Δ-y-1}
    """
    validate_xy_parameters(delta, x, y)
    white = Constraint.from_condensed(
        [
            CondensedConfiguration(
                _slots(("X", y - 1), ("M", 1), ("O", delta - y))
            ),
            CondensedConfiguration(
                _slots(("X", y), ("O", x), ("P", delta - y - x))
            ),
            CondensedConfiguration(
                _slots(("X", y), ("Z", 1), ("O", delta - y - 1))
            ),
        ]
    )
    black = Constraint.from_condensed(
        [
            CondensedConfiguration(
                _slots(("MZPOX", y - 1), ("MX", 1), ("POX", delta - y))
            ),
            CondensedConfiguration(
                _slots(("MZPOX", y), ("POX", x), ("OX", delta - y - x))
            ),
            CondensedConfiguration(
                _slots(("MZPOX", y), ("X", 1), ("POX", delta - y - 1))
            ),
        ]
    )
    return Problem(
        alphabet=frozenset(MATCHING_LABELS),
        white=white,
        black=black,
        name=f"Π_{delta}({x},{y})",
    )


def pi_matching_endpoint(delta_prime: int, y: int) -> Problem:
    """Π_Δ'(x', y) with x' = Δ' − 1 − y, the last problem of the §4.2
    sequence (the one shown with Figure 1)."""
    x_prime = delta_prime - 1 - y
    return pi_matching(delta_prime, x_prime, y)


def maximal_matching_problem(delta: int) -> Problem:
    """The maximal matching encoding of Appendix A.

    White: M O^{Δ-1} | P^Δ.  Black: M [OP]^{Δ-1} | O^Δ.  Its black diagram
    is the single edge P → O (verified in the tests, matching the paper).
    """
    if delta < 2:
        raise InvalidParameterError(f"Δ must be ≥ 2, got {delta}")
    white = Constraint.from_condensed(
        [
            CondensedConfiguration(_slots(("M", 1), ("O", delta - 1))),
            CondensedConfiguration(_slots(("P", delta),)),
        ]
    )
    black = Constraint.from_condensed(
        [
            CondensedConfiguration(_slots(("M", 1), ("OP", delta - 1))),
            CondensedConfiguration(_slots(("O", delta),)),
        ]
    )
    return Problem(
        alphabet=frozenset("MOP"),
        white=white,
        black=black,
        name=f"MM_{delta}",
    )


def xy_relaxation_config_map(
    delta: int, x: int, y: int, x2: int, y2: int
) -> dict[tuple[Label, ...], tuple[Label, ...]]:
    """The Observation 4.3 witness: Π_Δ(x₂,y₂) relaxes Π_Δ(x,y) for
    x₂ ≥ x, y₂ ≥ y.

    Returns an ordered-configuration map implementing the paper's
    conversion (turn surplus O into X, surplus P into O or X), checkable
    with :func:`repro.formalism.relaxations.is_relaxation_via_config_map`.
    """
    validate_xy_parameters(delta, x, y)
    validate_xy_parameters(delta, x2, y2)
    if x2 < x or y2 < y:
        raise InvalidParameterError(
            f"Observation 4.3 needs x₂ ≥ x and y₂ ≥ y; got "
            f"({x},{y}) -> ({x2},{y2})"
        )

    def counts(labels: dict[str, int]) -> tuple[Label, ...]:
        flat: list[Label] = []
        for label, count in labels.items():
            flat.extend([label] * count)
        return tuple(sorted(flat))

    mapping: dict[tuple[Label, ...], tuple[Label, ...]] = {}
    # Type 1: X^{y-1} M O^{Δ-y}  →  X^{y2-1} M O^{Δ-y2}
    mapping[counts({"X": y - 1, "M": 1, "O": delta - y})] = counts(
        {"X": y2 - 1, "M": 1, "O": delta - y2}
    )
    # Type 2: X^y O^x P^{Δ-y-x}  →  X^{y2} O^{x2} P^{Δ-y2-x2}
    mapping[counts({"X": y, "O": x, "P": delta - y - x})] = counts(
        {"X": y2, "O": x2, "P": delta - y2 - x2}
    )
    # Type 3: X^y Z O^{Δ-y-1}  →  X^{y2} Z O^{Δ-y2-1}
    mapping[counts({"X": y, "Z": 1, "O": delta - y - 1})] = counts(
        {"X": y2, "Z": 1, "O": delta - y2 - 1}
    )
    return mapping


def matching_sequence_problems(delta: int, x: int, y: int, steps: int) -> list[Problem]:
    """The Corollary 4.6 lower bound sequence Π_Δ(x,y), Π_Δ(x+y,y), …

    Valid while x + (steps+1)·y ≤ Δ; raises otherwise, mirroring the
    corollary's hypothesis.
    """
    if x + (steps + 1) * y > delta:
        raise InvalidParameterError(
            f"Corollary 4.6 needs x + (k+1)y ≤ Δ; got x={x}, y={y}, "
            f"k={steps}, Δ={delta}"
        )
    return [pi_matching(delta, x + index * y, y) for index in range(steps + 1)]
