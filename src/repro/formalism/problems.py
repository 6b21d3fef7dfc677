"""Problems in the black-white formalism (paper §2).

A problem Π is a tuple (Σ, C_W, C_B): a finite label alphabet, a white
constraint and a black constraint.  On bipartite 2-colored graphs the white
constraint governs white nodes of degree exactly ``d_W`` and the black
constraint black nodes of degree exactly ``d_B``; on hypergraphs the white
constraint governs nodes and the black constraint hyperedges (a problem is
solved *non-bipartitely* on a hypergraph exactly when it is solved
bipartitely on the incidence graph).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.formalism.configurations import Label
from repro.formalism.constraints import Constraint
from repro.utils import FormalismError


@dataclass(frozen=True)
class Problem:
    """An immutable problem (Σ, C_W, C_B) in the black-white formalism."""

    alphabet: frozenset[Label]
    white: Constraint
    black: Constraint
    name: str = "Π"

    def __post_init__(self) -> None:
        self.white.check_alphabet(self.alphabet)
        self.black.check_alphabet(self.alphabet)

    @classmethod
    def from_constraints(
        cls, white: Constraint, black: Constraint, name: str = "Π"
    ) -> "Problem":
        """Build a problem whose alphabet is exactly the used labels."""
        return cls(
            alphabet=white.labels | black.labels,
            white=white,
            black=black,
            name=name,
        )

    @property
    def white_arity(self) -> int:
        """d_W: the size of white configurations (Δ' in the paper)."""
        return self.white.size

    @property
    def black_arity(self) -> int:
        """d_B: the size of black configurations (r' in the paper)."""
        return self.black.size

    def swap_sides(self) -> "Problem":
        """Exchange the roles of white and black constraints.

        Appendix B's R̄ is "R with the roles of the constraints reversed";
        this helper expresses that reversal.
        """
        return Problem(
            alphabet=self.alphabet,
            white=self.black,
            black=self.white,
            name=f"swap({self.name})",
        )

    def rename(self, mapping: dict[Label, Label], name: str | None = None) -> "Problem":
        """Apply an injective label renaming."""
        image = [mapping.get(label, label) for label in self.alphabet]
        if len(set(image)) != len(image):
            raise FormalismError(f"renaming {mapping} is not injective on Σ")
        return Problem(
            alphabet=frozenset(image),
            white=self.white.map_labels(mapping),
            black=self.black.map_labels(mapping),
            name=name or self.name,
        )

    def same_constraints(self, other: "Problem") -> bool:
        """Literal equality of constraints (labels compared as strings)."""
        return self.white == other.white and self.black == other.black

    def _label_signature(self, label: Label) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Renaming-invariant usage signature of a label (for isomorphism)."""
        return (
            self.white.label_occurrence_signature(label),
            self.black.label_occurrence_signature(label),
        )

    def find_isomorphism(self, other: "Problem") -> dict[Label, Label] | None:
        """Search for a label bijection turning ``self`` into ``other``.

        Returns the bijection or None.  Candidates are pruned by usage
        signatures, then validated by backtracking; complete (no false
        negatives) because signatures are renaming-invariant.
        """
        if len(self.alphabet) != len(other.alphabet):
            return None
        if (self.white_arity, self.black_arity) != (
            other.white_arity,
            other.black_arity,
        ):
            return None
        if (len(self.white), len(self.black)) != (len(other.white), len(other.black)):
            return None

        own_signatures = {label: self._label_signature(label) for label in self.alphabet}
        other_signatures: dict[tuple, list[Label]] = {}
        for label in other.alphabet:
            other_signatures.setdefault(other._label_signature(label), []).append(label)

        candidates: dict[Label, list[Label]] = {}
        for label, signature in own_signatures.items():
            matches = other_signatures.get(signature)
            if not matches:
                return None
            candidates[label] = matches

        # Assign scarce labels first.
        order = sorted(self.alphabet, key=lambda lab: len(candidates[lab]))

        def backtrack(index: int, mapping: dict[Label, Label], used: set[Label]):
            if index == len(order):
                renamed = self.rename(mapping)
                if renamed.same_constraints(other):
                    return dict(mapping)
                return None
            label = order[index]
            for target in candidates[label]:
                if target in used:
                    continue
                mapping[label] = target
                used.add(target)
                found = backtrack(index + 1, mapping, used)
                if found is not None:
                    return found
                del mapping[label]
                used.discard(target)
            return None

        return backtrack(0, {}, set())

    def is_isomorphic_to(self, other: "Problem") -> bool:
        """True if some label renaming makes the problems equal."""
        return self.find_isomorphism(other) is not None

    def describe(self) -> str:
        """Multi-line human-readable description (used by examples)."""
        lines = [
            f"Problem {self.name}",
            f"  alphabet: {{{', '.join(sorted(self.alphabet))}}}",
            f"  white constraint (arity {self.white_arity}):",
        ]
        lines.extend(f"    {config}" for config in self.white)
        lines.append(f"  black constraint (arity {self.black_arity}):")
        lines.extend(f"    {config}" for config in self.black)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def problem_from_lines(
    white_lines: Iterable[str] | str,
    black_lines: Iterable[str] | str,
    name: str = "Π",
) -> Problem:
    """Build a problem from constraint text (see :mod:`.parsing`)."""
    from repro.formalism.parsing import parse_constraint

    def as_text(lines: Iterable[str] | str) -> str:
        if isinstance(lines, str):
            return lines
        return "\n".join(lines)

    return Problem.from_constraints(
        white=parse_constraint(as_text(white_lines)),
        black=parse_constraint(as_text(black_lines)),
        name=name,
    )
