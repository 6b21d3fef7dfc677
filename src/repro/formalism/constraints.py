"""Constraints of the black-white formalism (paper §2).

A constraint is a finite set of configurations, all of the same size
(``d_W`` for the white constraint, ``d_B`` for the black one).  Beyond plain
membership, solvers need two derived queries that this module precomputes:

* ``allows_partial``: can a partially-assigned node still be completed to an
  allowed configuration?  (Used for propagation in the CSP solver.)
* ``completions``: which labels may still be placed given a partial multiset?

On top of ``allows_partial``, ``exists_choice`` asks whether some choice of
one label per slot of a set configuration is allowed — the ∃ of round
elimination's R and of the lift's white condition.

These queries are answered against the explicit configuration list, which is
feasible for every problem in the paper at verification scale (the families
of Definitions 4.2 / 5.2 / 6.2 instantiated at small Δ).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cached_property

from repro.formalism.configurations import (
    CondensedConfiguration,
    Configuration,
    Label,
)
from repro.utils import ArityMismatchError, UnknownLabelError


class Constraint:
    """An immutable set of same-size configurations."""

    def __init__(self, configurations: Iterable[Configuration]) -> None:
        configs = frozenset(configurations)
        sizes = {config.size for config in configs}
        if len(sizes) > 1:
            raise ArityMismatchError(
                f"constraint mixes configuration sizes {sorted(sizes)}"
            )
        self._configs = configs
        self._size = sizes.pop() if sizes else 0

    @classmethod
    def from_condensed(
        cls, condensed_configs: Iterable[CondensedConfiguration]
    ) -> "Constraint":
        """Build a constraint as the union of condensed expansions."""
        configs: set[Configuration] = set()
        for condensed_config in condensed_configs:
            configs.update(condensed_config.expand())
        return cls(configs)

    @property
    def configurations(self) -> frozenset[Configuration]:
        """The explicit set of allowed configurations."""
        return self._configs

    @property
    def size(self) -> int:
        """The common arity of all configurations (0 if empty)."""
        return self._size

    @cached_property
    def labels(self) -> frozenset[Label]:
        """All labels used by at least one configuration."""
        used: set[Label] = set()
        for config in self._configs:
            used.update(config.support)
        return frozenset(used)

    def allows(self, config: Configuration) -> bool:
        """Membership test for a full configuration."""
        return config in self._configs

    def allows_multiset(self, labels: Iterable[Label]) -> bool:
        """Membership test from a raw label iterable."""
        return Configuration(labels) in self._configs

    def allows_partial(self, partial: Counter[Label], assigned: int) -> bool:
        """Can ``partial`` (with ``assigned`` labels placed so far) extend to
        an allowed configuration?

        ``assigned`` must equal ``sum(partial.values())``; it is passed
        explicitly because callers maintain it incrementally.
        """
        if assigned > self._size:
            return False
        return any(config.extends(partial) for config in self._configs)

    def exists_choice(self, slots: Iterable[frozenset[Label]]) -> bool:
        """Is some choice of one label per slot an allowed configuration?

        A depth-first search with :meth:`allows_partial` pruning.  Slots
        are visited smallest-first and each slot's label order is
        computed once, outside the recursion.
        """
        ordered = sorted(slots, key=len)
        slot_orders = [sorted(slot) for slot in ordered]

        def recurse(index: int, partial: Counter[Label]) -> bool:
            if index == len(slot_orders):
                return self.allows_multiset(partial.elements())
            for label in slot_orders[index]:
                partial[label] += 1
                if self.allows_partial(partial, index + 1) and recurse(
                    index + 1, partial
                ):
                    partial[label] -= 1
                    return True
                partial[label] -= 1
                if partial[label] == 0:
                    del partial[label]
            return False

        return recurse(0, Counter())

    def completions(self, partial: Counter[Label]) -> frozenset[Label]:
        """Labels ℓ such that ``partial + {ℓ}`` still extends to an allowed
        configuration."""
        placed = sum(partial.values())
        if placed >= self._size:
            return frozenset()
        result: set[Label] = set()
        for config in self._configs:
            if not config.extends(partial):
                continue
            for label, count in config.counter.items():
                if count > partial.get(label, 0):
                    result.add(label)
        return frozenset(result)

    def map_labels(self, mapping: dict[Label, Label]) -> "Constraint":
        """Apply a label renaming to every configuration."""
        return Constraint(config.map_labels(mapping) for config in self._configs)

    def check_alphabet(self, alphabet: frozenset[Label]) -> None:
        """Raise UnknownLabelError if a configuration escapes ``alphabet``."""
        for config in self._configs:
            extra = config.support - alphabet
            if extra:
                raise UnknownLabelError(
                    f"configuration {config} uses labels {sorted(extra)} "
                    f"outside the alphabet"
                )

    def label_occurrence_signature(self, label: Label) -> tuple[int, ...]:
        """A renaming-invariant signature of how ``label`` is used.

        Sorted vector of per-configuration multiplicities (including zeros),
        used to prune the isomorphism search in
        :meth:`repro.formalism.problems.Problem.find_isomorphism`.
        """
        return tuple(sorted(config.count(label) for config in self._configs))

    def __contains__(self, config: Configuration) -> bool:
        return config in self._configs

    def __iter__(self) -> Iterator[Configuration]:
        return iter(sorted(self._configs, key=lambda c: c.labels))

    def __len__(self) -> int:
        return len(self._configs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._configs == other._configs

    def __hash__(self) -> int:
        return hash(self._configs)

    def __str__(self) -> str:
        return "\n".join(str(config) for config in self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Constraint({len(self._configs)} configs, size={self._size})"


def sub_multiset_closure(constraint: Constraint) -> frozenset[tuple[Label, ...]]:
    """All canonical sub-multisets of allowed configurations.

    Exposed for the brute-force cross-checks in the test-suite; the solver
    itself uses the incremental queries above.
    """
    from repro.utils.multiset import submultisets

    closure: set[tuple[Label, ...]] = set()
    for config in constraint.configurations:
        for size in range(config.size + 1):
            closure.update(submultisets(config.counter, size))
    return frozenset(closure)
