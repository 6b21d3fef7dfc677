"""Configurations of the black-white formalism (paper §2).

A *configuration* is a multiset of labels; a white (black) node of degree
exactly ``d_W`` (``d_B``) must see a multiset of incident edge labels that is
one of the configurations of the white (black) constraint.

A *condensed configuration* such as ``[AB][CD]E`` denotes the set of all
configurations obtained by picking one label per bracket
(``ACE, ADE, BCE, BDE`` in the example).  Condensed configurations are the
form in which the paper states every problem family (Definitions 4.2, 5.2,
6.2), so the library supports them as first-class objects.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from repro.utils import ArityMismatchError
from repro.utils.multiset import canonical, is_submultiset, replace_one

Label = str


@dataclass(frozen=True)
class Configuration:
    """An immutable multiset of labels.

    The canonical representation is a sorted tuple, so two configurations
    compare equal exactly when they are equal as multisets.
    """

    labels: tuple[Label, ...]

    def __init__(self, labels: Iterable[Label]) -> None:
        object.__setattr__(self, "labels", canonical(labels))

    @cached_property
    def counter(self) -> Counter[Label]:
        """Multiplicity map of this configuration."""
        return Counter(self.labels)

    @property
    def size(self) -> int:
        """Number of labels, counted with multiplicity (the arity)."""
        return len(self.labels)

    @property
    def support(self) -> frozenset[Label]:
        """The set of distinct labels appearing in this configuration."""
        return frozenset(self.labels)

    def count(self, label: Label) -> int:
        """Multiplicity of ``label`` in this configuration."""
        return self.counter.get(label, 0)

    def contains(self, label: Label) -> bool:
        """Return True if ``label`` occurs at least once."""
        return label in self.counter

    def replace_one(self, old: Label, new: Label) -> "Configuration":
        """Return the configuration with one ``old`` replaced by ``new``."""
        return Configuration(replace_one(self.labels, old, new))

    def map_labels(self, mapping: dict[Label, Label]) -> "Configuration":
        """Apply a label renaming; labels absent from the map are kept."""
        return Configuration(mapping.get(lab, lab) for lab in self.labels)

    def extends(self, partial: Counter[Label]) -> bool:
        """Return True if ``partial`` is a sub-multiset of this configuration."""
        return is_submultiset(partial, self.counter)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return render_configuration(self)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Configuration({render_configuration(self)!r})"


def render_configuration(config: Configuration) -> str:
    """Render a configuration using exponent notation, e.g. ``M O^3``.

    Labels are rendered in sorted order; multiplicities above one use ``^k``.
    The output re-parses to the same configuration via
    :func:`repro.formalism.parsing.parse_configuration`.
    """
    parts = []
    for label in sorted(config.counter):
        count = config.counter[label]
        parts.append(label if count == 1 else f"{label}^{count}")
    return " ".join(parts)


@dataclass(frozen=True)
class CondensedConfiguration:
    """A condensed configuration: a sequence of label alternatives.

    ``slots[i]`` is the frozenset of labels admissible in position ``i``.
    The condensed configuration denotes all configurations obtained by one
    choice per slot; ``expand`` enumerates them without duplicates.
    """

    slots: tuple[frozenset[Label], ...]

    def __init__(self, slots: Iterable[Iterable[Label]]) -> None:
        normalized = tuple(frozenset(slot) for slot in slots)
        if any(not slot for slot in normalized):
            raise ArityMismatchError("condensed configuration has an empty slot")
        object.__setattr__(self, "slots", normalized)

    @property
    def size(self) -> int:
        """The arity (number of slots)."""
        return len(self.slots)

    def expand(self) -> frozenset[Configuration]:
        """All configurations denoted by this condensed configuration."""
        return frozenset(
            Configuration(choice) for choice in product(*self.slots)
        )

    def contains(self, config: Configuration) -> bool:
        """Return True if ``config`` is one of the denoted configurations.

        Decided by bipartite matching between slots and label occurrences
        (exact, no expansion), so it stays cheap even for wide slots.
        """
        if config.size != self.size:
            return False
        return _slots_match(list(self.slots), list(config.labels))

    def __str__(self) -> str:
        parts = []
        for slot in self.slots:
            ordered = sorted(slot)
            if len(ordered) == 1:
                parts.append(ordered[0])
            else:
                parts.append("[" + " ".join(ordered) + "]")
        return " ".join(parts)


def _slots_match(slots: list[frozenset[Label]], labels: list[Label]) -> bool:
    """Exact test: can ``labels`` be assigned bijectively to ``slots``?

    Uses augmenting paths (Hungarian-style bipartite matching on a small
    instance); slot i may host label j iff labels[j] ∈ slots[i].
    """
    n = len(slots)
    match_of_label: list[int | None] = [None] * n

    def try_assign(slot: int, visited: list[bool]) -> bool:
        for j in range(n):
            if visited[j] or labels[j] not in slots[slot]:
                continue
            visited[j] = True
            if match_of_label[j] is None or try_assign(match_of_label[j], visited):
                match_of_label[j] = slot
                return True
        return False

    for i in range(n):
        if not try_assign(i, [False] * n):
            return False
    return True


def condensed(*slots: Sequence[Label] | str) -> CondensedConfiguration:
    """Convenience constructor: ``condensed("MX", "PO", "PO")``.

    String arguments are interpreted as sets of single-character labels;
    sequence arguments are taken as-is.  Multi-character labels must be
    passed as sequences (or use the parser in
    :mod:`repro.formalism.parsing`).
    """
    normalized: list[Iterable[Label]] = []
    for slot in slots:
        if isinstance(slot, str):
            normalized.append(tuple(slot))
        else:
            normalized.append(tuple(slot))
    return CondensedConfiguration(normalized)
