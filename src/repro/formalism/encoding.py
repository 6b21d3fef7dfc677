"""Integer encodings of the black-white formalism (the kernel domain).

The round elimination operators (paper Appendix B) spend their time on
three primitive queries over a fixed alphabet Σ:

* "is this multiset of labels an allowed configuration?"
* "does this partial multiset extend to an allowed configuration?"
* "is this label set a subset of that one?"

All three are string/frozenset operations in the reference
implementation.  This module compiles a problem into an *integer
domain* where they become hash-set lookups and mask arithmetic:

* each alphabet label gets a bit index (alphabetical order, so the
  integer order of indices mirrors the string order of labels);
* a configuration becomes a sorted tuple of small ints;
* a label *set* becomes a single bitmask (subset test:
  ``mask & other == mask``);
* a constraint becomes a :class:`ConstraintTable`: a hash set of int
  tuples plus a *partial-extension table* holding every sorted
  sub-multiset of an allowed configuration, so extendability of a
  partial choice is one set lookup instead of a scan over all
  configurations;
* a :class:`SearchContext` over one table answers, with memoization,
  the questions asked about set configurations (tuples of masks).

Because bit indices are assigned in sorted-label order, every canonical
order used by the reference implementation (sorted label tuples, slots
ordered by ``(len(slot), sorted(slot))``) has an exact integer mirror
(sorted index tuples, masks ordered by ``(popcount, bit indices)``) —
the property the kernel's output-equality and budget-parity guarantees
rest on (see :mod:`repro.roundelim.kernel`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

from repro.formalism.configurations import Configuration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem
from repro.utils import UnknownLabelError

#: A configuration in the integer domain: a sorted tuple of bit indices.
IntConfig = tuple[int, ...]


def bits_of(mask: int) -> tuple[int, ...]:
    """The set bit indices of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _drop_one(items: IntConfig) -> Iterator[tuple[int, IntConfig]]:
    """Each distinct bit of the sorted tuple ``items``, with ``items``
    less one occurrence of it."""
    previous = None
    for position, bit in enumerate(items):
        if bit != previous:
            previous = bit
            yield bit, items[:position] + items[position + 1 :]


def mask_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The integer mirror of the reference slot order ``(len, sorted)``.

    Masks sorted by this key appear in exactly the order the decoded
    label sets would sort under ``(len(slot), sorted(slot))``.
    """
    bits = bits_of(mask)
    return (len(bits), bits)


@dataclass(frozen=True)
class LabelEncoding:
    """A bijection between an alphabet and bit indices 0..|Σ|-1.

    Labels are numbered in sorted order, so the encoding is
    order-preserving: comparing sorted index tuples is the same as
    comparing sorted label tuples.
    """

    labels: tuple[Label, ...]

    @classmethod
    def for_alphabet(cls, alphabet) -> "LabelEncoding":
        return cls(labels=tuple(sorted(alphabet)))

    @cached_property
    def index(self) -> dict[Label, int]:
        return {label: position for position, label in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        """The mask of the whole alphabet."""
        return (1 << len(self.labels)) - 1

    def encode_label(self, label: Label) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {label!r} is not in the encoded alphabet "
                f"{list(self.labels)}"
            ) from None

    def decode_label(self, bit: int) -> Label:
        return self.labels[bit]

    def encode_config(self, config: Configuration) -> IntConfig:
        """Encode a configuration as a sorted int tuple.

        ``config.labels`` is already sorted and the index map is
        order-preserving, so no re-sort is needed.
        """
        index = self.index
        try:
            return tuple(index[label] for label in config.labels)
        except KeyError as exc:
            raise UnknownLabelError(
                f"configuration {config} uses label {exc.args[0]!r} outside "
                f"the encoded alphabet"
            ) from None

    def decode_config(self, items: IntConfig) -> Configuration:
        return Configuration(self.labels[bit] for bit in items)

    def encode_set(self, members) -> int:
        """Encode a label set as a bitmask."""
        mask = 0
        for label in members:
            mask |= 1 << self.encode_label(label)
        return mask

    def decode_mask(self, mask: int) -> frozenset[Label]:
        return frozenset(self.labels[bit] for bit in bits_of(mask))


@dataclass(frozen=True)
class ConstraintTable:
    """A constraint compiled to the integer domain.

    ``allowed`` holds the configurations as sorted int tuples;
    ``partials`` holds every sorted sub-multiset (all lengths 0..arity)
    of an allowed configuration — the per-prefix partial-extension
    table.  A sorted partial choice extends to an allowed configuration
    iff it is in ``partials`` (sub-multiset extendability is exactly
    sub-multiset containment in some configuration), and a full-length
    tuple is in ``partials`` iff it is in ``allowed``.
    """

    arity: int
    allowed: frozenset[IntConfig]
    partials: frozenset[IntConfig]

    @classmethod
    def compile(cls, constraint: Constraint, encoding: LabelEncoding) -> "ConstraintTable":
        allowed = frozenset(
            encoding.encode_config(config) for config in constraint.configurations
        )
        # Downward closure one level at a time: each sub-multiset of the
        # level above loses one occurrence of each of its distinct labels.
        # A sub-multiset shared by many configurations is expanded once.
        partials: set[IntConfig] = set(allowed)
        level = partials
        while level:
            below = {rest for items in level for _bit, rest in _drop_one(items)}
            level = below - partials
            partials |= level
        return cls(
            arity=constraint.size,
            allowed=allowed,
            partials=frozenset(partials),
        )

    def allows(self, items: IntConfig) -> bool:
        """Full-configuration membership (``items`` must be sorted)."""
        return items in self.allowed

    def extends(self, partial: IntConfig) -> bool:
        """Can the sorted partial tuple extend to an allowed config?"""
        return partial in self.partials


#: A set configuration in the integer domain: a canonical tuple of masks.
MaskConfig = tuple[int, ...]


class SearchContext:
    """Per-search caches over one compiled constraint table.

    Answers the questions both the round elimination kernel
    (:mod:`repro.roundelim.kernel`) and the config-map witness search
    (:mod:`repro.formalism.relaxations`) ask about *set* configurations
    — slots given as masks: which labels can be added next to these
    slots with every choice allowed (:meth:`valid_additions`), does some
    choice exist (:meth:`exists_choice`), which labels are at least as
    strong as which (:meth:`stronger`).  Holds the bit decompositions,
    the canonical mask sort keys and the memoized addition-validity
    verdicts.  One context lives exactly as long as one operator
    application or one witness search, so the caches cannot grow beyond
    a single problem's working set.
    """

    __slots__ = (
        "table",
        "pair_ok",
        "_bits",
        "_keys",
        "_valid",
        "_combos",
        "_compat",
        "_slot_keys",
        "complete",
    )

    def __init__(self, table: ConstraintTable) -> None:
        self.table = table
        self._bits: dict[int, tuple[int, ...]] = {}
        self._keys: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._valid: dict[MaskConfig, int] = {}
        self._combos: dict[tuple[int, int], tuple[IntConfig, ...]] = {}
        self._compat: dict[int, int] = {}
        self._slot_keys: dict[MaskConfig, list] = {}
        # pair_ok[b]: mask of labels that co-occur with b in some allowed
        # configuration.  A label addition can only be valid when every
        # other slot is a subset of pair_ok[new label] — a single mask
        # test that rejects most invalid additions without enumeration.
        pair_ok: dict[int, int] = {}
        for partial in table.partials:
            if len(partial) == 2:
                first, second = partial
                pair_ok[first] = pair_ok.get(first, 0) | (1 << second)
                pair_ok[second] = pair_ok.get(second, 0) | (1 << first)
        self.pair_ok = pair_ok
        # complete[m]: the mask of labels b with insert(m, b) allowed,
        # for every allowed configuration minus one occurrence.  Turns
        # "which labels complete this choice multiset" into one lookup.
        complete: dict[IntConfig, int] = {}
        for config in table.allowed:
            for bit, rest in _drop_one(config):
                complete[rest] = complete.get(rest, 0) | (1 << bit)
        self.complete = complete

    def stronger(self) -> dict[int, int]:
        """Per label Y, the mask of labels at least as strong as Y (Y
        included; paper §2): X qualifies when replacing one Y by X keeps
        every allowed configuration holding Y allowed, so Y's mask is the
        AND of ``complete[c − Y]`` over those configurations.  Labels in
        no configuration are absent (every label is vacuously stronger).
        """
        complete = self.complete
        masks: dict[int, int] = {}
        for config in self.table.allowed:
            for bit, rest in _drop_one(config):
                masks[bit] = masks.get(bit, -1) & complete[rest]
        return masks

    def bits(self, mask: int) -> tuple[int, ...]:
        got = self._bits.get(mask)
        if got is None:
            got = bits_of(mask)
            self._bits[mask] = got
        return got

    def key(self, mask: int) -> tuple[int, tuple[int, ...]]:
        got = self._keys.get(mask)
        if got is None:
            got = mask_sort_key(mask)
            self._keys[mask] = got
        return got

    def canonical(self, masks) -> MaskConfig:
        """Canonical multiset-of-sets form: masks sorted by cached key."""
        return tuple(sorted(masks, key=self.key))

    def combos(self, mask: int, count: int) -> tuple[IntConfig, ...]:
        """All multisets of ``count`` labels from ``mask``, materialized
        once per (mask, count) — the choices a group of ``count``
        identical slots contributes."""
        memo_key = (mask, count)
        got = self._combos.get(memo_key)
        if got is None:
            got = tuple(combinations_with_replacement(self.bits(mask), count))
            self._combos[memo_key] = got
        return got

    def compat_mask(self, union_mask: int, candidate_mask: int) -> int:
        """Candidate labels pair-compatible with *every* label in
        ``union_mask``: the intersection of their ``pair_ok`` masks.

        A label outside this mask cannot be a valid addition next to any
        slot covered by ``union_mask`` (pairwise necessary condition).
        Cached per union mask — the key space is tiny.
        """
        got = self._compat.get(union_mask)
        if got is None:
            got = candidate_mask
            pair_ok = self.pair_ok
            for bit in self.bits(union_mask):
                got &= pair_ok.get(bit, 0)
                if not got:
                    break
            self._compat[union_mask] = got
        return got

    def slot_keys(self, masks: MaskConfig) -> list:
        """The cached sort keys of a canonical mask tuple (for bisect)."""
        got = self._slot_keys.get(masks)
        if got is None:
            got = [self.key(mask) for mask in masks]
            self._slot_keys[masks] = got
        return got

    def choice_multisets(self, others: MaskConfig) -> frozenset[IntConfig] | None:
        """The distinct sorted multisets generated by one choice per slot
        of ``others`` — or None when some generated multiset is not even
        a sub-multiset of an allowed configuration (then *no* label can
        be validly added next to these slots).

        Built level by level with set deduplication: permutation-
        equivalent branches of the choice product collapse, so the work
        is bounded by the number of distinct multisets, not the product
        size.
        """
        combos = self.combos
        partials = self.table.partials
        frontier: set[IntConfig] = {()}
        start = 0
        count = len(others)
        while start < count:
            mask = others[start]
            stop = start
            while stop < count and others[stop] == mask:
                stop += 1
            grown_frontier: set[IntConfig] = set()
            for acc in frontier:
                for combo in combos(mask, stop - start):
                    grown = tuple(sorted(acc + combo))
                    if grown in grown_frontier:
                        continue
                    if grown not in partials:
                        return None
                    grown_frontier.add(grown)
            frontier = grown_frontier
            start = stop
        return frozenset(frontier)

    def valid_additions(self, others: MaskConfig, candidate_mask: int) -> int:
        """The mask of labels whose addition next to ``others`` keeps
        every choice allowed.

        Addition validity only involves the *other* slots and the new
        label — never the slot being grown — so the verdict for a whole
        ``others`` tuple is one mask, shared by every configuration and
        every slot position that produces these others.  Cached per
        ``others`` alone, so one context serves one ``candidate_mask``.
        """
        got = self._valid.get(others)
        if got is None:
            union = 0
            for mask in others:
                union |= mask
            got = self.compat_mask(union, candidate_mask)
            if got:
                choices = self.choice_multisets(others)
                if choices is None:
                    got = 0
                else:
                    complete = self.complete
                    for multiset in choices:
                        got &= complete.get(multiset, 0)
                        if not got:
                            break
            self._valid[others] = got
        return got

    def exists_choice(self, slot_masks) -> bool:
        """∃ choice (one label per slot) forming an allowed configuration?

        DFS over slots ordered smallest-first, with identical slots
        grouped into multiset choices and the partial-extension table
        pruning dead branches after every group.
        """
        ordered = sorted(slot_masks, key=self.key)
        groups: list[tuple[int, int]] = []
        for mask in ordered:
            if groups and groups[-1][0] == mask:
                groups[-1] = (mask, groups[-1][1] + 1)
            else:
                groups.append((mask, 1))

        allowed = self.table.allowed
        partials = self.table.partials

        if not groups:
            return () in allowed

        combos = self.combos
        last = len(groups) - 1

        def recurse(group_index: int, acc: IntConfig) -> bool:
            mask, count = groups[group_index]
            if group_index == last:
                for combo in combos(mask, count):
                    if tuple(sorted(acc + combo)) in allowed:
                        return True
                return False
            for combo in combos(mask, count):
                grown = tuple(sorted(acc + combo))
                if grown in partials and recurse(group_index + 1, grown):
                    return True
            return False

        return recurse(0, ())


@dataclass(frozen=True)
class ProblemEncoding:
    """A problem compiled to the integer domain: encoding + both tables."""

    encoding: LabelEncoding
    white: ConstraintTable
    black: ConstraintTable

    @classmethod
    def compile(cls, problem: Problem) -> "ProblemEncoding":
        encoding = LabelEncoding.for_alphabet(problem.alphabet)
        return cls(
            encoding=encoding,
            white=ConstraintTable.compile(problem.white, encoding),
            black=ConstraintTable.compile(problem.black, encoding),
        )
