"""The bitmask-compiled round elimination kernel (``engine="kernel"``).

This is a drop-in replacement for the hot path of
:mod:`repro.roundelim.operators` — the maximal-set-configuration search
and the existential white constraint of the operator R (paper
Appendix B) — compiled to the integer domain of
:mod:`repro.formalism.encoding`:

* a label set is one bitmask, a set configuration a tuple of masks;
* addition validity (``_addition_valid`` in the reference) checks
  choices against a hash set of int tuples, prunes failing branches
  early through the per-prefix partial-extension table, enumerates
  choices from *identical* slots as multisets instead of tuples
  (``C(p+t-1, t)`` combinations instead of ``p^t``), and memoizes the
  result per ``(other slots, new label)`` — sibling configurations in
  the search frontier share other-slot tuples massively;
* canonicalization sorts masks by a cached ``(popcount, bits)`` key, the
  exact integer mirror of the reference's ``(len(slot), sorted(slot))``;
* domination between slots is a mask subset test
  (``mask & other == mask``) instead of a frozenset comparison.

The kernel's contract, enforced by ``tests/roundelim/test_kernel.py``:
decoded outputs reproduce the reference implementation *exactly* — the
same set-label names, the same :class:`~repro.formalism.problems.Problem`
equality — and the search visits configurations in the same order, so
the same ``budget`` raises :class:`~repro.utils.SolverLimitError` at the
same point on both engines.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement

from repro.formalism.configurations import Configuration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.encoding import (
    ConstraintTable,
    IntConfig,
    LabelEncoding,
    bits_of,
    mask_sort_key,
)
from repro.formalism.labels import set_label
from repro.formalism.problems import Problem
from repro.utils import SolverLimitError

#: A set configuration in the kernel domain: a canonical tuple of masks.
MaskConfig = tuple[int, ...]


class _SearchContext:
    """Per-search caches over one compiled constraint table.

    Holds the bit decompositions, the canonical mask sort keys and the
    memoized addition-validity verdicts.  One context lives exactly as
    long as one operator application, so the caches cannot grow beyond
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
            previous = None
            for position, bit in enumerate(config):
                if bit == previous:
                    continue
                previous = bit
                rest = config[:position] + config[position + 1 :]
                complete[rest] = complete.get(rest, 0) | (1 << bit)
        self.complete = complete

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
        ``others``.
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


def maximal_mask_configs(
    table: ConstraintTable, candidate_bits, budget: int
) -> frozenset[MaskConfig]:
    """All maximal set configurations of a compiled constraint, as mask
    tuples (the kernel form of ``maximal_set_configurations``).

    ``candidate_bits`` are the ascending bit indices of the labels
    eligible as additions (the alphabet passed by the caller; seeds may
    use further labels occurring in the constraint itself).

    The search structure — seed order, slot/label iteration order, the
    "count every popped configuration" budget — mirrors the reference
    implementation exactly, so both engines raise
    :class:`SolverLimitError` at the same budget.
    """
    arity = table.arity
    candidate_mask = 0
    for bit in candidate_bits:
        candidate_mask |= 1 << bit
    context = _SearchContext(table)
    seeds = sorted(
        {
            context.canonical(tuple(1 << bit for bit in config))
            for config in table.allowed
        },
        key=lambda config: tuple(context.key(mask) for mask in config),
    )
    # ``seen`` holds known-valid configurations only (seeds are valid by
    # construction; additions are vetted before entering).  Push-time
    # dedup means each config is popped at most once, mirroring the
    # reference loop, and — because validity of a set configuration
    # depends only on the multiset, not the path — ``grown in seen``
    # certifies an addition valid without re-running the check.
    seen: set[MaskConfig] = set(seeds)
    maximal: set[MaskConfig] = set()
    stack = list(seeds)
    key = context.key
    bits = context.bits
    slot_keys = context.slot_keys
    valid_additions = context.valid_additions
    steps = 0
    while stack:
        config = stack.pop()
        steps += 1
        if steps > budget:
            raise SolverLimitError(
                f"maximal-configuration search exceeded budget {budget}"
            )
        extendable = False
        for index in range(arity):
            slot = config[index]
            others = config[:index] + config[index + 1 :]
            valid_bits = valid_additions(others, candidate_mask) & ~slot
            if not valid_bits:
                continue
            extendable = True
            # ``others`` inherits canonical order, so the grown config
            # is ``others`` with the enlarged slot bisected in by its
            # cached key — no re-sort per valid label.
            others_keys = slot_keys(others)
            for bit in bits(valid_bits):
                new_mask = slot | (1 << bit)
                position = bisect_right(others_keys, key(new_mask))
                grown = others[:position] + (new_mask,) + others[position:]
                if grown not in seen:
                    seen.add(grown)
                    stack.append(grown)
        if not extendable:
            maximal.add(config)
    return frozenset(maximal)


def maximal_set_configurations_kernel(
    constraint: Constraint, alphabet: frozenset[Label], budget: int
) -> frozenset[tuple[frozenset[Label], ...]]:
    """Kernel backend of ``maximal_set_configurations``: compile, search
    in the mask domain, decode to the reference's canonical form."""
    encoding = LabelEncoding.for_alphabet(frozenset(alphabet) | constraint.labels)
    table = ConstraintTable.compile(constraint, encoding)
    candidates = sorted(encoding.encode_label(label) for label in alphabet)
    maximal = maximal_mask_configs(table, candidates, budget)
    return frozenset(
        tuple(encoding.decode_mask(mask) for mask in config) for config in maximal
    )


def existential_white_masks(
    new_masks: list[int], white_context: _SearchContext, arity: int
) -> list[MaskConfig]:
    """All size-``arity`` multisets over ``new_masks`` admitting some
    choice in the compiled white constraint (the C′_W of R)."""
    return [
        combo
        for combo in combinations_with_replacement(new_masks, arity)
        if white_context.exists_choice(combo)
    ]


def apply_R_kernel(problem: Problem, budget: int) -> Problem:
    """The operator R of Appendix B, computed in the mask domain.

    Decodes back to the exact string-domain output of the reference
    implementation: same set-label names, same ``Problem`` equality.
    """
    encoding = LabelEncoding.for_alphabet(problem.alphabet)
    black_table = ConstraintTable.compile(problem.black, encoding)
    white_table = ConstraintTable.compile(problem.white, encoding)

    maximal = maximal_mask_configs(black_table, range(encoding.size), budget)

    white_context = _SearchContext(white_table)
    new_masks = sorted(
        {mask for config in maximal for mask in config}, key=white_context.key
    )
    names: dict[int, Label] = {
        mask: set_label(encoding.decode_mask(mask)) for mask in new_masks
    }
    black_configs = [
        Configuration(names[mask] for mask in config) for config in maximal
    ]
    white_configs = [
        Configuration(names[mask] for mask in combo)
        for combo in existential_white_masks(
            new_masks, white_context, problem.white_arity
        )
    ]
    return Problem.from_constraints(
        white=Constraint(white_configs),
        black=Constraint(black_configs),
        name=f"R({problem.name})",
    )
