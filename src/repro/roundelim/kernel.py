"""The bitmask-compiled round elimination kernel (``engine="kernel"``).

This is a drop-in replacement for the hot path of
:mod:`repro.roundelim.operators` — the maximal-set-configuration search
and the existential white constraint of the operator R (paper
Appendix B) — compiled to the integer domain of
:mod:`repro.formalism.encoding`:

* a label set is one bitmask, a set configuration a tuple of masks;
* the search is the reference's right-closed one: seeds are the
  closures of allowed configurations' labels and each addition adds a
  label's closure, read from per-label strength masks — label Y's mask
  is the AND of ``complete[c − Y]`` over the allowed configurations c
  holding Y, i.e. every X such that replacing one Y by X stays allowed;
* addition validity (``_addition_valid`` in the reference) is asked of
  :class:`~repro.formalism.encoding.SearchContext`, which the config-map
  witness search shares: it checks choices against a hash set of int
  tuples, prunes failing branches early through the per-prefix
  partial-extension table, enumerates choices from *identical* slots as
  multisets instead of tuples (``C(p+t-1, t)`` combinations instead of
  ``p^t``), and memoizes the result per ``(other slots, new label)`` —
  sibling configurations in the search frontier share other-slot tuples
  massively;
* canonicalization sorts masks by a cached ``(popcount, bits)`` key, the
  exact integer mirror of the reference's ``(len(slot), sorted(slot))``;
* domination between slots is a mask subset test
  (``mask & other == mask``) instead of a frozenset comparison.

The kernel's contract, enforced by ``tests/roundelim/test_kernel.py``:
decoded outputs reproduce the reference implementation *exactly* — the
same set-label names, the same :class:`~repro.formalism.problems.Problem`
equality — and the search pops the same closed configurations in the
same order, so the same ``budget`` raises
:class:`~repro.utils.SolverLimitError` at the same point on both engines.
``tests/roundelim/test_closed_search.py`` holds the search over all label
sets as the oracle of the maximal sets.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations_with_replacement

from repro.formalism.configurations import Configuration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.encoding import (
    ConstraintTable,
    LabelEncoding,
    MaskConfig,
    SearchContext,
    bits_of,
)
from repro.formalism.labels import set_label
from repro.formalism.problems import Problem
from repro.utils import SolverLimitError


def maximal_mask_configs(
    table: ConstraintTable, candidate_bits, budget: int
) -> frozenset[MaskConfig]:
    """All maximal set configurations of a compiled constraint, as mask
    tuples (the kernel form of ``maximal_set_configurations``).

    ``candidate_bits`` are the ascending bit indices of the labels
    eligible as additions (the alphabet passed by the caller; seeds may
    use further labels occurring in the constraint itself).  Closures
    are restricted to the candidates.

    The search structure — closed seeds and closure additions, seed
    order, slot/label iteration order, the "count every popped
    configuration" budget — mirrors the reference implementation
    exactly, so both engines raise :class:`SolverLimitError` at the same
    budget.
    """
    arity = table.arity
    candidate_mask = 0
    for bit in candidate_bits:
        candidate_mask |= 1 << bit
    context = SearchContext(table)
    stronger = context.stronger()
    # closure[b]: b with every candidate label at least as strong as b.
    closure = {
        bit: (stronger.get(bit, -1) & candidate_mask) | (1 << bit)
        for bit in {*bits_of(candidate_mask), *stronger}
    }
    seeds = sorted(
        {
            context.canonical(tuple(closure[bit] for bit in config))
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
                new_mask = slot | closure[bit]
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
    new_masks: list[int], white_context: SearchContext, arity: int
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

    white_context = SearchContext(white_table)
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
