"""The right-closed maximal-set search against the unpruned one.

Both engines start the maximal-set search of R from closed seeds and add
a label together with every label at least as strong as it (paper §2).
The unpruned search below adds one label at a time from singleton seeds,
as both engines did before; it is the oracle for the maximal sets the
closed search finds, and for the claim that it pops no more
configurations.  The kernel reads the strength relation from per-label
masks, which must decode to :func:`repro.formalism.diagrams.strength_relation`.
"""

from bisect import bisect_right

import pytest

from repro.formalism.diagrams import strength_relation
from repro.formalism.encoding import ConstraintTable, LabelEncoding, SearchContext
from repro.problems import (
    maximal_matching_problem,
    pi_matching,
    pi_ruling,
    sinkless_orientation_problem,
)
from repro.roundelim.operators import ENGINES, apply_R, maximal_set_configurations


def unpruned_maximal_set_configurations(constraint, alphabet):
    """All maximal set configurations, and the number of configurations
    popped, by the search without closures: singleton seeds, one label
    per addition."""
    encoding = LabelEncoding.for_alphabet(frozenset(alphabet) | constraint.labels)
    table = ConstraintTable.compile(constraint, encoding)
    candidate_mask = encoding.encode_set(alphabet)
    context = SearchContext(table)
    seeds = sorted(
        {
            context.canonical(tuple(1 << bit for bit in config))
            for config in table.allowed
        },
        key=lambda config: tuple(context.key(mask) for mask in config),
    )
    seen = set(seeds)
    maximal = set()
    stack = list(seeds)
    pops = 0
    while stack:
        config = stack.pop()
        pops += 1
        extendable = False
        for index in range(table.arity):
            slot = config[index]
            others = config[:index] + config[index + 1 :]
            valid_bits = context.valid_additions(others, candidate_mask) & ~slot
            if not valid_bits:
                continue
            extendable = True
            others_keys = context.slot_keys(others)
            for bit in context.bits(valid_bits):
                new_mask = slot | (1 << bit)
                position = bisect_right(others_keys, context.key(new_mask))
                grown = others[:position] + (new_mask,) + others[position:]
                if grown not in seen:
                    seen.add(grown)
                    stack.append(grown)
        if not extendable:
            maximal.add(config)
    decoded = frozenset(
        tuple(encoding.decode_mask(mask) for mask in config) for config in maximal
    )
    return decoded, pops


def _pi_matching_parameters(deltas):
    """Every (Δ, x, y) with Π_Δ(x, y) defined: y ≥ 1, x ≥ 0, x + y ≤ Δ,
    and Δ − y − 1 ≥ 0 for the Z configuration."""
    return [
        (delta, x, y)
        for delta in deltas
        for y in range(1, delta)
        for x in range(delta - y + 1)
    ]


PROBLEMS = {
    **{
        f"pi_matching{params}": (lambda params=params: pi_matching(*params))
        for params in _pi_matching_parameters(range(2, 5))
    },
    "maximal_matching_problem(3)": lambda: maximal_matching_problem(3),
    "maximal_matching_problem(4)": lambda: maximal_matching_problem(4),
    "sinkless_orientation_problem(3)": lambda: sinkless_orientation_problem(3),
    "pi_ruling(3, 1, 2)": lambda: pi_ruling(3, 1, 2),
}

#: Δ = 5: the unpruned search pops up to ~350,000 configurations on the
#: white side of R(Π_5(0,3)) and takes ~2 minutes over all of them, so
#: these run with the long differential tests (``-m fuzz``).
SLOW_PROBLEMS = {
    f"pi_matching{params}": (lambda params=params: pi_matching(*params))
    for params in _pi_matching_parameters([5])
}


def _cases():
    return [pytest.param(name, PROBLEMS[name], id=name) for name in PROBLEMS] + [
        pytest.param(name, SLOW_PROBLEMS[name], id=name, marks=pytest.mark.fuzz)
        for name in SLOW_PROBLEMS
    ]


def _searched_sides(problem):
    """The two constraints RE searches: the black side of Π (R) and the
    white side of R(Π) (R̄)."""
    eliminated = apply_R(problem)
    return [
        ("black of Π", problem.black, problem.alphabet),
        ("white of R(Π)", eliminated.white, eliminated.alphabet),
    ]


class TestClosedSearchAgainstUnprunedSearch:
    @pytest.mark.parametrize("name, factory", _cases())
    def test_same_maximal_sets_in_no_more_pops(self, name, factory):
        """Given the unpruned search's pop count as budget, each engine
        finishes (so it pops no more) with the same maximal sets."""
        for side, constraint, alphabet in _searched_sides(factory()):
            expected, pops = unpruned_maximal_set_configurations(constraint, alphabet)
            for engine in ENGINES:
                found = maximal_set_configurations(
                    constraint, alphabet, budget=pops, engine=engine
                )
                assert found == expected, (side, engine)

    def test_closed_search_pops_fewer(self):
        """The pruning is real: on Π_3(0,1)'s two searched sides the
        unpruned search pops 336 and 2,224 configurations, the closed
        search 27 and 79."""
        sides = _searched_sides(pi_matching(3, 0, 1))
        unpruned = [
            unpruned_maximal_set_configurations(constraint, alphabet)[1]
            for _side, constraint, alphabet in sides
        ]
        assert unpruned == [336, 2224]
        for (_side, constraint, alphabet), closed in zip(sides, (27, 79)):
            for engine in ENGINES:
                maximal_set_configurations(
                    constraint, alphabet, budget=closed, engine=engine
                )


class TestStrengthMasks:
    @pytest.mark.parametrize("name, factory", _cases())
    def test_masks_decode_to_the_strength_relation(self, name, factory):
        """Label X is in Y's mask exactly when X is at least as strong as
        Y; a label in no configuration has no mask (every label is
        vacuously at least as strong)."""
        problem = factory()
        for owner in (problem, apply_R(problem)):
            encoding = LabelEncoding.for_alphabet(owner.alphabet)
            for constraint in (owner.white, owner.black):
                table = ConstraintTable.compile(constraint, encoding)
                masks = SearchContext(table).stronger()
                decoded = {
                    (weak, strong)
                    for bit, weak in enumerate(encoding.labels)
                    for strong in encoding.decode_mask(
                        masks.get(bit, encoding.full_mask)
                    )
                    if strong != weak
                }
                assert decoded == strength_relation(owner.alphabet, constraint)
