"""The round elimination operators R, R̄ and RE (paper Appendix B).

Given Π = (Σ, C_W, C_B), the problem R(Π) = (Σ′, C′_W, C′_B) is defined by:

* C′_B — the *maximal* configurations {L1,…,L_dB} of non-empty label sets
  such that every choice (ℓ1,…,ℓ_dB) ∈ L1×…×L_dB lies in C_B.  A
  configuration is removed as non-maximal when another one dominates it
  component-wise (up to permutation) with at least one strict inclusion.
* Σ′ — the label sets occurring in C′_B.
* C′_W — all size-d_W multisets over Σ′ admitting *some* choice in C_W.

R̄ is R with the two constraints' roles swapped, and RE(Π) := R̄(R(Π)).

The maximal-configuration computation is exact and searches right-closed
sets only.  Validity of set configurations is downward closed
(component-wise), and a configuration is maximal iff no single addition
keeps it valid.  When X is at least as strong as Y w.r.t. C_B (paper §2,
:mod:`repro.formalism.diagrams`), adding X to a slot holding Y keeps a
valid configuration valid, so every slot of a maximal configuration is
right-closed: it holds every candidate label at least as strong as one
of its members.  The search therefore starts from closed seeds — one per
allowed base configuration, each slot the closure of its label — and
adds a label together with its closure (restricted to the candidate
alphabet); every maximal configuration is reached through configurations
whose slots are all right-closed.  The search memoizes canonical forms;
a configurable budget guards against blow-up.  The budget counts every
*popped* configuration of this closed search, so a duplicate-heavy
frontier cannot exceed it unbounded, and the seed order is explicitly
sorted so the same budget raises at the same point in every process
(hash randomization does not leak into the search order).  The closed
search pops a subset of what a search over all label sets pops (on
Π_4(0,1)'s black side, 44 configurations instead of 1,001).

Two interchangeable engines compute the operators:

* ``"kernel"`` (default) — the bitmask-compiled search of
  :mod:`repro.roundelim.kernel` over the integer domain of
  :mod:`repro.formalism.encoding`; same outputs, same budget semantics,
  several times faster (``benchmarks/bench_roundelim_kernel.py``).
* ``"reference"`` — the direct string/frozenset implementation below,
  kept as the executable specification the kernel is tested against;
  it decides strength with :func:`repro.formalism.diagrams.is_at_least_as_strong`.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product

from repro.formalism.configurations import Configuration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.labels import set_label
from repro.formalism.problems import Problem
from repro.utils import InvalidParameterError, SolverLimitError
from repro.utils.multiset import all_multisets

SetConfig = tuple[frozenset[Label], ...]

DEFAULT_BUDGET = 2_000_000

#: The engines ``apply_R`` / ``apply_R_bar`` / ``round_elimination`` accept.
ENGINES = ("kernel", "reference")

DEFAULT_ENGINE = "kernel"


def _validate_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise InvalidParameterError(
            f"unknown round elimination engine {engine!r}; known: {list(ENGINES)}"
        )


#: Cache of per-slot sort keys.  Canonicalization sorts every slot of
#: every candidate configuration; the same frozensets recur throughout a
#: search, so the (len, sorted-tuple) key is computed once per distinct
#: slot.  Cleared when it reaches ``_SLOT_KEY_CACHE_LIMIT`` entries so a
#: long-lived process iterating RE over many problems cannot grow
#: without bound (one Δ=5 matching step alone produces thousands of
#: distinct label sets).
_SLOT_KEY_CACHE: dict[frozenset, tuple[int, tuple[Label, ...]]] = {}

_SLOT_KEY_CACHE_LIMIT = 500_000


def _slot_sort_key(slot: frozenset[Label]) -> tuple[int, tuple[Label, ...]]:
    key = _SLOT_KEY_CACHE.get(slot)
    if key is None:
        if len(_SLOT_KEY_CACHE) >= _SLOT_KEY_CACHE_LIMIT:
            _SLOT_KEY_CACHE.clear()
        key = (len(slot), tuple(sorted(slot)))
        _SLOT_KEY_CACHE[slot] = key
    return key


def _canonical_set_config(slots: Iterator[frozenset[Label]] | SetConfig) -> SetConfig:
    """Canonical form of a multiset of label sets: sorted tuple."""
    return tuple(sorted(slots, key=_slot_sort_key))


def _addition_valid(
    slots: SetConfig, index: int, new_label: Label, allowed: frozenset[tuple[Label, ...]]
) -> bool:
    """Is the config still valid after adding ``new_label`` to slot ``index``?

    Only choices that pick ``new_label`` from slot ``index`` are new, so
    only those are checked.
    """
    others = [slots[j] for j in range(len(slots)) if j != index]
    for choice in product(*others):
        candidate = tuple(sorted(choice + (new_label,)))
        if candidate not in allowed:
            return False
    return True


def maximal_set_configurations(
    constraint: Constraint,
    alphabet: frozenset[Label],
    budget: int = DEFAULT_BUDGET,
    engine: str = DEFAULT_ENGINE,
) -> frozenset[SetConfig]:
    """All maximal set configurations of a constraint (the C′_B of R).

    ``budget`` bounds the number of configurations the right-closed
    search pops; the search raises :class:`SolverLimitError` rather than
    silently truncate, because downstream lower-bound certificates rely
    on exactness.
    """
    _validate_engine(engine)
    if engine == "kernel":
        from repro.roundelim.kernel import maximal_set_configurations_kernel

        return maximal_set_configurations_kernel(constraint, alphabet, budget)

    from repro.formalism.diagrams import is_at_least_as_strong

    arity = constraint.size
    allowed: frozenset[tuple[Label, ...]] = frozenset(
        config.labels for config in constraint.configurations
    )
    labels = sorted(alphabet)
    closures: dict[Label, frozenset[Label]] = {}

    def closure(label: Label) -> frozenset[Label]:
        """``label`` with every candidate label at least as strong."""
        got = closures.get(label)
        if got is None:
            got = frozenset(
                [label]
                + [
                    strong
                    for strong in labels
                    if is_at_least_as_strong(strong, label, constraint)
                ]
            )
            closures[label] = got
        return got

    seeds = sorted(
        {
            _canonical_set_config(tuple(closure(label) for label in config.labels))
            for config in constraint.configurations
        },
        key=lambda config: tuple(_slot_sort_key(slot) for slot in config),
    )
    # Every member of ``seen`` is a known-valid configuration (seeds are
    # valid by construction, and configs are only added after a
    # successful addition check), and deduplication happens at *push*
    # time, so each configuration is popped at most once and the popped
    # count is exactly the number of distinct valid configs processed.
    seen: set[SetConfig] = set(seeds)
    maximal: set[SetConfig] = set()
    stack = list(seeds)
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
            for label in labels:
                if label in slot:
                    continue
                if _addition_valid(config, index, label, allowed):
                    extendable = True
                    grown = _canonical_set_config(
                        config[:index] + (slot | closure(label),) + config[index + 1 :]
                    )
                    if grown not in seen:
                        seen.add(grown)
                        stack.append(grown)
        if not extendable:
            maximal.add(config)
    return frozenset(maximal)


def _existential_white_constraint(
    new_alphabet: list[frozenset[Label]],
    base_constraint: Constraint,
    arity: int,
) -> list[tuple[frozenset[Label], ...]]:
    """All size-``arity`` multisets of sets from ``new_alphabet`` with some
    choice in ``base_constraint`` (the C′_W of R)."""
    encoded = {set_label(slot): slot for slot in new_alphabet}
    result: list[tuple[frozenset[Label], ...]] = []
    for names in all_multisets(encoded, arity):
        slots = tuple(encoded[name] for name in names)
        if base_constraint.exists_choice(slots):
            result.append(slots)
    return result


def apply_R(
    problem: Problem,
    budget: int = DEFAULT_BUDGET,
    engine: str = DEFAULT_ENGINE,
) -> Problem:
    """The operator R of Appendix B.

    ``engine`` selects the computation backend (see module docstring);
    both produce the identical :class:`Problem`.
    """
    _validate_engine(engine)
    if engine == "kernel":
        from repro.roundelim.kernel import apply_R_kernel

        return apply_R_kernel(problem, budget=budget)

    maximal = maximal_set_configurations(
        problem.black, problem.alphabet, budget, engine=engine
    )
    new_alphabet_sets = sorted(
        {slot for config in maximal for slot in config},
        key=_slot_sort_key,
    )
    black_configs = [
        Configuration(set_label(slot) for slot in config) for config in maximal
    ]
    white_slot_tuples = _existential_white_constraint(
        new_alphabet_sets, problem.white, problem.white_arity
    )
    white_configs = [
        Configuration(set_label(slot) for slot in slots)
        for slots in white_slot_tuples
    ]
    return Problem.from_constraints(
        white=Constraint(white_configs),
        black=Constraint(black_configs),
        name=f"R({problem.name})",
    )


def apply_R_bar(
    problem: Problem,
    budget: int = DEFAULT_BUDGET,
    engine: str = DEFAULT_ENGINE,
) -> Problem:
    """The operator R̄ of Appendix B (R with constraint roles reversed)."""
    swapped = apply_R(problem.swap_sides(), budget=budget, engine=engine)
    result = swapped.swap_sides()
    return Problem(
        alphabet=result.alphabet,
        white=result.white,
        black=result.black,
        name=f"R̄({problem.name})",
    )


def round_elimination(
    problem: Problem,
    budget: int = DEFAULT_BUDGET,
    engine: str = DEFAULT_ENGINE,
) -> Problem:
    """RE(Π) := R̄(R(Π)) — one full round elimination step.

    Arities are preserved: if Π has white configurations of size Δ and black
    configurations of size r, so does RE(Π) (paper §2, "Round elimination").
    """
    result = apply_R_bar(
        apply_R(problem, budget=budget, engine=engine), budget=budget, engine=engine
    )
    return Problem(
        alphabet=result.alphabet,
        white=result.white,
        black=result.black,
        name=f"RE({problem.name})",
    )


def compress_labels(
    problem: Problem, prefix: str = "a"
) -> tuple[Problem, dict[Label, Label]]:
    """Rename (possibly deeply nested) set labels to short fresh names.

    Returns the renamed problem and the mapping old → new.  Iterated RE
    nests set labels exponentially deep; compressing between steps keeps
    problems readable and comparisons fast.
    """
    ordered = sorted(problem.alphabet)
    mapping = {label: f"{prefix}{index}" for index, label in enumerate(ordered)}
    return problem.rename(mapping, name=problem.name), mapping
