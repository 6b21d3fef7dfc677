"""Relaxations between problems (paper §2).

Π′ is a *relaxation* of Π when there is a map f from the (ordered) white
configurations of Π to those of Π′ such that, writing r(ℓ) for the set of
labels that f ever sends an occurrence of ℓ to, every black configuration
{ℓ1,…,ℓdB} of Π satisfies: every choice over r(ℓ1)×…×r(ℓdB) lies in the
black constraint of Π′.  Intuitively, white nodes can rewrite a valid
Π-solution into a valid Π′-solution without communication.

Two checkers are provided:

* label maps (``g : Σ_Π → Σ_Π′``), the common case, with a complete
  backtracking search (:func:`find_label_relaxation`); a label map induces
  a configuration map with r(ℓ) = {g(ℓ)};
* explicit ordered-configuration maps (:func:`is_relaxation_via_config_map`),
  matching the paper's general definition verbatim, with a complete
  search (:func:`find_config_map_relaxation`).

Both searches compile the relaxed problem once
(:class:`~repro.formalism.encoding.ProblemEncoding`) and ask its
constraint tables.  "Can this partial image still extend?" is one set
lookup of a sorted bit tuple.  "Is every choice that sends this slot to
that receiver allowed?" is one bit of the memoized valid-addition mask
of :class:`~repro.formalism.encoding.SearchContext`, the question the
round elimination kernel asks of set configurations.  Each search
re-checks only what an assignment changed — the configurations holding
the label just mapped, or the choices using a newly added
(label → receiver) pair — since it descends only from states that
passed the check.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import product

from repro.formalism.configurations import Configuration, Label
from repro.formalism.encoding import ProblemEncoding, SearchContext
from repro.formalism.problems import Problem
from repro.utils import FormalismError


def is_relaxation_via_label_map(
    strict: Problem, relaxed: Problem, mapping: Mapping[Label, Label]
) -> bool:
    """Check that ``mapping`` witnesses: ``relaxed`` is a relaxation of
    ``strict``.

    Conditions: every white configuration of ``strict`` maps into the white
    constraint of ``relaxed``, and every black configuration of ``strict``
    maps into the black constraint of ``relaxed`` (with r(ℓ) = {g(ℓ)} the
    paper's product condition degenerates to this).
    """
    missing = {label for config in strict.white for label in config.support
               if label not in mapping}
    missing.update(label for config in strict.black for label in config.support
                   if label not in mapping)
    if missing:
        raise FormalismError(f"label map misses labels {sorted(missing)}")

    for config in strict.white:
        image = Configuration(mapping[label] for label in config)
        if image not in relaxed.white:
            return False
    for config in strict.black:
        image = Configuration(mapping[label] for label in config)
        if image not in relaxed.black:
            return False
    return True


def find_label_relaxation(
    strict: Problem, relaxed: Problem
) -> dict[Label, Label] | None:
    """Complete search for a label map witnessing relaxation.

    Returns a witness map or None if *no label map* works.  Note that the
    paper's relaxation notion is more general (per-configuration maps); a
    None here does not by itself refute relaxation, so callers that need
    refutation should fall back to :func:`is_relaxation_via_config_map`
    with candidate maps or to semantic arguments.
    """
    source_labels = sorted(strict.white.labels | strict.black.labels)
    target_labels = sorted(relaxed.alphabet)
    if not source_labels:
        return {}

    compiled = ProblemEncoding.compile(relaxed)
    sides = (
        (compiled.white.partials, strict.white),
        (compiled.black.partials, strict.black),
    )
    # Every partial image starts out empty, and the empty multiset extends
    # exactly when the relaxed side allows some configuration.
    if any(len(configs) and () not in partials for partials, configs in sides):
        return None
    # The configurations whose partial image changes when a label is mapped.
    touching: dict[Label, list] = {label: [] for label in source_labels}
    for partials, configs in sides:
        for config in configs:
            for label in config.support:
                touching[label].append((partials, config.labels))

    def viable(label: Label, mapping: dict[Label, int]) -> bool:
        """Prune: can every partially mapped configuration still land
        inside the relaxed constraint?  The mapping was viable before
        ``label`` was mapped, so only configurations holding it can fail."""
        for partials, config in touching[label]:
            image = sorted(mapping[item] for item in config if item in mapping)
            if tuple(image) not in partials:
                return False
        return True

    # Assign the most-used labels first: they constrain the search hardest.
    usage = Counter()
    for config in list(strict.white) + list(strict.black):
        usage.update(config.support)
    order = sorted(source_labels, key=lambda label: -usage[label])

    def backtrack(index: int, mapping: dict[Label, int]):
        if index == len(order):
            found = {label: target_labels[bit] for label, bit in mapping.items()}
            if is_relaxation_via_label_map(strict, relaxed, found):
                return found
            return None
        label = order[index]
        for bit in range(len(target_labels)):
            mapping[label] = bit
            if viable(label, mapping):
                found = backtrack(index + 1, mapping)
                if found is not None:
                    return found
            del mapping[label]
        return None

    return backtrack(0, {})


ConfigMap = Mapping[tuple[Label, ...], tuple[Label, ...]]


def receiver_sets(config_map: ConfigMap) -> dict[Label, frozenset[Label]]:
    """Compute r(ℓ) for an ordered-configuration map (paper §2).

    r(ℓ) is the set of labels some occurrence of ℓ is ever mapped to.
    """
    receivers: dict[Label, set[Label]] = {}
    for source, target in config_map.items():
        if len(source) != len(target):
            raise FormalismError(
                f"config map changes arity: {source} -> {target}"
            )
        for src_label, dst_label in zip(source, target):
            receivers.setdefault(src_label, set()).add(dst_label)
    return {label: frozenset(images) for label, images in receivers.items()}


def is_relaxation_via_config_map(
    strict: Problem, relaxed: Problem, config_map: ConfigMap
) -> bool:
    """Check the paper's general relaxation condition for an explicit map.

    ``config_map`` sends ordered white configurations of ``strict`` to
    ordered white configurations of ``relaxed``; every white configuration
    of ``strict`` must appear (in some order) among the keys.
    """
    covered = {Configuration(key) for key in config_map}
    if covered != set(strict.white.configurations):
        return False
    for key, value in config_map.items():
        if Configuration(value) not in relaxed.white:
            return False

    receivers = receiver_sets(config_map)
    for config in strict.black:
        choice_sets: list[Sequence[Label]] = []
        for label in config:
            images = receivers.get(label)
            if images is None:
                # A label never output by white nodes cannot appear in a
                # valid solution, so the condition on it is vacuous; the
                # paper's definition quantifies over r(ℓ) which is empty.
                choice_sets.append(())
            else:
                choice_sets.append(sorted(images))
        if any(len(choices) == 0 for choices in choice_sets):
            continue
        for choice in product(*choice_sets):
            if Configuration(choice) not in relaxed.black:
                return False
    return True


def _ordered_targets(relaxed: Problem) -> list[tuple[Label, ...]]:
    """Every ordered form of every white configuration of the target."""
    from itertools import permutations

    ordered: set[tuple[Label, ...]] = set()
    for config in relaxed.white:
        ordered.update(permutations(config.labels))
    return sorted(ordered)


def find_config_map_relaxation(
    strict: Problem, relaxed: Problem
) -> dict[tuple[Label, ...], tuple[Label, ...]] | None:
    """Complete search for an ordered-configuration-map relaxation witness.

    This implements the paper's *general* relaxation notion (§2): unlike a
    label map, a configuration map may send two occurrences of the same
    label — in the same or different configurations — to different target
    labels.  The search assigns each white configuration of ``strict`` an
    ordered target configuration, growing the receiver sets r(ℓ) and
    pruning as soon as some black configuration of ``strict`` admits a
    choice over the current r(ℓ) outside the target's black constraint
    (receiver sets only grow, so a violation can never heal).
    """
    sources = sorted(strict.white, key=lambda config: config.labels)
    if not sources:
        return {}
    targets = _ordered_targets(relaxed)
    if not targets:
        return None
    compiled = ProblemEncoding.compile(relaxed)
    encode = compiled.encoding.index
    full_mask = compiled.encoding.full_mask
    black = SearchContext(compiled.black)
    # A black configuration without labels has one choice, the empty one,
    # and no (label → receiver) pair the search adds ever touches it.
    if any(not config.size for config in strict.black):
        if () not in black.table.allowed:
            return None
    # rests[ℓ]: each black configuration holding ℓ, less one occurrence of ℓ.
    rests: dict[Label, list[tuple[Label, ...]]] = {}
    for config in strict.black:
        for label in config.support:
            rest = list(config.labels)
            rest.remove(label)
            rests.setdefault(label, []).append(tuple(rest))

    def violated_by(src_label: Label, dst_bit: int, receivers) -> bool:
        """Does some choice that sends one ``src_label`` slot to
        ``dst_bit`` fall outside the relaxed black constraint?  That is:
        is ``dst_bit`` no valid addition next to the receiver sets of the
        configuration's other slots?"""
        for rest in rests.get(src_label, ()):
            others = [receivers.get(label, 0) for label in rest]
            if not all(others):
                continue  # some label has no receiver yet: vacuous for now
            valid = black.valid_additions(black.canonical(others), full_mask)
            if not valid >> dst_bit & 1:
                return True
        return False

    assignment: dict[tuple[Label, ...], tuple[Label, ...]] = {}

    def backtrack(index: int, receivers: dict[Label, int]):
        if index == len(sources):
            return dict(assignment)
        source = tuple(sources[index].labels)
        for target in targets:
            if len(target) != len(source):
                continue
            added: list[tuple[Label, int]] = []
            for src_label, dst_label in zip(source, target):
                dst_bit = encode[dst_label]
                bucket = receivers.get(src_label, 0)
                if not bucket >> dst_bit & 1:
                    receivers[src_label] = bucket | 1 << dst_bit
                    added.append((src_label, dst_bit))
            # The state before this assignment violated nothing, so only
            # choices using a newly added (label → receiver) pair can.
            if not any(
                violated_by(src_label, dst_bit, receivers)
                for src_label, dst_bit in added
            ):
                assignment[source] = target
                found = backtrack(index + 1, receivers)
                if found is not None:
                    return found
                del assignment[source]
            for src_label, dst_bit in added:
                receivers[src_label] &= ~(1 << dst_bit)
        return None

    return backtrack(0, {})
