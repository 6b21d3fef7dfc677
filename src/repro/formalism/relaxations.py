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
  matching the paper's general definition verbatim.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import product

from repro.formalism.configurations import Configuration, Label
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

    white_configs = list(strict.white)
    black_configs = list(strict.black)

    def viable(mapping: dict[Label, Label]) -> bool:
        """Prune: can every partially mapped configuration still land
        inside the relaxed constraint?"""
        for config in white_configs:
            partial = Counter(
                mapping[label] for label in config if label in mapping
            )
            if not relaxed.white.allows_partial(partial, sum(partial.values())):
                return False
        for config in black_configs:
            partial = Counter(
                mapping[label] for label in config if label in mapping
            )
            if not relaxed.black.allows_partial(partial, sum(partial.values())):
                return False
        return True

    # Assign the most-used labels first: they constrain the search hardest.
    usage = Counter()
    for config in white_configs + black_configs:
        usage.update(config.support)
    order = sorted(source_labels, key=lambda label: -usage[label])

    def backtrack(index: int, mapping: dict[Label, Label]):
        if index == len(order):
            if is_relaxation_via_label_map(strict, relaxed, mapping):
                return dict(mapping)
            return None
        label = order[index]
        for target in target_labels:
            mapping[label] = target
            if viable(mapping):
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
    black_configs = [config.labels for config in strict.black]

    def black_violated(receivers: dict[Label, set[Label]]) -> bool:
        for config in black_configs:
            choice_sets = [sorted(receivers.get(label, ())) for label in config]
            if any(not choices for choices in choice_sets):
                continue  # some label has no receiver yet: vacuous for now
            for choice in product(*choice_sets):
                if not relaxed.black.allows_multiset(choice):
                    return True
        return False

    assignment: dict[tuple[Label, ...], tuple[Label, ...]] = {}

    def backtrack(index: int, receivers: dict[Label, set[Label]]):
        if index == len(sources):
            return dict(assignment)
        source = tuple(sources[index].labels)
        for target in targets:
            if len(target) != len(source):
                continue
            added: list[tuple[Label, Label]] = []
            for src_label, dst_label in zip(source, target):
                bucket = receivers.setdefault(src_label, set())
                if dst_label not in bucket:
                    bucket.add(dst_label)
                    added.append((src_label, dst_label))
            if not black_violated(receivers):
                assignment[source] = target
                found = backtrack(index + 1, receivers)
                if found is not None:
                    return found
                del assignment[source]
            for src_label, dst_label in added:
                receivers[src_label].discard(dst_label)
        return None

    return backtrack(0, {})
