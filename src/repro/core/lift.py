"""The lift operator (paper Definition 3.1) — the central contribution.

For a problem Π with white arity Δ′ and black arity r′, and targets
Δ ≥ Δ′, r ≥ r′, the problem lift_{Δ,r}(Π) is defined over *label-sets*:
non-empty subsets of Σ_Π that are right-closed w.r.t. the black diagram
of Π.  Its constraints:

* black (arity r): {L₁,…,L_r} is allowed iff **every** r′-subset and
  **every** choice from it lies in Π's black constraint;
* white (arity Δ): {L₁,…,L_Δ} is allowed iff **every** Δ′-subset admits
  **some** choice in Π's white constraint.

Theorem 3.2 proves: Π is 0-round solvable by a white algorithm in the
Supported LOCAL model on a (Δ,r)-biregular support graph G iff
lift_{Δ,r}(Π) has a bipartite solution on G.  The constructive directions
of that proof live in :mod:`repro.core.zero_round`.

The lift is represented both *implicitly* (predicates, usable at any
arity) and *explicitly* (a materialized
:class:`~repro.formalism.problems.Problem`, for the CSP solver and for
inspection), with set labels encoded as in
:mod:`repro.formalism.labels`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import combinations, product

import networkx as nx

from repro.formalism.configurations import Configuration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.diagrams import black_diagram, right_closed_subsets, right_closure
from repro.formalism.labels import set_label
from repro.formalism.problems import Problem
from repro.utils import InvalidParameterError
from repro.utils.multiset import all_multisets

LabelSet = frozenset[Label]


def _distinct_subsets(items: tuple, size: int) -> Iterable[tuple]:
    """Deduplicated size-``size`` sub-tuples of a canonical tuple."""
    seen: set[tuple] = set()
    for combo in combinations(items, size):
        if combo not in seen:
            seen.add(combo)
            yield combo


@dataclass(frozen=True)
class LiftedProblem:
    """lift_{Δ,r}(Π), with implicit constraint predicates.

    ``label_sets`` is the alphabet (right-closed non-empty subsets of
    Σ_Π); ``base`` is Π; ``delta`` and ``rank`` are the target arities.
    """

    base: Problem
    delta: int
    rank: int
    label_sets: tuple[LabelSet, ...]
    _diagram: nx.DiGraph = field(repr=False, hash=False, compare=False)

    @property
    def name(self) -> str:
        return f"lift_{{{self.delta},{self.rank}}}({self.base.name})"

    def black_allows(self, sets: Iterable[LabelSet]) -> bool:
        """Definition 3.1's black condition on a size-r multiset.

        Every r′-subset, every choice across it, must be in Π's black
        constraint.
        """
        sets = tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))
        if len(sets) != self.rank:
            return False
        r_prime = self.base.black_arity
        for subset in _distinct_subsets(sets, r_prime):
            for choice in product(*subset):
                if not self.base.black.allows_multiset(choice):
                    return False
        return True

    def white_allows(self, sets: Iterable[LabelSet]) -> bool:
        """Definition 3.1's white condition on a size-Δ multiset.

        Every Δ′-subset must admit some choice in Π's white constraint.
        """
        sets = tuple(sorted(sets, key=lambda s: (len(s), sorted(s))))
        if len(sets) != self.delta:
            return False
        delta_prime = self.base.white_arity
        for subset in _distinct_subsets(sets, delta_prime):
            if not self.base.white.exists_choice(subset):
                return False
        return True

    def right_close(self, labels: Iterable[Label]) -> LabelSet:
        """The smallest valid lift label containing ``labels``.

        Used by the Theorem 3.2 construction, which collects raw output
        sets and then closes them w.r.t. the black diagram of Π.
        """
        return right_closure(self._diagram, labels)

    def to_problem(self) -> Problem:
        """Materialize an explicit Problem (set labels as strings).

        Feasible whenever the number of size-Δ (size-r) multisets over the
        lift alphabet is modest; the paper's verification-scale instances
        always are.
        """
        encoded = {set_label(s): s for s in self.label_sets}
        white_configs = []
        for names in all_multisets(encoded, self.delta):
            if self.white_allows(encoded[name] for name in names):
                white_configs.append(Configuration(names))
        black_configs = []
        for names in all_multisets(encoded, self.rank):
            if self.black_allows(encoded[name] for name in names):
                black_configs.append(Configuration(names))
        return Problem(
            alphabet=frozenset(encoded),
            white=Constraint(white_configs),
            black=Constraint(black_configs),
            name=self.name,
        )

    def solvable_on(
        self,
        graph: nx.Graph,
        *,
        backend: str | None = None,
        budget: int | None = None,
    ) -> bool:
        """Does this lift have a bipartite solution on the support graph?

        The Theorem 3.2 gate, through any registered solver backend.
        """
        from repro.solvers.csp import DEFAULT_NODE_BUDGET
        from repro.solvers.existence import solve_bipartite

        solution = solve_bipartite(
            graph,
            self.to_problem(),
            budget=DEFAULT_NODE_BUDGET if budget is None else budget,
            backend=backend,
        )
        return solution is not None


def lift(problem: Problem, delta: int, rank: int) -> LiftedProblem:
    """Construct lift_{Δ,r}(Π) per Definition 3.1.

    Requires Δ ≥ Δ′ and r ≥ r′ (the support graph is denser than the
    input graph class).
    """
    if delta < problem.white_arity:
        raise InvalidParameterError(
            f"lift needs Δ ≥ Δ' = {problem.white_arity}, got {delta}"
        )
    if rank < problem.black_arity:
        raise InvalidParameterError(
            f"lift needs r ≥ r' = {problem.black_arity}, got {rank}"
        )
    diagram = black_diagram(problem)
    label_sets = tuple(right_closed_subsets(diagram))
    return LiftedProblem(
        base=problem,
        delta=delta,
        rank=rank,
        label_sets=label_sets,
        _diagram=diagram,
    )
