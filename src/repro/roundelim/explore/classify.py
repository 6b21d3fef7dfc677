"""Per-node classification: zero-round solvability and fixed points.

Every node the frontier visits is classified so the search can stop
walking chains that already prove something:

* **zero-round solvable** — the chain below this problem adds no lower
  bound rounds.  The *uniform* test (∃ℓ with ℓ^{d_W} ∈ C_W and
  ℓ^{d_B} ∈ C_B: every node outputs ℓ everywhere) is sufficient but not
  necessary, so ``zero_round: false`` means "not shown", never
  "refuted".  Whether a problem is 0-round solvable on a given support
  is Theorem 3.2's lift question, which :mod:`repro.core.zero_round`
  answers for a concrete graph.
* **fixed point** — RE(Π) ≅ Π (Lemma 5.4's notion).  Content addressing
  makes the exact check free: canonical digests are equal iff the
  problems are isomorphic.  The weaker *relaxation* fixed point (Π is a
  relaxation of RE(Π), all Corollary 5.5 needs) is the store's memoized
  relaxation query,
  :meth:`repro.roundelim.explore.store.ProblemStore.relaxation`.
"""

from __future__ import annotations

from repro.formalism.configurations import Configuration
from repro.formalism.problems import Problem


def uniform_zero_round(problem: Problem) -> bool:
    """∃ℓ: the all-ℓ labeling satisfies both constraints at full degree.

    Sufficient for 0-round solvability in the Supported LOCAL model:
    every white node outputs ℓ on every incident input edge without
    looking at anything.
    """
    for label in sorted(problem.alphabet):
        if (
            Configuration([label] * problem.white_arity) in problem.white
            and Configuration([label] * problem.black_arity) in problem.black
        ):
            return True
    return False
