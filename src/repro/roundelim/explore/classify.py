"""Per-node classification: zero-round solvability and fixed points.

Every node the frontier visits is classified so the search can stop
walking chains that already prove something:

* **zero-round solvable** — the chain below this problem adds no lower
  bound rounds.  The cheap *uniform* test (∃ℓ with ℓ^{d_W} ∈ C_W and
  ℓ^{d_B} ∈ C_B: every node outputs ℓ everywhere) is sufficient but not
  necessary; the *exhaustive* test brute-forces the full 0-round
  algorithm space of :mod:`repro.core.zero_round` on the smallest
  (d_W, d_B)-biregular support and is exact on that support — but
  exponential, so it is gated to tiny instances and returns ``None``
  (unknown) beyond them.
* **fixed point** — RE(Π) ≅ Π (Lemma 5.4's notion).  Content addressing
  makes the exact check free: canonical digests are equal iff the
  problems are isomorphic.  The weaker *relaxation* fixed point (Π is a
  relaxation of RE(Π), all Corollary 5.5 needs) is the store's memoized
  relaxation query,
  :meth:`repro.roundelim.explore.store.ProblemStore.relaxation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.formalism.configurations import Configuration
from repro.formalism.problems import Problem
from repro.utils import SolverError

if TYPE_CHECKING:
    import networkx as nx

#: Edge-count cap for the exhaustive zero-round check: the subgraph
#: enumeration alone is 2^edges, and the algorithm space is exponential
#: on top of it.
EXHAUSTIVE_EDGE_CAP = 6

#: Alphabet cap for the exhaustive zero-round check.
EXHAUSTIVE_ALPHABET_CAP = 3

#: The SAT-gated envelope is wider: the Theorem 3.2 lift-and-solve gate
#: replaces the 2^edges × algorithm-space brute force with one CDCL
#: solve, so larger supports and alphabets stay tractable.
SAT_EDGE_CAP = 9

SAT_ALPHABET_CAP = 4

ZERO_ROUND_MODES = ("uniform", "exhaustive", "exhaustive-sat")


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


def _smallest_biregular_support(white_arity: int, black_arity: int) -> nx.Graph:
    """K_{d_B, d_W} with colors: white degree d_W, black degree d_B."""
    import networkx as nx

    graph = nx.Graph()
    whites = [f"w{index}" for index in range(black_arity)]
    blacks = [f"b{index}" for index in range(white_arity)]
    for node in whites:
        graph.add_node(node, color="white")
    for node in blacks:
        graph.add_node(node, color="black")
    for white in whites:
        for black in blacks:
            graph.add_edge(white, black)
    return graph


def exhaustive_zero_round(
    problem: Problem, method: str = "bruteforce"
) -> bool | None:
    """Exact 0-round existence on the smallest biregular support.

    ``None`` means the instance exceeds the method's envelope — the
    caller records "unknown", never a guess.  ``method="bruteforce"``
    enumerates the full 0-round algorithm space
    (:func:`repro.core.zero_round.exists_zero_round_algorithm`);
    ``method="sat"`` decides the equivalent Theorem 3.2 lift gate with
    the CDCL backend, which widens the tractable envelope
    (``SAT_EDGE_CAP`` / ``SAT_ALPHABET_CAP``) — the exploration policy's
    ``exhaustive-sat`` mode.  Both methods answer identically inside the
    shared envelope (Theorem 3.2 is the proven equivalence, and the
    zero-round test suite asserts it).
    """
    if problem.white_arity < 1 or problem.black_arity < 1:
        return None
    if method == "sat":
        return _exhaustive_zero_round_sat(problem)
    from repro.core.zero_round import exists_zero_round_algorithm

    if problem.white_arity * problem.black_arity > EXHAUSTIVE_EDGE_CAP:
        return None
    if len(problem.alphabet) > EXHAUSTIVE_ALPHABET_CAP:
        return None
    support = _smallest_biregular_support(problem.white_arity, problem.black_arity)
    try:
        return exists_zero_round_algorithm(
            support, problem, edge_limit=EXHAUSTIVE_EDGE_CAP
        )
    except SolverError:
        return None


def _exhaustive_zero_round_sat(problem: Problem) -> bool | None:
    """The SAT fast path: lift to the smallest support and CDCL-solve."""
    from repro.core.zero_round import zero_round_solvable

    if problem.white_arity * problem.black_arity > SAT_EDGE_CAP:
        return None
    if len(problem.alphabet) > SAT_ALPHABET_CAP:
        return None
    support = _smallest_biregular_support(problem.white_arity, problem.black_arity)
    try:
        return zero_round_solvable(problem=problem, graph=support, backend="sat")
    except SolverError:
        return None
