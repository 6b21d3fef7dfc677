"""Quickstart: the black-white formalism, diagrams, RE and lift in 5 minutes.

Walks the maximal matching problem (paper Appendix A) through the whole
stack: the one-call ``repro.api`` façade, construction, strength diagram,
one round elimination step, the lift operator, and a Supported LOCAL
0-round solvability decision on a concrete support graph.

Run:  python examples/quickstart.py
"""

from repro import api
from repro.core import algorithm_from_lift_solution, is_correct_zero_round, lift
from repro.formalism import black_diagram, render_diagram, render_problem
from repro.formalism.labels import set_label_members
from repro.graphs import cycle, mark_bipartition
from repro.problems import maximal_matching_problem
from repro.roundelim import compress_labels, round_elimination
from repro.solvers import solve_bipartite


def main() -> None:
    # 0. The one-call façade: spec → algorithm → engine → checker.
    report = api.solve("matching:Δ=4,x=0,y=1",
                       algorithm="matching:proposal", engine="vectorized", seed=0)
    print(f"api.solve: {report.problem} via {report.algorithm} on the "
          f"{report.engine} engine → rounds={report.rounds}, "
          f"|M|={len(report.outputs)}, valid={report.valid}")
    print()

    # 1. The maximal matching problem in the black-white formalism.
    problem = maximal_matching_problem(3)
    print(render_problem(problem))

    # 2. Its black diagram — the paper's Appendix A says: one edge, P → O.
    print()
    print(render_diagram(black_diagram(problem), title="black diagram"))

    # 3. One round elimination step (Appendix B).
    eliminated, mapping = compress_labels(round_elimination(problem))
    print()
    print(f"RE({problem.name}) has {len(eliminated.alphabet)} labels, "
          f"{len(eliminated.white)} white and {len(eliminated.black)} black "
          f"configurations")

    # 4. The lift operator (Definition 3.1) for a degree-2 support graph.
    mm2 = maximal_matching_problem(2)
    lifted = lift(mm2, delta=2, rank=2)
    print()
    print(f"lift alphabet (right-closed label sets): "
          f"{sorted(''.join(sorted(s)) for s in lifted.label_sets)}")

    # 5. Theorem 3.2 in action: 0-round Supported LOCAL solvability on C6
    #    reduces to existence of a lift solution, decided exactly.
    support = mark_bipartition(cycle(6))
    solution = solve_bipartite(support, lifted.to_problem())
    print()
    if solution is None:
        print("lift unsolvable on C6: maximal matching needs > 0 rounds")
        return
    print("lift solvable on C6 → maximal matching is 0-round solvable "
          "in Supported LOCAL; deriving the algorithm…")
    decoded = {edge: set_label_members(label) for edge, label in solution.items()}
    algorithm = algorithm_from_lift_solution(support, lifted, decoded)
    verified = is_correct_zero_round(algorithm, mm2)
    print(f"derived 0-round white algorithm exhaustively verified: {verified}")


if __name__ == "__main__":
    main()
