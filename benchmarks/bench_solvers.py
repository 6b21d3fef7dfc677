"""SOLVERS — CSP backtracking vs CDCL SAT backend on zero-round gates.

The acceptance claim of the ``repro.solvers.sat`` subsystem: on the
zero-round solvability gate (Theorem 3.2 — does ``lift(Π)`` admit a
bipartite solution on the smallest biregular support?) for the maximal
matching family at growing Δ, the SAT backend answers the *identical*
verdict at least **3×** faster than the CSP backtracker at Δ=4 — and at
Δ=5 the CSP side cannot finish within a placement budget the SAT side
beats by orders of magnitude (measured: CSP needs ~1.16M placements /
minutes of wall time; SAT answers in well under a second).

Two extra payload blocks document the subsystem's qualitative claims:

* ``frontier`` — the next size up (Δ=5): CSP is run under a reduced
  placement budget and must exhaust it (``SolverLimitError``) while SAT
  completes outright.
* ``symmetry_breaking`` — lex-leader constraints from the label
  automorphism group measurably shrink the *enumerated* state space: on
  an S3-symmetric problem the raw CDCL model count drops ~6× while
  orbit re-expansion recovers the identical solution set.

Dual mode:

* ``pytest benchmarks/bench_solvers.py`` — asserts the 3× criterion,
  verdict identity, frontier exhaustion, and the symmetry reduction;
* ``python benchmarks/bench_solvers.py [--smoke] [--out F]
  [--baseline F] [--tolerance 0.25]`` — measures the workload matrix,
  writes ``BENCH_solvers.json`` (canonical schema ``repro.bench/
  solvers/v1``) and exits non-zero when the 3× criterion fails or any
  speedup regresses more than ``--tolerance`` versus a checked-in
  baseline (speedups are compared, not absolute seconds, so the gate is
  machine-portable).
"""

from __future__ import annotations

import time

import harness
import networkx as nx
from repro.core.lift import lift
from repro.core.zero_round import zero_round_solvable
from repro.formalism.problems import problem_from_lines
from repro.graphs import cycle, mark_bipartition
from repro.problems import maximal_matching_problem
from repro.solvers import SolverBudget, make_solver
from repro.solvers.csp import CSP_BUDGET_UNIT
from repro.solvers.sat import SatLabelingSolver
from repro.solvers.sat.solver import CdclSolver
from repro.utils import SolverLimitError
from repro.utils.tables import print_table

SCHEMA = "repro.bench/solvers/v1"

#: The acceptance criterion: SAT ≥ 3× CSP on the Δ=4 maximal matching
#: zero-round gate (measured headroom is ~20×).
CRITERION_WORKLOAD = ("maximal-matching", 4)
CRITERION_SPEEDUP = 3.0

#: (workload key, Δ, problem factory).  Every workload is the
#: zero-round gate of the factory's problem on the smallest biregular
#: support K_{Δ,Δ}.
WORKLOADS = {
    "smoke": (
        ("maximal-matching", 3, lambda: maximal_matching_problem(3)),
        ("maximal-matching", 4, lambda: maximal_matching_problem(4)),
    ),
    "full": (
        ("maximal-matching", 2, lambda: maximal_matching_problem(2)),
        ("maximal-matching", 3, lambda: maximal_matching_problem(3)),
        ("maximal-matching", 4, lambda: maximal_matching_problem(4)),
    ),
}

#: The frontier size: one step beyond the criterion workload.  Measured
#: offline, CSP completes this gate only after ~1.16M placements
#: (minutes of wall time; Δ=6 exceeds the 5M default budget entirely),
#: so the benchmark demonstrates infeasibility via a reduced budget CSP
#: must exhaust while SAT finishes outright.
FRONTIER_DELTA = 5
FRONTIER_CSP_BUDGET = 50_000

#: Rows are keyed by (workload, Δ); the CSP backtracker is the slow side.
GATE = harness.SpeedupGate(
    speedup="speedup",
    key=lambda record: (record["workload"], record["n"]),
    slow_seconds=lambda record: record["csp_seconds"],
    label=lambda record: f"{record['workload']} Δ={record['n']}: speedup",
)


def _smallest_biregular_support(white_arity: int, black_arity: int) -> nx.Graph:
    """K_{d_B, d_W} with colors: white degree d_W, black degree d_B."""
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


def _gate_instance(delta: int, factory=maximal_matching_problem):
    problem = factory(delta)
    support = _smallest_biregular_support(problem.white_arity, problem.black_arity)
    return support, problem


def _symmetric_problem():
    """An S3-label-symmetric problem: white nodes see two equal labels,
    black nodes two distinct ones.  All six label permutations are
    automorphisms, so lex-leader breaking has a full group to bite on."""
    labels = "ABC"
    white = [f"{label} {label}" for label in labels]
    black = [
        f"{first} {second}"
        for index, first in enumerate(labels)
        for second in labels[index + 1 :]
    ]
    return problem_from_lines(white, black, name="sym3")


def _raw_model_count(solver: SatLabelingSolver) -> tuple[int, dict]:
    """Enumerate raw CDCL models (pre orbit expansion) of the solver's
    formula via blocking clauses; returns (count, search stats)."""
    cdcl = CdclSolver(solver.encoding.formula, seed=0)
    count = 0
    while cdcl.solve():
        count += 1
        cdcl.add_clause(solver.encoding.blocking_clause(cdcl.model()))
    return count, {
        "decisions": cdcl.decisions,
        "conflicts": cdcl.conflicts,
    }


def measure_symmetry_breaking(cycle_length: int = 12) -> dict:
    """Enumerate the S3-symmetric problem on a marked cycle with and
    without lex-leader breaking.  The orbit-expanded solution sets must
    be identical; the raw model counts must not be."""
    graph = mark_bipartition(cycle(cycle_length))
    problem = _symmetric_problem()
    record = {
        "problem": problem.name,
        "cycle_length": cycle_length,
        "automorphism_group_order": len(
            SatLabelingSolver(graph, problem).encoding.automorphisms
        ),
    }
    expanded = {}
    for broken in (True, False):
        solver = SatLabelingSolver(graph, problem, symmetry_breaking=broken)
        count, stats = _raw_model_count(solver)
        key = "broken" if broken else "unbroken"
        record[key] = {"raw_models": count, **stats}
        expanded[key] = {
            tuple(sorted((tuple(sorted(map(str, edge))), label)
                         for edge, label in labeling.items()))
            for labeling in solver.iter_solutions()
        }
    if expanded["broken"] != expanded["unbroken"]:
        raise AssertionError(
            "orbit re-expansion lost solutions under symmetry breaking — "
            "benchmark void"
        )
    record["expanded_solutions"] = len(expanded["broken"])
    record["reduction"] = round(
        record["unbroken"]["raw_models"] / record["broken"]["raw_models"], 3
    )
    return record


def measure_frontier() -> dict:
    """The Δ=5 gate: CSP under a reduced placement budget must exhaust;
    SAT must answer outright.  (The full CSP solve needs ~1.16M
    placements; Δ=6 does not finish within the 5M default budget.)"""
    support, problem = _gate_instance(FRONTIER_DELTA)
    budget = SolverBudget(FRONTIER_CSP_BUDGET, unit=CSP_BUDGET_UNIT)
    start = time.perf_counter()
    csp_finished = True
    try:
        make_solver(support, problem_gate_lift(problem), backend="csp",
                    budget=budget).solve()
    except SolverLimitError:
        csp_finished = False
    csp_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sat_verdict = zero_round_solvable(support, problem, backend="sat")
    sat_seconds = time.perf_counter() - start
    return {
        "workload": "maximal-matching",
        "n": FRONTIER_DELTA,
        "csp_budget": FRONTIER_CSP_BUDGET,
        "csp_budget_unit": CSP_BUDGET_UNIT,
        "csp_finished": csp_finished,
        "csp_probe_seconds": round(csp_seconds, 6),
        "sat_verdict": sat_verdict,
        "sat_seconds": round(sat_seconds, 6),
    }


def problem_gate_lift(problem):
    """The exact instance ``zero_round_solvable`` checks: the rank/Δ
    lift of the problem, as a plain edge-labeling problem."""
    return lift(problem, problem.white_arity, problem.black_arity).to_problem()


def measure(mode: str, repeats: int = 3) -> dict:
    """Run the workload matrix; returns the BENCH_solvers payload.

    Every workload also cross-checks that both backends return the
    identical gate verdict — a benchmark that silently compared
    different answers would be meaningless.
    """
    records = []
    for workload, delta, factory in WORKLOADS[mode]:
        support, problem = _gate_instance(delta, lambda d=delta: factory())
        csp_seconds, csp_verdict = harness.best_of(
            lambda: zero_round_solvable(support, problem, backend="csp"), repeats
        )
        sat_seconds, sat_verdict = harness.best_of(
            lambda: zero_round_solvable(support, problem, backend="sat"), repeats
        )
        if csp_verdict != sat_verdict:
            raise AssertionError(
                f"backend verdicts differ on {workload} Δ={delta} — "
                "benchmark void"
            )
        records.append(
            {
                "workload": workload,
                "n": delta,
                "verdict": csp_verdict,
                "csp_seconds": round(csp_seconds, 6),
                "sat_seconds": round(sat_seconds, 6),
                "speedup": round(csp_seconds / sat_seconds, 3),
            }
        )
    return {
        "schema": SCHEMA,
        "mode": mode,
        "criterion": {
            "workload": CRITERION_WORKLOAD[0],
            "n": CRITERION_WORKLOAD[1],
            "min_speedup": CRITERION_SPEEDUP,
        },
        "workloads": records,
        "frontier": measure_frontier(),
        "symmetry_breaking": measure_symmetry_breaking(),
    }


def gate_failures(payload: dict) -> list[str]:
    """Criterion + qualitative-block failures (baseline gating is
    separate — it needs the baseline file)."""
    failures = []
    speedup = harness.criterion_row(payload, GATE.key, CRITERION_WORKLOAD)["speedup"]
    if speedup < CRITERION_SPEEDUP:
        failures.append(
            f"criterion: Δ=4 maximal-matching speedup {speedup:.2f}x < "
            f"{CRITERION_SPEEDUP}x"
        )
    frontier = payload["frontier"]
    if frontier["csp_finished"]:
        failures.append(
            f"frontier: CSP finished the Δ={FRONTIER_DELTA} gate within "
            f"{FRONTIER_CSP_BUDGET} placements — frontier no longer frontier"
        )
    if not frontier["sat_verdict"]:
        failures.append(
            f"frontier: SAT verdict flipped on the Δ={FRONTIER_DELTA} gate"
        )
    symmetry = payload["symmetry_breaking"]
    if symmetry["broken"]["raw_models"] >= symmetry["unbroken"]["raw_models"]:
        failures.append(
            "symmetry breaking did not reduce the enumerated model count"
        )
    return failures


def _print(payload: dict) -> None:
    print_table(
        ["workload", "Δ", "verdict", "csp (s)", "sat (s)", "speedup"],
        [
            (
                record["workload"],
                record["n"],
                str(record["verdict"]),
                f"{record['csp_seconds']:.4f}",
                f"{record['sat_seconds']:.4f}",
                f"{record['speedup']:.2f}x",
            )
            for record in payload["workloads"]
        ],
        title="SOLVERS: zero-round gate, CSP backtracker vs CDCL SAT",
    )
    frontier = payload["frontier"]
    print(
        f"frontier Δ={frontier['n']}: CSP "
        + (
            "finished (!)"
            if frontier["csp_finished"]
            else f"exhausted {frontier['csp_budget']} {frontier['csp_budget_unit']} "
            f"in {frontier['csp_probe_seconds']:.2f}s"
        )
        + f"; SAT answered {frontier['sat_verdict']} in "
        f"{frontier['sat_seconds']:.4f}s"
    )
    symmetry = payload["symmetry_breaking"]
    print(
        f"symmetry breaking ({symmetry['problem']}, "
        f"|Aut|={symmetry['automorphism_group_order']}): raw models "
        f"{symmetry['unbroken']['raw_models']} -> "
        f"{symmetry['broken']['raw_models']} "
        f"({symmetry['reduction']:.1f}x fewer), same "
        f"{symmetry['expanded_solutions']} expanded solutions"
    )


# --------------------------------------------------------------------------
# pytest entry points
# --------------------------------------------------------------------------


def test_sat_speedup_delta4_gate():
    """The acceptance criterion: ≥ 3× on the Δ=4 maximal matching
    zero-round gate, with verdict identity cross-checked inside
    ``measure``, CSP budget exhaustion at the Δ=5 frontier, and the
    symmetry-breaking model-count reduction."""
    payload = measure("smoke")
    _print(payload)
    failures = gate_failures(payload)
    assert not failures, "; ".join(failures)


def test_symmetry_breaking_reduces_enumerated_states():
    """Standalone check of the enumeration claim on a short cycle."""
    record = measure_symmetry_breaking(cycle_length=8)
    assert record["broken"]["raw_models"] < record["unbroken"]["raw_models"]
    assert record["reduction"] > 1.0


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


if __name__ == "__main__":
    raise SystemExit(
        harness.gated_main(
            doc=__doc__,
            out="BENCH_solvers.json",
            measure=measure,
            show=_print,
            failures=gate_failures,
            gate=GATE,
        )
    )
