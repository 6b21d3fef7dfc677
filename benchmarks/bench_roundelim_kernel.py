"""ROUNDELIM — reference vs bitmask-kernel round elimination operators.

The acceptance claim of the ``repro.roundelim.kernel`` subsystem: on the
paper's problem families at growing Δ, the bitmask-compiled engine
computes ``round_elimination`` several times faster than the reference
string-domain implementation while producing the *identical*
``Problem`` — and at least **4×** faster on the Δ=4 matching RE step
(``Π_4(0,1)``), the step every diagram/sequence benchmark iterates.

Dual mode:

* ``pytest benchmarks/bench_roundelim_kernel.py`` — asserts the 4×
  criterion and output identity;
* ``python benchmarks/bench_roundelim_kernel.py [--smoke] [--out F]
  [--baseline F] [--tolerance 0.25]`` — measures the workload matrix,
  writes ``BENCH_roundelim.json`` (canonical schema: workload, n,
  wall-time per engine, speedup) and exits non-zero when the 4×
  criterion fails or any speedup regresses more than ``--tolerance``
  versus a checked-in baseline (speedups are compared, not absolute
  seconds, so the gate is machine-portable).
"""

from __future__ import annotations

import harness
from repro.problems import maximal_matching_problem, pi_matching, pi_ruling
from repro.roundelim import round_elimination
from repro.utils.tables import print_table

SCHEMA = "repro.bench/roundelim/v1"

#: The acceptance criterion: kernel ≥ 4× reference on Δ=4 matching RE.
CRITERION_WORKLOAD = ("matching", 4)
CRITERION_SPEEDUP = 4.0

#: (workload key, n, problem factory).  ``n`` is the family's Δ.
WORKLOADS = {
    "smoke": (
        ("matching", 3, lambda: pi_matching(3, 0, 1)),
        ("matching", 4, lambda: pi_matching(4, 0, 1)),
        ("matching", 5, lambda: pi_matching(5, 0, 1)),
        ("maximal-matching", 3, lambda: maximal_matching_problem(3)),
        ("maximal-matching", 4, lambda: maximal_matching_problem(4)),
    ),
    "full": (
        ("matching", 3, lambda: pi_matching(3, 0, 1)),
        ("matching", 4, lambda: pi_matching(4, 0, 1)),
        ("matching", 5, lambda: pi_matching(5, 0, 1)),
        ("maximal-matching", 3, lambda: maximal_matching_problem(3)),
        ("maximal-matching", 4, lambda: maximal_matching_problem(4)),
        ("ruling-set", 3, lambda: pi_ruling(3, 1, 2)),
    ),
}

#: Rows are keyed by (workload, Δ); the reference operators are the slow
#: side.
GATE = harness.SpeedupGate(
    speedup="speedup",
    key=lambda record: (record["workload"], record["n"]),
    slow_seconds=lambda record: record["reference_seconds"],
    label=lambda record: f"{record['workload']} n={record['n']}: speedup",
)


def measure(mode: str, repeats: int = 3) -> dict:
    """Run the workload matrix; returns the BENCH_roundelim payload.

    Every workload also cross-checks that both engines produce the
    identical problem — a benchmark that silently compared different
    outputs would be meaningless.
    """
    records = []
    for workload, n, factory in WORKLOADS[mode]:
        problem = factory()
        reference_seconds, reference_out = harness.best_of(
            lambda: round_elimination(problem, engine="reference"), repeats
        )
        kernel_seconds, kernel_out = harness.best_of(
            lambda: round_elimination(problem, engine="kernel"), repeats
        )
        if reference_out != kernel_out:
            raise AssertionError(
                f"engine outputs differ on {workload} n={n} — benchmark void"
            )
        records.append(
            {
                "workload": workload,
                "n": n,
                "reference_seconds": round(reference_seconds, 6),
                "kernel_seconds": round(kernel_seconds, 6),
                "speedup": round(reference_seconds / kernel_seconds, 3),
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
    }


def criterion_speedup(payload: dict) -> float:
    return harness.criterion_row(payload, GATE.key, CRITERION_WORKLOAD)["speedup"]


def criterion_failures(payload: dict) -> list[str]:
    speedup = criterion_speedup(payload)
    if speedup >= CRITERION_SPEEDUP:
        return []
    return [f"criterion: Δ=4 matching speedup {speedup:.2f}x < {CRITERION_SPEEDUP}x"]


def _print(payload: dict) -> None:
    print_table(
        ["workload", "n", "reference (s)", "kernel (s)", "speedup"],
        [
            (
                record["workload"],
                record["n"],
                f"{record['reference_seconds']:.4f}",
                f"{record['kernel_seconds']:.4f}",
                f"{record['speedup']:.2f}x",
            )
            for record in payload["workloads"]
        ],
        title="ROUNDELIM: reference vs bitmask kernel, identical outputs",
    )


# --------------------------------------------------------------------------
# pytest entry points
# --------------------------------------------------------------------------


def test_kernel_speedup_delta4_matching():
    """The tentpole performance criterion: ≥ 4× on the Δ=4 matching RE
    step, with output identity cross-checked inside ``measure``."""
    payload = measure("smoke")
    _print(payload)
    speedup = criterion_speedup(payload)
    assert speedup >= CRITERION_SPEEDUP, (
        f"kernel only {speedup:.2f}x on Δ=4 matching; criterion is "
        f"{CRITERION_SPEEDUP}x"
    )


def test_engines_identical_on_ruling_family():
    """Output identity on a non-matching family (the ruling-set Δ=3,β=1
    instance keeps this fast)."""
    problem = pi_ruling(3, 1, 1)
    assert round_elimination(problem, engine="reference") == round_elimination(
        problem, engine="kernel"
    )


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


if __name__ == "__main__":
    raise SystemExit(
        harness.gated_main(
            doc=__doc__,
            out="BENCH_roundelim.json",
            measure=measure,
            show=_print,
            failures=criterion_failures,
            gate=GATE,
        )
    )
