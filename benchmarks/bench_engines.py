"""ENGINES — object vs vectorized backends on the matching workload.

The acceptance claims of the ``repro.api`` engine subsystem, measured on
the matching suite's workload (the proposal algorithm on 2-colored double
covers):

* the numpy vectorized engine (production) is ≥ **15×** faster than the
  object engine (the reference oracle) at the largest size both run
  (n = 10^5 in full mode, 2·10^4 in smoke mode), while producing
  byte-identical reports;
* the vectorized engine sustains a scaling curve through **n = 10^7**
  (recorded, vectorized-only — the per-node engine is too slow there).

Dual mode:

* ``pytest benchmarks/bench_engines.py`` — asserts the speedup criterion
  on the smoke matrix plus end-to-end byte identity;
* ``python benchmarks/bench_engines.py [--smoke] [--out F] [--baseline F]
  [--tolerance 0.25]`` — measures the size × engine matrix, writes
  ``BENCH_engines.json`` (canonical schema: n, wall-time per engine,
  speedup) and exits non-zero when the criterion fails or the speedup
  regresses more than ``--tolerance`` versus a checked-in baseline
  (speedups are compared, not absolute seconds, so the gate is
  machine-portable).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import api
from repro.api.engines import resolve_engine
from repro.utils.serialization import canonical_dumps
from repro.utils.tables import print_table

SCHEMA = "repro.bench/engines/v1"

DELTA = 4

#: The criterion: vectorized ≥ 15× object at the largest size both
#: engines run (the last workload row naming both).
CRITERION_SPEEDUP = 15.0

#: The gated speedup: object seconds / vectorized seconds.
SPEEDUP_KEY = "speedup_vectorized_vs_object"

#: (n, engines to time at that size).  Sizes where an engine is absent are
#: deliberate: the per-node engine at n = 10^6 would take minutes per run —
#: that row records the vectorized scaling point, not a comparison.
WORKLOADS: dict[str, tuple[tuple[int, tuple[str, ...]], ...]] = {
    "smoke": (
        (2_000, ("object", "vectorized")),
        (20_000, ("object", "vectorized")),
    ),
    "full": (
        (2_000, ("object", "vectorized")),
        (10_000, ("object", "vectorized")),
        (100_000, ("object", "vectorized")),
        (1_000_000, ("vectorized",)),
        (10_000_000, ("vectorized",)),
    ),
}

#: A single run above this duration is measured once — repeating a
#: multi-second workload adds runtime, not precision.
HEAVY_CUTOFF_SECONDS = 2.0

#: Speedups whose slower side runs faster than this are reported but
#: excluded from the baseline regression gate: millisecond-scale ratios
#: are too noisy on shared CI runners to gate on.
MIN_GATE_SECONDS = 0.05


def _prepared(n: int):
    """Shared network + program, so the measurement isolates engine time."""
    spec = api.ProblemSpec.parse(f"matching:delta={DELTA},x=0,y=1")
    algorithm = api.resolve_algorithm("matching:proposal")
    network = algorithm.default_network(spec, n=n, seed=0)
    program = algorithm.program(network, spec, {})
    return network, program


def _best_of(engine, network, program, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = engine.run(network, program, seed=0)
        best = min(best, time.perf_counter() - start)
        if best > HEAVY_CUTOFF_SECONDS:
            break
    return best, result


def measure(mode: str, repeats: int = 3) -> dict:
    """Run the size × engine matrix; returns the BENCH_engines payload.

    Every size cross-checks that all engines timed there produce the
    identical outputs and round count — a benchmark that silently
    compared different results would be meaningless.
    """
    records = []
    for n, names in WORKLOADS[mode]:
        network, program = _prepared(n)
        seconds: dict[str, float] = {}
        reference = None
        for name in names:
            engine = resolve_engine(name)
            engine.run(network, program, seed=0)  # warm: compile CSR caches
            seconds[name], result = _best_of(engine, network, program, repeats)
            if reference is None:
                reference = result
            elif (
                result.outputs != reference.outputs
                or result.rounds != reference.rounds
            ):
                raise AssertionError(
                    f"engine outputs differ at n={n} — benchmark void"
                )
        record = {
            "n": n,
            "rounds": reference.rounds,
            "seconds": {
                name: round(value, 6) for name, value in seconds.items()
            },
        }
        if len(seconds) == 2:
            record[SPEEDUP_KEY] = round(
                seconds["object"] / seconds["vectorized"], 3
            )
        records.append(record)
    return {
        "schema": SCHEMA,
        "mode": mode,
        "criteria": {SPEEDUP_KEY: CRITERION_SPEEDUP},
        "workloads": records,
    }


def criterion_speedup(payload: dict) -> float:
    """The gated speedup, at the largest size timing both engines (every
    mode has one)."""
    return [
        record[SPEEDUP_KEY]
        for record in payload["workloads"]
        if SPEEDUP_KEY in record
    ][-1]


def criterion_failures(payload: dict) -> list[str]:
    value = criterion_speedup(payload)
    if value >= CRITERION_SPEEDUP:
        return []
    return [
        f"criterion: vectorized only {value:.2f}x vs object; "
        f"criterion is {CRITERION_SPEEDUP}x"
    ]


def compare_with_baseline(
    payload: dict, baseline: dict, tolerance: float
) -> list[str]:
    """Regression messages for every speedup that dropped more than
    ``tolerance`` (fraction) below the baseline's.

    Millisecond-scale rows (the object engine under ``MIN_GATE_SECONDS``)
    are skipped — their ratios are dominated by scheduler noise on shared
    runners.
    """
    baseline_records = {
        record["n"]: record for record in baseline.get("workloads", ())
    }
    problems = []
    for record in payload["workloads"]:
        expected = baseline_records.get(record["n"], {}).get(SPEEDUP_KEY)
        measured = record.get(SPEEDUP_KEY)
        if expected is None or measured is None:
            continue
        if record["seconds"]["object"] < MIN_GATE_SECONDS:
            continue
        floor = expected * (1.0 - tolerance)
        if measured < floor:
            problems.append(
                f"n={record['n']} {SPEEDUP_KEY}: {measured:.2f}x < "
                f"{floor:.2f}x (baseline {expected:.2f}x - {tolerance:.0%})"
            )
    return problems


def _print(payload: dict) -> None:
    def cell(record, name):
        value = record["seconds"].get(name)
        return "-" if value is None else f"{value:.4f}"

    print_table(
        ["n", "object (s)", "vectorized (s)", "vectorized x"],
        [
            (
                record["n"],
                cell(record, "object"),
                cell(record, "vectorized"),
                f"{record[SPEEDUP_KEY]:.2f}x" if SPEEDUP_KEY in record else "-",
            )
            for record in payload["workloads"]
        ],
        title="ENGINES: matching workload, identical outputs per size",
    )


# --------------------------------------------------------------------------
# pytest entry points
# --------------------------------------------------------------------------


def test_engine_speedup_criterion():
    """The performance criterion on the smoke matrix, with output identity
    cross-checked inside ``measure``."""
    payload = measure("smoke")
    _print(payload)
    assert criterion_failures(payload) == []


def test_engines_byte_identical_end_to_end():
    """Speed must not change observables: full solve() reports at n=2000
    agree byte-for-byte on canonical JSON across every registered
    engine."""
    reports = {
        engine: api.solve(
            f"matching:delta={DELTA},x=0,y=1",
            algorithm="matching:proposal",
            engine=engine,
            seed=0,
            n=2000,
        )
        for engine in api.available_engines()
    }
    reference = reports["object"]
    assert reference.valid is True
    for report in reports.values():
        assert report.canonical_json() == reference.canonical_json()


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="fast workload subset (the CI gate)"
    )
    parser.add_argument(
        "--out", default="BENCH_engines.json", help="result JSON path"
    )
    parser.add_argument(
        "--baseline", default=None, help="baseline JSON to gate regressions against"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional speedup regression vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of repeats per engine"
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    payload = measure(mode, repeats=args.repeats)
    _print(payload)
    Path(args.out).write_text(canonical_dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)

    failures = criterion_failures(payload)
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        failures.extend(compare_with_baseline(payload, baseline, args.tolerance))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
