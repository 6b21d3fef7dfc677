"""EXPLORE — the content-addressed store's dedup speedup on repeated
expansion.

The acceptance claim of ``repro.roundelim.explore``: re-running an
exploration against a warm :class:`ProblemStore` answers every operator
step from the memo tiers and is at least **3×** faster than the cold
run, while producing the byte-identical report.  (Sequence
re-verification is disabled in the measured policy: it deliberately
recomputes RE outside the store — it is the *auditor* of the cache, so
benchmarking it warm would measure the auditor, not the cache.)

Dual mode:

* ``pytest benchmarks/bench_explore.py`` — asserts the 3× criterion,
  cold/warm report identity and the jobs-determinism contract;
* ``python benchmarks/bench_explore.py [--smoke] [--out F] [--jobs N]
  [--determinism]`` — measures the workload matrix, writes
  ``BENCH_explore.json`` (schema: workload, cold/warm wall seconds,
  speedup, visited/expanded counts) and exits non-zero when the 3×
  criterion fails; ``--determinism`` additionally byte-compares a
  serial and a ``--jobs N`` cold run of every workload.
"""

from __future__ import annotations

import argparse
import sys
import time

import harness
from repro.problems import pi_matching, pi_ruling
from repro.roundelim.explore import (
    ExplorationLimits,
    ExplorationPolicy,
    ProblemStore,
    explore,
    reports_identical,
)
from repro.utils.tables import print_table

SCHEMA = "repro.bench/explore/v1"

#: The acceptance criterion: warm store ≥ 3× faster on the Δ=4 matching
#: expansion (the workload whose RE steps are heavy enough to time).
CRITERION_WORKLOAD = "matching-d4"
CRITERION_SPEEDUP = 3.0

#: Measured policy: expansion + classification + linking, no sequence
#: re-verification (see module docstring).
_POLICY = ExplorationPolicy(verify_sequences=False)


def _workloads(mode: str):
    matrix = {
        "matching-d3": (
            [pi_matching(3, x, 1) for x in (0, 1, 2)],
            ExplorationLimits(max_depth=1, max_nodes=8),
        ),
        "matching-d4": (
            [pi_matching(4, 0, 1), pi_matching(4, 1, 1)],
            ExplorationLimits(max_depth=1, max_nodes=4),
        ),
        "ruling-d3": (
            [pi_ruling(3, 1, 2)],
            ExplorationLimits(max_depth=1, max_nodes=2),
        ),
    }
    if mode == "smoke":
        return {key: matrix[key] for key in ("matching-d3", "matching-d4")}
    return matrix


def measure(mode: str, jobs: int = 1) -> dict:
    """Cold-then-warm runs per workload; returns the BENCH payload.

    The warm run reuses the cold run's store, so every operator step is
    a memo hit; the two reports must be byte-identical or the benchmark
    is void.
    """
    records = []
    for name, (roots, limits) in _workloads(mode).items():
        store = ProblemStore()
        start = time.perf_counter()
        cold = explore(roots, policy=_POLICY, limits=limits, store=store, jobs=jobs)
        cold_seconds = time.perf_counter() - start
        computed = store.stats.computed
        start = time.perf_counter()
        warm = explore(roots, policy=_POLICY, limits=limits, store=store, jobs=jobs)
        warm_seconds = time.perf_counter() - start
        if not reports_identical(cold, warm):
            raise AssertionError(
                f"cold and warm reports differ on {name} — benchmark void"
            )
        if store.stats.computed != computed:
            raise AssertionError(
                f"warm run recomputed steps on {name} — store is not memoizing"
            )
        records.append(
            {
                "workload": name,
                "roots": len(roots),
                "visited": cold.visited,
                "expanded": cold.expanded,
                "computed_steps": computed,
                "cold_seconds": round(cold_seconds, 6),
                "warm_seconds": round(warm_seconds, 6),
                "speedup": round(cold_seconds / warm_seconds, 3),
            }
        )
    return {
        "schema": SCHEMA,
        "mode": mode,
        "criterion": {
            "workload": CRITERION_WORKLOAD,
            "min_speedup": CRITERION_SPEEDUP,
        },
        "workloads": records,
    }


def criterion_speedup(payload: dict) -> float:
    return harness.criterion_row(
        payload, lambda record: record["workload"], CRITERION_WORKLOAD
    )["speedup"]


def check_determinism(jobs: int) -> None:
    """Serial vs ``jobs`` cold runs must be byte-identical per workload."""
    for name, (roots, limits) in _workloads("smoke").items():
        serial = explore(roots, policy=_POLICY, limits=limits, jobs=1)
        parallel = explore(roots, policy=_POLICY, limits=limits, jobs=jobs)
        if serial.canonical_json() != parallel.canonical_json():
            raise AssertionError(
                f"jobs={jobs} report differs from serial on {name}"
            )


# ---------------------------------------------------------------------------
# pytest mode


def test_warm_store_speedup_at_least_3x():
    payload = measure("smoke")
    assert criterion_speedup(payload) >= CRITERION_SPEEDUP, payload["workloads"]


def test_jobs_determinism():
    check_determinism(jobs=4)


# ---------------------------------------------------------------------------
# CLI mode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="measure the smoke matrix only")
    parser.add_argument("--out", default=None,
                        help="write BENCH_explore.json here")
    parser.add_argument("--jobs", type=int, default=1,
                        help="explorer worker processes (default 1)")
    parser.add_argument("--determinism", action="store_true",
                        help="also byte-compare serial vs --jobs cold runs")
    args = parser.parse_args(argv)

    if args.determinism:
        check_determinism(max(args.jobs, 4))
        print("jobs-determinism: serial and parallel reports byte-identical",
              file=sys.stderr)

    payload = measure("smoke" if args.smoke else "full", jobs=args.jobs)
    if args.out:
        harness.write_payload(payload, args.out)
    print_table(
        ["workload", "visited", "cold s", "warm s", "speedup"],
        [
            (r["workload"], r["visited"], r["cold_seconds"], r["warm_seconds"],
             f"{r['speedup']:.2f}x")
            for r in payload["workloads"]
        ],
        title=f"explore store speedup ({payload['mode']})",
    )
    speedup = criterion_speedup(payload)
    if speedup < CRITERION_SPEEDUP:
        print(
            f"FAIL: {CRITERION_WORKLOAD} warm speedup {speedup:.2f}x < "
            f"{CRITERION_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(f"ok: {CRITERION_WORKLOAD} warm speedup {speedup:.2f}x", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
