"""The shared half of the per-layer benches: best-of timing, the criterion
row, the speedup-regression gate against a committed baseline, the
canonical payload write, and the command line of the baseline-gated
scripts.

A gated bench (``bench_engines``, ``bench_roundelim_kernel``,
``bench_solvers``) supplies what is its own: its workloads, a
``measure(mode, repeats=…)`` that cross-checks the outputs it times, a
:class:`SpeedupGate` naming its rows' key, speedup field, slow side and
``FAIL:`` label, its criterion failures and a table; :func:`gated_main`
does the rest.  ``bench_explore`` (criterion row, payload write) and
``bench_service`` (payload write) keep their own flags.

Speedups are compared, not absolute seconds, so the gate is
machine-portable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.utils.serialization import canonical_dumps

#: A single run above this duration is measured once — repeating a
#: multi-second workload adds runtime, not precision.
HEAVY_CUTOFF_SECONDS = 2.0

#: Rows whose slower side runs faster than this are reported but
#: excluded from the baseline regression gate: millisecond-scale ratios
#: are too noisy on shared CI runners to gate on.
MIN_GATE_SECONDS = 0.05


def best_of(run: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """(fastest wall seconds, last result) over up to ``repeats`` calls of
    ``run``; stops after the first call slower than
    ``HEAVY_CUTOFF_SECONDS``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
        if best > HEAVY_CUTOFF_SECONDS:
            break
    return best, result


def criterion_row(payload: dict, key: Callable[[dict], Any], workload) -> dict:
    """The payload row whose ``key`` is the criterion ``workload``."""
    for record in payload["workloads"]:
        if key(record) == workload:
            return record
    raise AssertionError(f"criterion workload {workload!r} missing from payload")


@dataclass(frozen=True)
class SpeedupGate:
    """How the baseline gate reads a bench's rows."""

    #: The row field holding the gated speedup (absent: the row is not gated).
    speedup: str
    #: A row's identity, matched against the baseline's rows.
    key: Callable[[dict], Any]
    #: Seconds of the row's slower side, held against ``MIN_GATE_SECONDS``.
    slow_seconds: Callable[[dict], float]
    #: The text a ``FAIL:`` line puts before the measured speedup.
    label: Callable[[dict], str]

    def regressions(self, payload: dict, baseline: dict, tolerance: float) -> list[str]:
        """Regression messages for every row whose speedup dropped more
        than ``tolerance`` (fraction) below the baseline's.

        Millisecond-scale rows (slow side under ``MIN_GATE_SECONDS``) are
        skipped — their ratios are dominated by scheduler noise on shared
        runners.
        """
        expected_speedups = {
            self.key(record): record.get(self.speedup)
            for record in baseline.get("workloads", ())
        }
        problems = []
        for record in payload["workloads"]:
            expected = expected_speedups.get(self.key(record))
            measured = record.get(self.speedup)
            if expected is None or measured is None:
                continue
            if self.slow_seconds(record) < MIN_GATE_SECONDS:
                continue
            floor = expected * (1.0 - tolerance)
            if measured < floor:
                problems.append(
                    f"{self.label(record)} {measured:.2f}x < {floor:.2f}x "
                    f"(baseline {expected:.2f}x - {tolerance:.0%})"
                )
        return problems


def write_payload(payload: dict, path: str) -> None:
    """Write ``payload`` as canonical JSON and say so on stderr."""
    Path(path).write_text(canonical_dumps(payload, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def gated_main(
    *,
    doc: str,
    out: str,
    measure: Callable[..., dict],
    show: Callable[[dict], None],
    failures: Callable[[dict], list[str]],
    gate: SpeedupGate,
    argv: list[str] | None = None,
) -> int:
    """The command line of a baseline-gated bench: measure, print the
    table, write the payload, then print a ``FAIL:`` line per criterion
    failure and baseline regression; exit code 1 if there was any."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="fast workload subset (the CI gate)"
    )
    parser.add_argument("--out", default=out, help="result JSON path")
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
        "--repeats", type=int, default=3, help="best-of repeats per timed side"
    )
    args = parser.parse_args(argv)

    payload = measure("smoke" if args.smoke else "full", repeats=args.repeats)
    show(payload)
    write_payload(payload, args.out)

    problems = failures(payload)
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        problems.extend(gate.regressions(payload, baseline, args.tolerance))
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0
