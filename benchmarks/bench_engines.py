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

import harness
from repro import api
from repro.api.engines import resolve_engine
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

#: Rows are keyed by size; the object engine is the slow side, and the
#: vectorized-only sizes carry no speedup, so the gate skips them.
GATE = harness.SpeedupGate(
    speedup=SPEEDUP_KEY,
    key=lambda record: record["n"],
    slow_seconds=lambda record: record["seconds"]["object"],
    label=lambda record: f"n={record['n']} {SPEEDUP_KEY}:",
)


def _prepared(n: int):
    """Shared network + program, so the measurement isolates engine time."""
    spec = api.ProblemSpec.parse(f"matching:delta={DELTA},x=0,y=1")
    algorithm = api.resolve_algorithm("matching:proposal")
    network = algorithm.default_network(spec, n=n, seed=0)
    program = algorithm.program(network, spec, {})
    return network, program


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
            seconds[name], result = harness.best_of(
                lambda: engine.run(network, program, seed=0), repeats
            )
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


if __name__ == "__main__":
    raise SystemExit(
        harness.gated_main(
            doc=__doc__,
            out="BENCH_engines.json",
            measure=measure,
            show=_print,
            failures=criterion_failures,
            gate=GATE,
        )
    )
