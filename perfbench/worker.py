"""One solve or explore workload, in a process of its own.

    python3 perfbench/worker.py --workload W --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --pin

The first two print ``ready`` once set up (imports plus one warm-up
operation), so the parent can time set-up from process start.  A run
then prints one JSON line: operations attempted and failed, operation
wall times, this process's peak RSS and, with ``--trace 1``, the
per-layer breakdown.  An untraced run also times fresh set-up-only
workers spread evenly between its operations, so its set-up samples
cover the whole run rather than its first seconds.  ``--pin`` recomputes
``pins.json``: the sha256 of every pooled operation's canonical report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

EXPLORE_LIMITS = {"max_depth": 1, "max_nodes": 4}
#: Set-up-only workers timed by an untraced run, spread between operations.
SETUP_PROBES = 8
#: A set-up-only worker must be ready and gone within this many seconds.
PROBE_TIMEOUT_S = 60.0


def start_worker(*argv: str, env: dict | None = None):
    """Start ``worker.py`` with ``argv``; returns it once it reports ready,
    with the time from process start to ready (its set-up time)."""
    started = perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=HERE.parent, env=env,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    if process.stdout.readline().strip() != "ready":
        process.kill()
        process.wait()
        raise RuntimeError(f"worker {argv} did not get ready")
    return process, perf_counter() - started


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh set-up-only worker for ``workload``."""
    process, setup_s = start_worker("--workload", workload, "--setup-only")
    try:
        process.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise
    if process.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {process.returncode}")
    return setup_s


def setup(workload: str) -> None:
    """Imports plus a warm-up operation on a tiny input."""
    if workload in workloads.SOLVE_WORKLOADS:
        from repro import api

        for solve in workloads.solve_pool(workload)[0]:
            api.solve(solve["problem"], algorithm=solve["algorithm"],
                      engine="vectorized", n=64, seed=0)
    else:
        from repro.problems.matching import pi_matching
        from repro.roundelim.explore import (
            ExplorationLimits,
            ProblemStore,
            explore,
        )

        explore([pi_matching(2, 0, 1)],
                limits=ExplorationLimits(max_depth=1, max_nodes=2),
                store=ProblemStore())


def run_op(workload: str, op) -> tuple[list[tuple[str, str]], dict]:
    """Run one operation; returns its (pin key, canonical text) outputs
    and its counts."""
    if workload == "explore-d3":
        from repro.problems.matching import pi_matching
        from repro.roundelim.explore import (
            ExplorationLimits,
            ProblemStore,
            explore,
        )

        roots = [pi_matching(*root) for root in op]
        report = explore(roots, limits=ExplorationLimits(**EXPLORE_LIMITS),
                         store=ProblemStore(), jobs=1)
        stats = report.store_stats
        counts = {
            "roundelim.explore.store.computed": stats["computed"],
            "roundelim.explore.store.memory_hits": stats["memory_hits"],
            "roundelim.explore.store.misses": stats["misses"],
        }
        return [(workloads.explore_key(op), report.canonical_json())], counts
    from repro import api

    outputs = []
    counts = {"local.vectorized.rounds": 0,
              "local.vectorized.messages_delivered": 0}
    for solve in op:
        report = api.solve(solve["problem"], algorithm=solve["algorithm"],
                           engine="vectorized", n=solve["n"], seed=solve["seed"])
        if report.valid is not True:
            raise AssertionError(f"{solve['key']}: report is not valid")
        counts["local.vectorized.rounds"] += report.rounds
        counts["local.vectorized.messages_delivered"] += report.messages_delivered
        outputs.append((solve["key"], report.canonical_json()))
    return outputs, counts


def timed_op(workload: str, op, pins: dict, tally: dict) -> None:
    """Run and time one operation, checking its outputs against their pins."""
    begin = perf_counter()
    try:
        outputs, op_counts = run_op(workload, op)
    except Exception as error:  # noqa: BLE001 - a failed op is counted
        tally["walls"].append(perf_counter() - begin)
        tally["failed"] += 1
        print(f"operation failed: {type(error).__name__}: {error}",
              file=sys.stderr)
        return
    tally["walls"].append(perf_counter() - begin)
    wrong = [key for key, text in outputs
             if hashlib.sha256(text.encode()).hexdigest() != pins.get(key)]
    if wrong:
        tally["failed"] += 1
        print(f"output differs from its pin: {', '.join(wrong)}", file=sys.stderr)
    for name, value in op_counts.items():
        tally["counts"][name] = tally["counts"].get(name, 0) + value


def new_tally() -> dict:
    return {"walls": [], "failed": 0, "counts": {}}


def keep_going(cycles: list[float], seconds: float) -> bool:
    """Start another cycle only if its median length still fits."""
    return not cycles or sum(cycles) + statistics.median(cycles) <= seconds


def run_pass(workload: str, seed: int, seconds: float, pins: dict) -> dict:
    """Operations back to back for ``seconds`` of operation time, with
    the set-up probes spread evenly between them (their time not counted)."""
    tally = new_tally()
    setups: list[float] = []
    while keep_going(tally["walls"], seconds):
        # Probe k runs once k / SETUP_PROBES of the operation time is done.
        while (len(setups) < SETUP_PROBES
               and len(setups) * seconds / SETUP_PROBES <= sum(tally["walls"])):
            setups.append(probe_setup(workload))
        op = workloads.op_at(workload, seed, len(tally["walls"]))
        timed_op(workload, op, pins, tally)
    setups += [probe_setup(workload) for _ in range(SETUP_PROBES - len(setups))]
    tally["setups"] = setups
    return tally


def traced_run(workload: str, seed: int, seconds: float, pins: dict) -> dict:
    """Each operation untraced, then again traced, for ``seconds``.

    Pairing the two runs of an operation keeps the tracing overhead
    estimate from mixing inputs or machine states.
    """
    plain, traced = new_tally(), new_tally()
    tracer = Tracer()
    pairs: list[float] = []
    while keep_going(pairs, seconds):
        begin = perf_counter()
        op = workloads.op_at(workload, seed, len(pairs))
        timed_op(workload, op, pins, plain)
        tracer.install_solve_layers()
        tracer.install_explore_layers()
        try:
            timed_op(workload, op, pins, traced)
        finally:
            tracer.restore()
        pairs.append(perf_counter() - begin)
    return {"plain": plain, "traced": traced, "trace": tracer.summary()}


def pin_all() -> None:
    pins = {}
    jobs = [(w, op) for w in workloads.SOLVE_WORKLOADS
            for op in workloads.solve_pool(w)]
    jobs += [("explore-d3", roots) for roots in workloads.explore_pool()]
    for workload, op in jobs:
        outputs, _ = run_op(workload, op)
        for key, text in outputs:
            pins[key] = hashlib.sha256(text.encode()).hexdigest()
            print(key, file=sys.stderr)
    from repro import api

    for op in workloads.service_uniques():
        # The daemon serves the direct façade's bytes (object engine).
        text = api.solve(op["problem"], algorithm=op["algorithm"],
                         n=op["n"], seed=op["seed"]).canonical_json()
        pins[op["key"]] = hashlib.sha256(text.encode()).hexdigest()
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()
    if args.pin:
        pin_all()
        return 0
    setup(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    pins = workloads.load_pins()
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, pins)
    else:
        result = run_pass(args.workload, args.seed, args.seconds, pins)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
