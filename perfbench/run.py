"""End-to-end benchmark of the solve, daemon and round-elimination paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workloads and the metrics (names,
units, bounds) are declared in ``BENCHMARK.json``; ``perfbench/README.md``
says what each one measures.  Each workload runs in processes of its own:
solves and explorations in ``worker.py``, the daemon as
``python -m repro.service serve``.  Set-up is timed several times per run
(fresh processes, spread over the run) and reported as the median.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs every operation twice, untraced and then with every
layer's public functions wrapped (``tracing.py``); the daemon serves one
untraced pass and one traced pass of the same requests.  It reports the
per-layer self times per operation, the unattributed rest, and the
tracing overhead (traced against untraced time); a layer the workload
must reach that reads 0 is an error.  Details go to stderr; the last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import service_load  # noqa: E402
import workloads  # noqa: E402
from worker import SETUP_PROBES, start_worker  # noqa: E402

#: A child must answer within this many seconds past the measured time.
CHILD_GRACE_S = 120.0

#: Layers whose call counts are reported, by metric name.
CALL_COUNTS = {
    "formalism.relaxations.witness_calls": "formalism.relaxations.witness_s",
    "roundelim.kernel.apply_R_calls": "roundelim.kernel.apply_R_s",
    "formalism.normalize.normal_form_calls": "formalism.normalize.normal_form_s",
}
#: The daemon's request-path span: it bounds the unattributed rest and is
#: not a layer of its own.
SUBMIT_LAYER = "service.server.submit_s"

_SOLVE_PATH = (
    "api.networks.build_s", "algorithms.program_s", "algorithms.finalize_s",
    "checkers.check_s", "utils.serialization.dumps_s",
    "utils.serialization.bytes",
)
_VECTORIZED = (
    "local.vectorized.compile_s", "local.vectorized.run_s",
    "local.vectorized.rounds", "local.vectorized.messages_delivered",
)
#: Per-layer metrics a traced run of each workload must find non-zero.  A
#: zero there means a wrapper missed its call site; the other declared
#: layers are ones the workload does not reach, and read 0.
REACHED = {
    "solve-matching": _SOLVE_PATH + _VECTORIZED,
    "solve-mis": _SOLVE_PATH + _VECTORIZED,
    "service-mixed": _SOLVE_PATH + (
        "local.simulator.run_s", "service.protocol.canonicalize_s",
        "service.cache.lookup_s", "service.httpd.transport_ms",
        "service.cache.record_s", "service.worker.compute_s",
        "service.cache.hit_rate", "service.server.solves_computed",
        "service.client.hit_p50_ms", "service.client.hit_p95_ms",
        "service.client.miss_p50_ms",
    ),
    "explore-d3": (
        "formalism.relaxations.witness_s", "formalism.relaxations.witness_calls",
        "roundelim.kernel.apply_R_s", "roundelim.kernel.apply_R_calls",
        "roundelim.sequences.verify_s", "formalism.normalize.normal_form_s",
        "formalism.normalize.normal_form_calls", "roundelim.explore.classify_s",
        "roundelim.explore.store.computed", "roundelim.explore.store.memory_hits",
        "roundelim.explore.store.misses", "utils.serialization.dumps_s",
    ),
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer of the program)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))]


def per_op(trace: dict, self_s: dict, ops: int) -> dict:
    """Per-operation layer self times (``self_s``), call counts and bytes
    of a tracer summary."""
    values = {layer: seconds / ops for layer, seconds in self_s.items()}
    for name, layer in CALL_COUNTS.items():
        values[name] = trace["calls"].get(layer, 0) / ops
    values["utils.serialization.bytes"] = trace["bytes"] / ops
    return values


# -- solve and explore workloads -----------------------------------------


def finish(process: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker; the rest of its stdout, or BenchError."""
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError("worker did not finish in time") from None
    if process.returncode != 0:
        raise BenchError(f"worker exited with {process.returncode}")
    return out


def run_in_worker(args, tmp: Path) -> dict:
    process, setup_s = start_worker(
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        env=service_load.child_env(tmp),
    )
    out = finish(process, args.seconds + CHILD_GRACE_S)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        walls = result["walls"]
        return {
            "attempted": len(walls),
            "failed": result["failed"],
            "metrics": {
                "setup_s": statistics.median(result["setups"] + [setup_s]),
                "peak_rss_mb": result["peak_rss_mb"],
                "op_p50_ms": statistics.median(walls) * 1e3,
                "ops_per_s": len(walls) / sum(walls),
            },
        }
    plain, traced, trace = result["plain"], result["traced"], result["trace"]
    ops = len(traced["walls"])
    values = per_op(trace, trace["self_s"], ops)
    for name, total in traced["counts"].items():
        values[name] = total / ops
    values["unattributed_s"] = (
        sum(traced["walls"]) - sum(trace["self_s"].values())
    ) / ops
    values["trace.overhead_pct"] = 100 * (
        sum(traced["walls"]) / sum(plain["walls"]) - 1
    )
    values["trace.ops"] = ops
    return {
        "attempted": len(plain["walls"]) + ops,
        "failed": plain["failed"] + traced["failed"],
        "metrics": values,
        "op_s": sum(traced["walls"]) / ops,
        "extra_s": {},
    }


# -- the service workload ----------------------------------------------


def probe_daemon(workdir: Path) -> float:
    """Set-up time of a fresh daemon, stopped once it has answered."""
    daemon = service_load.Daemon(workdir)
    daemon.stop()
    return daemon.setup_s


def run_service(args, tmp: Path) -> dict:
    pins = workloads.load_pins()
    warm, reads, writes = workloads.service_plan(args.seed)
    if not args.trace:
        # The timed load runs in SETUP_PROBES segments, a fresh daemon's
        # set-up timed before each, so set-up samples span the run.
        daemon = service_load.Daemon(tmp / "main")
        setups, loads = [daemon.setup_s], []
        try:
            failed = service_load.warm_up(daemon, warm, pins)
            for index in range(SETUP_PROBES):
                setups.append(probe_daemon(tmp / f"probe{index}"))
                loads.append(service_load.closed_loop(
                    daemon, reads, writes, pins,
                    seconds=args.seconds / SETUP_PROBES,
                ))
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        load = {
            "samples": [sample for part in loads for sample in part["samples"]],
            "failed": failed + sum(part["failed"] for part in loads),
            "wall": sum(part["wall"] for part in loads),
        }
        latencies = [sample[0] for sample in load["samples"]]
        report_service_latencies(load)
        return {
            "attempted": len(warm) + len(latencies),
            "failed": load["failed"],
            "metrics": {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": rss,
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "ops_per_s": len(latencies) / load["wall"],
            },
        }

    daemon = service_load.Daemon(tmp / "plain")
    try:
        failed = service_load.warm_up(daemon, warm, pins)
        plain = service_load.closed_loop(
            daemon, reads, writes, pins, seconds=args.seconds / 2
        )
    finally:
        daemon.stop()
    counts = {"read": 0, "write": 0}
    for _, _, client in plain["samples"]:
        counts[client] += 1
    # The traced daemon serves the same requests as the untraced one.
    warm, reads, writes = workloads.service_plan(args.seed)
    spans_out = tmp / "spans.json"
    daemon = service_load.Daemon(tmp / "traced", spans_out=spans_out)
    try:
        failed += service_load.warm_up(daemon, warm, pins)
        traced = service_load.closed_loop(
            daemon, reads, writes, pins, counts=counts
        )
        status = daemon.status()
    finally:
        daemon.stop()
    trace = json.loads(spans_out.read_text())
    # Per timed request; the warm requests' spans are spread over them.
    ops = len(traced["samples"])
    layers = dict(trace["self_s"])
    layers.pop(SUBMIT_LAYER, None)
    values = per_op(trace, layers, ops)
    extra_s = {}
    hits = [latency for latency, cached, _ in traced["samples"] if cached]
    if hits and trace["hit_submit_s"]:
        transport = statistics.fmean(hits) - statistics.fmean(trace["hit_submit_s"])
        values["service.httpd.transport_ms"] = 1e3 * transport
        # Its share of the traced request time (stderr only).
        extra_s["service.httpd.transport (hits)"] = transport * len(hits) / ops
    values["service.cache.hit_rate"] = status["cache"]["hit_rate"]
    values["service.server.coalesced"] = status["coalesced"] / ops
    values["service.server.solves_computed"] = status["solves_computed"] / ops
    values.update(client_latency_metrics(plain))
    # Daemon time on the request path outside every named layer: queue
    # and dedup waits beyond the solve itself, the lock, the rendering.
    # Dispatcher-thread layers count as on the path: a request waits them.
    values["unattributed_s"] = (trace["submit_s"] - sum(layers.values())) / ops
    values["trace.overhead_pct"] = 100 * (traced["wall"] / plain["wall"] - 1)
    values["trace.ops"] = ops
    return {
        "attempted": 2 * len(warm) + len(plain["samples"]) + ops,
        "failed": failed + plain["failed"] + traced["failed"],
        "metrics": values,
        "op_s": sum(sample[0] for sample in traced["samples"]) / ops,
        "extra_s": extra_s,
    }


def client_latency_metrics(load: dict) -> dict:
    """Client-side hit and miss latencies of an untraced pass."""
    values = {}
    hits = [latency for latency, cached, _ in load["samples"] if cached]
    misses = [latency for latency, cached, _ in load["samples"] if not cached]
    if hits:
        values["service.client.hit_p50_ms"] = percentile(hits, 50) * 1e3
        values["service.client.hit_p95_ms"] = percentile(hits, 95) * 1e3
    if misses:
        values["service.client.miss_p50_ms"] = percentile(misses, 50) * 1e3
    return values


def report_service_latencies(load: dict) -> None:
    samples = load["samples"]
    hits = sum(cached for _, cached, _ in samples)
    print(f"service: {len(samples)} timed requests, {hits} hits, "
          f"{len(samples) - hits} misses, {load['failed']} failed, "
          f"{len(samples) / load['wall']:.1f} req/s", file=sys.stderr)
    for name, value in sorted(client_latency_metrics(load).items()):
        print(f"  {name} = {value:.3f} ms", file=sys.stderr)


# -- output ----------------------------------------------------------------


def check_reached(workload: str, measured: dict) -> None:
    """BenchError if a layer the workload must reach reads 0."""
    missing = [name for name in REACHED[workload] if not measured.get(name)]
    if missing:
        raise BenchError(f"traced run reached no {', '.join(missing)}")


def emit(result: dict, declared: list[dict], trace: bool) -> None:
    """Print the metrics declared for this mode, in their units."""
    measured = result["metrics"]
    metrics = {}
    for entry in declared:
        # Untraced runs measure every metric; traced runs leave out the
        # layers a workload does not reach (checked by check_reached).
        value = measured.get(entry["name"], 0.0) if trace else measured[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:<42} {value:14.6f} {entry['unit']}",
              file=sys.stderr)
    print(f"failed_frac = {result['failed']}/{result['attempted']}",
          file=sys.stderr)
    if trace:
        report_shares(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def report_shares(result: dict) -> None:
    """Each timed layer's share of the traced operation time."""
    op_s = result["op_s"]
    shares = {name: value for name, value in result["metrics"].items()
              if name.endswith("_s")}
    shares.update(result["extra_s"])
    print(f"traced operation: {op_s:.4f} s; self-time shares:", file=sys.stderr)
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        if value:
            print(f"  {name:<40} {100 * value / op_s:6.1f}%", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout of the program (src/repro missing)",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.workload == "service-mixed":
            result = run_service(args, tmp)
        else:
            result = run_in_worker(args, tmp)
        if args.trace:
            check_reached(args.workload, result["metrics"])
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    emit(result, declared["per_layer" if args.trace else "end_to_end"],
         args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
