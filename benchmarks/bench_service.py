"""SERVICE — warm-cache latency vs cold solves through the daemon.

The acceptance claim of ``repro.service``: on repeated matching and
ruling-set workloads, a warm cache answers requests with latency at
least **10×** lower than the cold solve, while every response stays
byte-identical to the direct :func:`repro.api.solve` report.  The mixed
hot/cold phase replays ~200 requests from several client threads against
a live HTTP daemon and records throughput, p50/p99 latency and the cache
hit rate.

Dual mode:

* ``pytest benchmarks/bench_service.py`` — asserts the 10× criterion and
  service-vs-direct byte parity on the smoke matrix;
* ``python benchmarks/bench_service.py [--smoke] [--out F] [--requests N]
  [--clients K]`` — measures the full workload, writes
  ``BENCH_service.json`` (schema ``repro.bench/service/v1``: cold/warm
  latency quantiles, throughput, hit rate) and exits non-zero when the
  10× criterion fails.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import threading
import time

import harness
from repro import api
from repro.service import (
    ServiceClient,
    SolveService,
    solve_request,
    start_http_service,
)
from repro.utils.serialization import canonical_dumps
from repro.utils.tables import print_table

SCHEMA = "repro.bench/service/v1"

#: The acceptance criterion: warm p50 latency ≥ 10× lower than cold p50.
CRITERION_SPEEDUP = 10.0

#: The repeated workloads: (name, spec, algorithm, sizes).  Sizes are
#: chosen so a cold solve costs tens of milliseconds — enough to dwarf
#: the ~milliseconds of HTTP round-trip a warm cache hit costs, which is
#: what the 10× criterion compares against.
WORKLOADS = (
    ("matching", "maximal-matching:delta=3", "matching:proposal",
     (2048, 4096)),
    ("ruling-set", "ruling-set:delta=3,colors=1,beta=2",
     "ruling-set:class-sweep", (2048, 4096)),
)


def _unique_requests(sizes_per_workload: int, seeds: int) -> list[dict]:
    """The distinct request population the mixed phase replays."""
    requests = []
    for _name, spec, algorithm, sizes in WORKLOADS:
        for n in sizes[:sizes_per_workload]:
            for seed in range(seeds):
                requests.append(
                    solve_request(spec, algorithm=algorithm, n=n, seed=seed)
                )
    return requests


def _quantiles(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "p50_ms": round(1000 * statistics.median(ordered), 3),
        "p99_ms": round(1000 * ordered[min(len(ordered) - 1,
                                           int(0.99 * len(ordered)))], 3),
        "mean_ms": round(1000 * statistics.fmean(ordered), 3),
    }


def measure(
    *, requests: int = 200, clients: int = 4, sizes_per_workload: int = 2,
    seeds: int = 3,
) -> dict:
    """Cold phase, then a threaded mixed hot/cold phase; returns the payload.

    Cold: each unique request once, timed individually (every one a real
    solve).  Mixed: ``requests`` replays of the unique population spread
    round-robin over ``clients`` threads — after the cold phase all of
    them are cache hits, which is what the hit-rate and warm-latency
    figures measure.
    """
    population = _unique_requests(sizes_per_workload, seeds)
    service = SolveService(jobs=1, capacity=1024)
    server, thread = start_http_service(service)
    client = ServiceClient(server.url)
    try:
        cold_latencies = []
        for request in population:
            start = time.perf_counter()
            response = client.request(request)
            cold_latencies.append(time.perf_counter() - start)
            assert response["status"] == "ok", response
            assert response["cached"] is False, "cold phase hit the cache"

        # Byte parity: one request per workload against the direct façade.
        for _name, spec, algorithm, sizes in WORKLOADS:
            response = client.request(
                solve_request(spec, algorithm=algorithm, n=sizes[0], seed=0)
            )
            direct = api.solve(spec, algorithm=algorithm, n=sizes[0], seed=0)
            if canonical_dumps(response["report"]) != direct.canonical_json():
                raise AssertionError(
                    f"service response diverges from direct solve on {spec}"
                )

        warm_latencies: list[list[float]] = [[] for _ in range(clients)]
        errors: list[dict] = []

        def worker(worker_index: int) -> None:
            worker_client = ServiceClient(server.url)
            for position in range(worker_index, requests, clients):
                request = population[position % len(population)]
                start = time.perf_counter()
                response = worker_client.request(request)
                warm_latencies[worker_index].append(
                    time.perf_counter() - start
                )
                if response["status"] != "ok" or not response["cached"]:
                    errors.append(response)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(clients)
        ]
        mixed_start = time.perf_counter()
        for worker_thread in threads:
            worker_thread.start()
        for worker_thread in threads:
            worker_thread.join()
        mixed_seconds = time.perf_counter() - mixed_start
        if errors:
            raise AssertionError(f"mixed phase saw failures: {errors[:3]}")

        flat_warm = [value for bucket in warm_latencies for value in bucket]
        status = service.status()
        cold = _quantiles(cold_latencies)
        warm = _quantiles(flat_warm)
        return {
            "schema": SCHEMA,
            "criterion": {"min_speedup": CRITERION_SPEEDUP},
            "unique_requests": len(population),
            "mixed_requests": len(flat_warm),
            "clients": clients,
            "cold": cold,
            "warm": warm,
            "speedup_p50": round(cold["p50_ms"] / warm["p50_ms"], 3),
            "throughput_rps": round(len(flat_warm) / mixed_seconds, 1),
            "mixed_seconds": round(mixed_seconds, 3),
            "cache": status["cache"],
            "coalesced": status["coalesced"],
            "solves_computed": status["solves_computed"],
        }
    finally:
        server.shutdown()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# pytest mode


def test_warm_cache_latency_at_least_10x_lower():
    payload = measure(requests=60, clients=2, sizes_per_workload=1, seeds=2)
    assert payload["speedup_p50"] >= CRITERION_SPEEDUP, payload
    assert payload["cache"]["hit_rate"] >= 0.5, payload["cache"]


def test_service_reports_byte_identical_to_direct():
    spec, algorithm = "maximal-matching:delta=3", "matching:proposal"
    with SolveService(jobs=1) as service:
        response = service.submit(
            solve_request(spec, algorithm=algorithm, n=64, seed=0)
        )
    direct = api.solve(spec, algorithm=algorithm, n=64, seed=0)
    assert canonical_dumps(response["report"]) == direct.canonical_json()


# ---------------------------------------------------------------------------
# CLI mode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller population and fewer replays")
    parser.add_argument("--out", default=None,
                        help="write BENCH_service.json here")
    parser.add_argument("--requests", type=int, default=200,
                        help="mixed-phase request count (default 200)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    args = parser.parse_args(argv)

    if args.smoke:
        payload = measure(requests=min(args.requests, 60), clients=2,
                          sizes_per_workload=1, seeds=2)
    else:
        payload = measure(requests=args.requests, clients=args.clients)

    if args.out:
        harness.write_payload(payload, args.out)
    print_table(
        ["phase", "p50 ms", "p99 ms", "mean ms"],
        [
            ("cold", payload["cold"]["p50_ms"], payload["cold"]["p99_ms"],
             payload["cold"]["mean_ms"]),
            ("warm", payload["warm"]["p50_ms"], payload["warm"]["p99_ms"],
             payload["warm"]["mean_ms"]),
        ],
        title=(
            f"solve service: {payload['mixed_requests']} mixed requests, "
            f"{payload['throughput_rps']} req/s, hit rate "
            f"{payload['cache']['hit_rate']}"
        ),
    )
    if payload["speedup_p50"] < CRITERION_SPEEDUP:
        print(
            f"FAIL: warm p50 only {payload['speedup_p50']:.1f}x lower than "
            f"cold; criterion is {CRITERION_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: warm p50 {payload['speedup_p50']:.1f}x lower than cold",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
