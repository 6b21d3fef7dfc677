"""The chaos harness: byte parity between faulted and fault-free runs.

Every scenario runs the same scripted workload twice — once clean, once
under a :class:`~repro.reliability.faults.FaultPlan` — and asserts the
headline invariant: for every seeded fault schedule that does not
exhaust the retry budget, the answers are **byte-identical** to the
fault-free run, the daemon survives, and a restart after a simulated
kill loses nothing but the entries the schedule itself corrupted.

Three scenarios cover the three fault surfaces:

``service``
    a :class:`~repro.service.server.SolveService` with an on-disk cache:
    submit the workload under faults (bounded per-request retries for
    ``timeout``/fault results), kill the daemon without flushing, reopen
    the cache directory, and replay — cold bodies, warm bodies and
    recovery bodies must all equal the clean bodies, and the warm pass
    may recompute at most the entries the plan's storage faults lost.
``explore``
    a disk-rooted exploration run: the faulted
    :class:`~repro.roundelim.explore.report.ExplorationReport` payload,
    and the payload of a resumed run over the recovered store, must be
    byte-identical to the clean report.
``transport``
    a real HTTP daemon with a fault-injected
    :class:`~repro.service.client.ServiceClient`: dropped connections
    are retried (idempotent by digest) and the final responses must
    equal the clean ones.

:func:`minimize_plan` greedily shrinks a failing schedule to a minimal
one (the artifact CI uploads); :func:`chaos_matrix` runs a seed matrix
and aggregates.
"""

from __future__ import annotations

from pathlib import Path

from repro.reliability.faults import FaultClock, FaultPlan
from repro.utils.serialization import canonical_dumps

#: Per-request resubmission budget inside a scenario (the fault results
#: a retry can heal: a timed-out hang, an injected worker error).
DEFAULT_RETRIES = 3

#: Error codes a scenario retry is allowed to heal.  Anything else is a
#: real failure and fails the case immediately.
RETRYABLE_CODES = frozenset(
    {"timeout", "overloaded", "injected-fault", "worker-crash"}
)

CHAOS_SCHEMA = "repro.reliability/chaos-v1"

SCENARIOS = ("service", "explore", "transport")

#: Sites that can fire during each scenario (used both to derive seeded
#: plans that actually bite and to bound warm-pass recompute claims).
SCENARIO_SITES = {
    "service": ("cache.write", "cache.manifest", "worker.exec"),
    "explore": ("store.write",),
    "transport": ("client.send", "client.recv", "worker.exec", "cache.write"),
}


def _workload() -> list[dict]:
    """The scripted request sequence every service scenario replays.

    Small on purpose (chaos cases run in a matrix): three distinct
    solves, a duplicate, and one roundelim step.
    """
    from repro.service.protocol import roundelim_request, solve_request

    spec, algorithm = "maximal-matching:delta=3", "matching:proposal"
    return [
        solve_request(spec, algorithm=algorithm, n=24, seed=0),
        solve_request(spec, algorithm=algorithm, n=24, seed=1),
        solve_request(spec, algorithm=algorithm, n=24, seed=2),
        solve_request(spec, algorithm=algorithm, n=24, seed=0),
        roundelim_request("sinkless-orientation:delta=3", op="R"),
    ]


def _body(response: dict) -> str | None:
    """The canonical bytes of a response's result body (None for errors).

    Envelopes differ legitimately between runs (``cached`` flips once an
    entry is warm), so parity is asserted on the record body alone.
    """
    if response.get("status") != "ok":
        return None
    record = response.get("report", response.get("result"))
    return canonical_dumps(record)


def _error_code(response: dict) -> str:
    return response.get("error", {}).get("code", "unknown")


def _submit_with_retries(service, request, retries: int):
    """Submit one request, healing retryable fault results by resubmission.

    Returns ``(response, attempts)``; a still-failing response after the
    budget means the schedule exhausted the retry budget (the invariant
    carve-out) — the caller reports it as such rather than as a parity
    failure.
    """
    attempts = 0
    while True:
        attempts += 1
        response = service.submit(request)
        if response.get("status") == "ok":
            return response, attempts
        if _error_code(response) not in RETRYABLE_CODES or attempts > retries:
            return response, attempts


def _failure(case: dict, detail: str) -> dict:
    case["ok"] = False
    case["failures"].append(detail)
    return case


def service_baseline(requests: list[dict] | None = None) -> dict:
    """The fault-free run: per-request body bytes + execution census.

    Memoize per workload and reuse across a whole seed matrix — the
    clean run is identical for every plan by the determinism contract.
    """
    from repro.service.server import SolveService

    requests = requests if requests is not None else _workload()
    with SolveService(jobs=1) as service:
        bodies = [_body(service.submit(request)) for request in requests]
        executions = service.pool.executions
    return {"bodies": bodies, "executions": executions}


def run_service_case(
    plan: FaultPlan,
    workdir: str | Path,
    *,
    baseline: dict | None = None,
    retries: int = DEFAULT_RETRIES,
    deadline: float | None = 30.0,
) -> dict:
    """One service chaos case: faulted cold run, kill, recovery replay."""
    from repro.service.server import SolveService

    requests = _workload()
    if baseline is None:
        baseline = service_baseline(requests)
    workdir = Path(workdir)
    case = {
        "scenario": "service",
        "plan": plan.as_dict(),
        "ok": True,
        "retry_budget_exhausted": False,
        "failures": [],
    }
    clock = FaultClock(plan)
    cold = SolveService(
        cache_dir=workdir / "cache", jobs=1, deadline=deadline, fault_clock=clock
    )
    try:
        for index, request in enumerate(requests):
            response, _attempts = _submit_with_retries(cold, request, retries)
            body = _body(response)
            if body is None:
                if _error_code(response) in RETRYABLE_CODES:
                    case["retry_budget_exhausted"] = True
                else:
                    _failure(
                        case,
                        f"request {index} failed non-retryably: "
                        f"{_error_code(response)}",
                    )
                continue
            if body != baseline["bodies"][index]:
                _failure(case, f"request {index} cold bytes differ from clean run")
        case["cold"] = {
            "executions": cold.pool.executions,
            "solves_computed": cold.solves_computed,
            "faults_fired": list(clock.fired),
        }
        # Completed executions must match the clean run exactly: a crash
        # consumes its one re-dispatch, a timed-out hang never completed
        # and its resubmission completes once.  Any surplus is a
        # double-dispatch — the planted bug the oracle must catch.
        if not case["retry_budget_exhausted"] and (
            cold.pool.executions != baseline["executions"]
        ):
            _failure(
                case,
                f"cold run completed {cold.pool.executions} executions, "
                f"clean run {baseline['executions']} — re-dispatch is not "
                f"exactly-once",
            )
    finally:
        # The simulated daemon kill: no drain, no manifest flush.
        cold.abandon()

    # Recovery: a fresh daemon on the killed daemon's cache directory.
    warm = SolveService(cache_dir=workdir / "cache", jobs=1, deadline=deadline)
    try:
        for index, request in enumerate(requests):
            response, _attempts = _submit_with_retries(warm, request, retries)
            body = _body(response)
            if body is None or body != baseline["bodies"][index]:
                _failure(case, f"request {index} recovery bytes differ")
        lossy = sum(1 for spec in plan.faults if spec.site == "cache.write")
        case["warm"] = {
            "solves_computed": warm.solves_computed,
            "recovery": dict(warm.cache.recovery),
            "lossy_faults": lossy,
        }
        # Only entries the plan itself tore/corrupted/blocked may need
        # recomputing; every clean entry must be served from disk.
        if warm.solves_computed > lossy:
            _failure(
                case,
                f"recovery recomputed {warm.solves_computed} entries but the "
                f"plan only lost {lossy}",
            )
    finally:
        warm.close()
    return case


def explore_baseline() -> dict:
    """The fault-free exploration report bytes for the chaos workload."""
    from repro.api import ProblemSpec
    from repro.roundelim.explore import (
        ExplorationLimits,
        ExplorationPolicy,
        explore,
    )

    roots = [ProblemSpec.parse("sinkless-orientation:delta=3").build()]
    policy = ExplorationPolicy(moves=("RE",))
    limits = ExplorationLimits(max_depth=2, max_nodes=6)
    report = explore(roots, policy=policy, limits=limits)
    return {
        "bytes": report.canonical_json(),
        "roots": roots,
        "policy": policy,
        "limits": limits,
    }


def run_explore_case(
    plan: FaultPlan, workdir: str | Path, *, baseline: dict | None = None
) -> dict:
    """One exploration chaos case: faulted run, then recovery resume."""
    from repro.roundelim.explore import ProblemStore, explore

    if baseline is None:
        baseline = explore_baseline()
    workdir = Path(workdir)
    case = {
        "scenario": "explore",
        "plan": plan.as_dict(),
        "ok": True,
        "retry_budget_exhausted": False,
        "failures": [],
    }
    clock = FaultClock(plan)
    store = ProblemStore(root=workdir / "store", fault_clock=clock)
    report = explore(
        baseline["roots"],
        policy=baseline["policy"],
        limits=baseline["limits"],
        store=store,
    )
    if report.canonical_json() != baseline["bytes"]:
        _failure(case, "faulted exploration report differs from clean run")
    case["cold"] = {
        "faults_fired": list(clock.fired),
        "quarantined": store.stats.quarantined,
        "write_failures": store.stats.write_failures,
    }
    # Simulated kill: the store never flushed a manifest, so reopening
    # must take the recovery path (eager sweep) and still reproduce the
    # clean bytes with at most the lost entries recomputed.
    resumed = ProblemStore(root=workdir / "store")
    case["recovery"] = dict(resumed.recovery)
    second = explore(
        baseline["roots"],
        policy=baseline["policy"],
        limits=baseline["limits"],
        store=resumed,
    )
    if second.canonical_json() != baseline["bytes"]:
        _failure(case, "resumed exploration report differs from clean run")
    lossy = sum(1 for spec in plan.faults if spec.site == "store.write")
    case["warm"] = {"computed": resumed.stats.computed, "lossy_faults": lossy}
    if resumed.stats.computed > lossy:
        _failure(
            case,
            f"resume recomputed {resumed.stats.computed} steps but the plan "
            f"only lost {lossy}",
        )
    return case


def run_transport_case(
    plan: FaultPlan,
    workdir: str | Path,
    *,
    baseline: dict | None = None,
    retries: int = DEFAULT_RETRIES,
) -> dict:
    """One transport chaos case: injected connection drops over real HTTP."""
    from repro.service.client import ServiceClient, ServiceUnavailableError
    from repro.service.httpd import start_http_service
    from repro.service.server import SolveService

    requests = _workload()
    if baseline is None:
        baseline = service_baseline(requests)
    case = {
        "scenario": "transport",
        "plan": plan.as_dict(),
        "ok": True,
        "retry_budget_exhausted": False,
        "failures": [],
    }
    clock = FaultClock(plan)
    service = SolveService(
        cache_dir=Path(workdir) / "cache", jobs=1, deadline=30.0, fault_clock=clock
    )
    server, thread = start_http_service(service)
    try:
        client = ServiceClient(
            server.url,
            retries=max(retries, len(plan)),
            backoff=0.01,
            fault_clock=clock,
        )
        for index, request in enumerate(requests):
            try:
                response = client.request(request)
            except ServiceUnavailableError:
                case["retry_budget_exhausted"] = True
                continue
            body = _body(response)
            if body is None and _error_code(response) in RETRYABLE_CODES:
                case["retry_budget_exhausted"] = True
            elif body != baseline["bodies"][index]:
                _failure(case, f"request {index} transport bytes differ")
        if not client.ping():
            _failure(case, "daemon stopped answering after the fault schedule")
        case["cold"] = {
            "faults_fired": list(clock.fired),
            "retried": client.stats["retried"],
        }
    finally:
        server.shutdown()
        thread.join(timeout=10)
        service.close()
    return case


_RUNNERS = {
    "service": run_service_case,
    "explore": run_explore_case,
    "transport": run_transport_case,
}


def run_case(
    scenario: str, plan: FaultPlan, workdir: str | Path, **kwargs
) -> dict:
    """Dispatch one chaos case; unknown scenarios fail loudly."""
    from repro.utils import InvalidParameterError

    runner = _RUNNERS.get(scenario)
    if runner is None:
        raise InvalidParameterError(
            f"unknown chaos scenario {scenario!r}; known: {list(SCENARIOS)}"
        )
    return runner(plan, workdir, **kwargs)


def seeded_case_plan(scenario: str, seed: int) -> FaultPlan:
    """The seeded plan a matrix entry runs: sites limited to the scenario."""
    return FaultPlan.seeded(seed, sites=SCENARIO_SITES[scenario])


def minimize_plan(plan: FaultPlan, still_fails) -> FaultPlan:
    """Greedily shrink a failing plan while ``still_fails(plan)`` holds.

    One pass per size: try dropping each fault; recurse on the first
    drop that still fails.  The result is 1-minimal — removing any
    single remaining fault makes the case pass — which is what a human
    debugging a chaos artifact wants to read.
    """
    index = 0
    while index < len(plan.faults):
        candidate = plan.without(index)
        if len(candidate) and still_fails(candidate):
            plan = candidate
            index = 0
        else:
            index += 1
    return plan


def chaos_matrix(
    seeds,
    workdir: str | Path,
    *,
    scenarios=SCENARIOS,
    minimize: bool = True,
) -> dict:
    """Run a seed × scenario matrix; aggregate and minimize failures."""
    workdir = Path(workdir)
    baselines = {}
    cases = []
    failures = []
    for scenario in scenarios:
        if scenario == "explore":
            baselines[scenario] = {"baseline": explore_baseline()}
        else:
            baselines[scenario] = {"baseline": service_baseline()}
        for seed in seeds:
            plan = seeded_case_plan(scenario, seed)
            casedir = workdir / f"{scenario}-{seed}"
            case = run_case(scenario, plan, casedir, **baselines[scenario])
            case["seed"] = seed
            cases.append(case)
            if not case["ok"]:
                minimized = plan
                if minimize:
                    counter = [0]

                    def still_fails(candidate: FaultPlan) -> bool:
                        counter[0] += 1
                        attempt = run_case(
                            scenario,
                            candidate,
                            workdir / f"{scenario}-{seed}-min{counter[0]}",
                            **baselines[scenario],
                        )
                        return not attempt["ok"]

                    minimized = minimize_plan(plan, still_fails)
                failures.append(
                    {
                        "scenario": scenario,
                        "seed": seed,
                        "failures": case["failures"],
                        "plan": plan.as_dict(),
                        "minimized_plan": minimized.as_dict(),
                    }
                )
    return {
        "schema": CHAOS_SCHEMA,
        "scenarios": list(scenarios),
        "seeds": list(seeds),
        "cases": cases,
        "failures": failures,
        "ok": not failures,
    }
