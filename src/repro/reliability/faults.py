"""Deterministic, seeded fault injection: plans, clocks, typed faults.

A :class:`FaultPlan` is a *schedule*: a set of (site, hit, kind) triples
saying "the ``kind`` fault fires the ``hit``-th time execution passes the
named ``site``".  Plans are canonical JSON (schema
``repro.reliability/plan-v1``) and derivable from a seed, so a chaos run
is replayable bit-for-bit: same plan, same faults, same recovery path.

A :class:`FaultClock` is the runtime half: components that opt into
injection call :func:`check_fault` at their named sites and act out the
fault themselves; the clock counts hits, fires the scheduled faults
exactly once each, and keeps a log of what fired for telemetry.

Every injection decision is taken in the *parent* process — the worker
pool decides crash/hang faults at dispatch time, before a request is
shipped to a subprocess — so schedules stay deterministic no
matter how work is distributed (``jobs=1`` and ``jobs=N`` see the same
hit counts in the same order for the same request sequence).

Fault kinds:

``error``
    the operation raises (a failed syscall); nothing was written.
``torn_write``
    the write stops halfway through the *temporary* file and raises —
    with atomic renames the visible entry is never torn, only a stray
    ``*.tmp`` is left for recovery to sweep.
``corrupt``
    the write completes, then the on-disk bytes are truncated — the
    silent-corruption case the checksum footer exists to catch.
``crash``
    the worker process dies before producing a result.
``hang``
    the worker never answers; with a deadline this surfaces as the
    stable ``timeout`` wire code.
``drop``
    the transport loses the connection (before the request or mid-way
    through the response).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.utils import InvalidParameterError, ReproError

PLAN_SCHEMA = "repro.reliability/plan-v1"

#: Every fault kind a schedule may carry.
FAULT_KINDS = ("error", "torn_write", "corrupt", "crash", "hang", "drop")

#: The fault-site catalog: injection point -> the kinds it supports.
#: Sites are stable names — plans reference them, telemetry reports
#: them, and the README documents them.
FAULT_SITES: dict[str, tuple[str, ...]] = {
    "cache.write": ("torn_write", "corrupt", "error"),
    "cache.manifest": ("torn_write", "error"),
    "store.write": ("torn_write", "corrupt", "error"),
    "worker.exec": ("crash", "hang"),
    "client.send": ("drop",),
    "client.recv": ("drop",),
}

SITE_DESCRIPTIONS = {
    "cache.write": "ReportCache disk-tier entry write (reports/<digest>.json)",
    "cache.manifest": "ReportCache shutdown-manifest write",
    "store.write": "ProblemStore disk-tier write (nodes/ ops/ links/)",
    "worker.exec": "worker-pool request execution (kill or hang a worker)",
    "client.send": "HTTP transport: connection drops before the request",
    "client.recv": "HTTP transport: connection drops mid-response",
}


class InjectedFault(ReproError):
    """Base of every injected fault; carries the spec that fired."""

    code = "injected-fault"
    kind = "error"

    def __init__(self, spec: "FaultSpec") -> None:
        super().__init__(
            f"injected {spec.kind} fault at {spec.site} (hit {spec.hit})"
        )
        self.spec = spec


class StorageFault(InjectedFault):
    """A storage write failed outright (simulated failed syscall)."""

    kind = "error"


class TornWriteFault(InjectedFault):
    """A storage write died halfway through its temporary file."""

    kind = "torn_write"


@dataclass(frozen=True, order=True)
class FaultSpec:
    """One scheduled fault: ``kind`` fires on the ``hit``-th pass of ``site``."""

    site: str
    hit: int
    kind: str

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise InvalidParameterError(
                f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}"
            )
        if self.kind not in FAULT_SITES[self.site]:
            raise InvalidParameterError(
                f"fault site {self.site!r} does not support kind {self.kind!r}; "
                f"supported: {list(FAULT_SITES[self.site])}"
            )
        if not isinstance(self.hit, int) or isinstance(self.hit, bool) or self.hit < 1:
            raise InvalidParameterError(
                f"fault hit count must be an int >= 1, got {self.hit!r}"
            )

    def as_dict(self) -> dict:
        return {"site": self.site, "hit": self.hit, "kind": self.kind}

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        return cls(
            site=payload["site"], hit=payload["hit"], kind=payload["kind"]
        )


@dataclass(frozen=True)
class FaultPlan:
    """A replayable fault schedule (canonical, seed-derivable)."""

    name: str = "empty"
    seed: int | None = None
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        keys = [(spec.site, spec.hit) for spec in self.faults]
        if len(keys) != len(set(keys)):
            raise InvalidParameterError(
                "a fault plan may schedule at most one fault per (site, hit)"
            )

    def __len__(self) -> int:
        return len(self.faults)

    def as_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "faults": [spec.as_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        schema = payload.get("schema", PLAN_SCHEMA)
        if schema != PLAN_SCHEMA:
            raise InvalidParameterError(
                f"unsupported fault-plan schema {schema!r}; expected "
                f"{PLAN_SCHEMA!r}"
            )
        return cls(
            name=payload.get("name", "unnamed"),
            seed=payload.get("seed"),
            faults=tuple(
                FaultSpec.from_dict(entry) for entry in payload.get("faults", ())
            ),
        )

    @classmethod
    def from_faults(cls, faults, name: str = "explicit") -> "FaultPlan":
        """Build a plan from ``(site, hit, kind)`` triples or spec dicts."""
        specs = []
        for entry in faults:
            if isinstance(entry, FaultSpec):
                specs.append(entry)
            elif isinstance(entry, dict):
                specs.append(FaultSpec.from_dict(entry))
            else:
                site, hit, kind = entry
                specs.append(FaultSpec(site=site, hit=hit, kind=kind))
        return cls(name=name, faults=tuple(specs))

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        sites=None,
        max_faults: int = 3,
        max_hit: int = 4,
    ) -> "FaultPlan":
        """Derive a schedule deterministically from a seed.

        The RNG stream depends only on the arguments, so a seed names
        the same chaos schedule on every machine and every run — the
        property that makes a failing CI seed replayable locally.
        """
        if max_faults < 1 or max_hit < 1:
            raise InvalidParameterError("max_faults and max_hit must be >= 1")
        pool = sorted(sites) if sites is not None else sorted(FAULT_SITES)
        for site in pool:
            if site not in FAULT_SITES:
                raise InvalidParameterError(
                    f"unknown fault site {site!r}; known: {sorted(FAULT_SITES)}"
                )
        rng = random.Random(f"repro.reliability:{seed}")
        count = rng.randint(1, max_faults)
        specs: dict[tuple[str, int], FaultSpec] = {}
        for _ in range(count):
            site = rng.choice(pool)
            kind = rng.choice(FAULT_SITES[site])
            hit = rng.randint(1, max_hit)
            specs.setdefault((site, hit), FaultSpec(site=site, hit=hit, kind=kind))
        return cls(
            name=f"seed-{seed}", seed=seed, faults=tuple(sorted(specs.values()))
        )

    def without(self, index: int) -> "FaultPlan":
        """The plan minus its ``index``-th fault (for minimization)."""
        kept = tuple(
            spec for position, spec in enumerate(self.faults) if position != index
        )
        return FaultPlan(name=f"{self.name}-minus-{index}", seed=self.seed, faults=kept)


class FaultClock:
    """Counts hits per site and fires the scheduled faults (thread-safe).

    One clock drives one run.  ``check`` increments the site's hit
    counter and returns the scheduled :class:`FaultSpec` if this exact
    hit is scheduled (each scheduled fault fires at most once, because
    hit counts only move forward).  ``fired`` is the replay log.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._schedule = {
            (spec.site, spec.hit): spec for spec in self.plan.faults
        }
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()
        self.fired: list[dict] = []

    def check(self, site: str) -> FaultSpec | None:
        """Count one pass of ``site``; the fault to inject, or None."""
        if site not in FAULT_SITES:
            raise InvalidParameterError(
                f"unknown fault site {site!r}; known: {sorted(FAULT_SITES)}"
            )
        with self._lock:
            self._hits[site] = self._hits.get(site, 0) + 1
            spec = self._schedule.get((site, self._hits[site]))
            if spec is not None:
                self.fired.append(spec.as_dict())
        return spec

    def hits(self) -> dict[str, int]:
        """A copy of the per-site hit counters."""
        with self._lock:
            return dict(self._hits)

    def exhausted(self) -> bool:
        """True once every scheduled fault has fired."""
        with self._lock:
            return len(self.fired) == len(self._schedule)


def check_fault(clock: FaultClock | None, site: str) -> FaultSpec | None:
    """:meth:`FaultClock.check` that tolerates ``clock=None`` (no-op)."""
    if clock is None:
        return None
    return clock.check(site)
