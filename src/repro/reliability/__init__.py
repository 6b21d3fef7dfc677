"""Deterministic fault injection, crash-safe storage, chaos testing.

The reliability layer is what lets the rest of the system promise
*byte-identical outputs under injected faults* — the same contract the
experiments runner makes for ``jobs=N`` and the exploration store makes
for kill-and-resume, extended to torn writes, corrupted entries, dead
and hung workers, and dropped connections:

* :mod:`repro.reliability.faults` — :class:`FaultPlan` (a seeded,
  replayable schedule of named fault sites) and :class:`FaultClock`
  (the runtime hit counter that fires them exactly once);
* :mod:`repro.reliability.atomic` — atomic temp-file+rename writes,
  per-entry checksum footers, quarantine, manifest-driven recovery, and
  :class:`~repro.reliability.atomic.MemoTier`, the one LRU-over-disk
  tier both disk-backed stores own;
* :mod:`repro.reliability.supervise` — :class:`SupervisedWorkerPool`:
  worker restart with exactly-once re-dispatch, per-request deadlines
  (stable ``timeout`` wire code);
* :mod:`repro.reliability.chaos` — the harness asserting the byte-parity
  invariant over seeded fault schedules, with greedy plan minimization;
* :mod:`repro.reliability.cli` — ``python -m repro.reliability``
  (``sites`` / ``plan`` / ``chaos``).
"""

from repro.reliability.atomic import (
    CHECKSUM_KEY,
    QUARANTINE_DIR,
    CorruptEntryError,
    body_checksum,
    open_with_recovery,
    quarantine_entry,
    read_checked_json,
    sweep_tree,
    write_checked_json,
)
from repro.reliability.chaos import (
    CHAOS_SCHEMA,
    SCENARIOS,
    chaos_matrix,
    minimize_plan,
    run_case,
    seeded_case_plan,
)
from repro.reliability.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    PLAN_SCHEMA,
    FaultClock,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    StorageFault,
    TornWriteFault,
    check_fault,
)
from repro.reliability.supervise import (
    RequestTimeoutError,
    SupervisedWorkerPool,
    WorkerCrashError,
)

__all__ = [
    "CHAOS_SCHEMA",
    "CHECKSUM_KEY",
    "FAULT_KINDS",
    "FAULT_SITES",
    "PLAN_SCHEMA",
    "QUARANTINE_DIR",
    "SCENARIOS",
    "CorruptEntryError",
    "FaultClock",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RequestTimeoutError",
    "StorageFault",
    "SupervisedWorkerPool",
    "TornWriteFault",
    "WorkerCrashError",
    "body_checksum",
    "chaos_matrix",
    "check_fault",
    "minimize_plan",
    "open_with_recovery",
    "quarantine_entry",
    "read_checked_json",
    "run_case",
    "seeded_case_plan",
    "sweep_tree",
    "write_checked_json",
]
