"""The round-elimination exploration engine.

Walks the graph of problems reachable from seed problems under R / R̄ /
RE and bounded relaxation moves, deduplicating through a
content-addressed store of canonical problems, classifying each node
(zero-round solvable, fixed point) and extracting mechanically verified
lower bound sequences.

* :mod:`~repro.roundelim.explore.store` — canonical interning, the
  two-tier (LRU + on-disk) memo store, the pure worker step;
* :mod:`~repro.roundelim.explore.frontier` — the breadth-first /
  best-first search, parallel workers, relaxation linking and sequence
  extraction;
* :mod:`~repro.roundelim.explore.classify` — zero-round and fixed-point
  classification;
* :mod:`~repro.roundelim.explore.report` — the deterministic
  :class:`ExplorationReport` payload.
"""

from repro.roundelim.explore.classify import uniform_zero_round
from repro.roundelim.explore.frontier import (
    DEFAULT_STEP_BUDGET,
    MOVES,
    ORDERS,
    ExplorationLimits,
    ExplorationPolicy,
    explore,
    reports_identical,
)
from repro.roundelim.explore.report import REPORT_SCHEMA, ExplorationReport
from repro.roundelim.explore.store import (
    CONFIG_MAP_WHITE_CAP,
    OPERATORS,
    STATUS_BUDGET,
    STATUS_OK,
    WITNESS_CONFIG_MAP,
    WITNESS_LABEL_MAP,
    WITNESS_NONE,
    ProblemStore,
    StoreStats,
    compute_relaxation,
    compute_step,
)

__all__ = [
    "CONFIG_MAP_WHITE_CAP",
    "DEFAULT_STEP_BUDGET",
    "ExplorationLimits",
    "ExplorationPolicy",
    "ExplorationReport",
    "MOVES",
    "OPERATORS",
    "ORDERS",
    "ProblemStore",
    "REPORT_SCHEMA",
    "STATUS_BUDGET",
    "STATUS_OK",
    "StoreStats",
    "WITNESS_CONFIG_MAP",
    "WITNESS_LABEL_MAP",
    "WITNESS_NONE",
    "compute_relaxation",
    "compute_step",
    "explore",
    "reports_identical",
    "uniform_zero_round",
]
