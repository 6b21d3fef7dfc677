"""What each workload runs, derived from the workload seed.

Every operation comes from a fixed, pinned pool: the seed picks the order
in which a run walks it (and, for the service, which warm request each
cache hit repeats).  The same seed therefore gives the same inputs, and
every output can be compared against the sha256 in ``pins.json``.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Iterator
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

MATCHING = ("matching:delta=4,x=0,y=1", "matching:proposal")
MIS = ("mis:delta=4", "mis:luby")
RULING = ("ruling-set:delta=4,colors=1,beta=2", "ruling-set:class-sweep")
SERVICE_KINDS = (
    ("maximal-matching:delta=3", "matching:proposal"),
    ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep"),
)

#: Solve sizes and the seeds each solve workload rotates through.
MATCHING_N = 20_000
MATCHING_SEEDS = range(16)
MIS_N = 15_000
MIS_SEEDS = range(8)
#: The service's distinct requests: every kind at every seed.
SERVICE_SEEDS = range(150)
SERVICE_N = 2048
#: Distinct requests answered before timing; the reader client repeats them.
SERVICE_WARM = 8

#: ``explore-d3`` roots (ΠΔ(x, y) as (Δ, x, y)); the seed picks the order.
EXPLORE_ROOTS = ((3, 0, 1), (3, 1, 1))

SOLVE_WORKLOADS = ("solve-matching", "solve-mis")
WORKLOADS = SOLVE_WORKLOADS + ("service-mixed", "explore-d3")


def solve_key(problem: str, algorithm: str, n: int, seed: int) -> str:
    return f"{problem}|{algorithm}|n={n}|seed={seed}"


def explore_key(roots) -> str:
    return "explore|" + ";".join("pi_matching(%d,%d,%d)" % root for root in roots)


def solve_pool(workload: str) -> list[list[dict]]:
    """The operations of ``workload``, in pool order; one operation is
    the list of solves it runs (a ``solve-mis`` operation solves MIS and
    the ruling set at one seed, so every operation costs the same)."""
    if workload == "solve-matching":
        return [[_solve(*MATCHING, MATCHING_N, seed)] for seed in MATCHING_SEEDS]
    if workload == "solve-mis":
        return [
            [_solve(*family, MIS_N, seed) for family in (MIS, RULING)]
            for seed in MIS_SEEDS
        ]
    raise ValueError(f"not a solve workload: {workload}")


def _solve(problem: str, algorithm: str, n: int, seed: int) -> dict:
    return {
        "problem": problem,
        "algorithm": algorithm,
        "n": n,
        "seed": seed,
        "key": solve_key(problem, algorithm, n, seed),
    }


def explore_pool() -> list[tuple]:
    return [EXPLORE_ROOTS, tuple(reversed(EXPLORE_ROOTS))]


def rotation(pool_size: int, seed: int, step: int = 1) -> list[int]:
    """Pool indices in the order a run with ``seed`` walks them.

    ``step`` keeps groups of consecutive pool entries together (the two
    kinds of service request at one seed), so every run keeps the mix.
    """
    groups = list(range(0, pool_size, step))
    random.Random(seed).shuffle(groups)
    return [start + offset for start in groups for offset in range(step)]


def op_at(workload: str, seed: int, index: int):
    """The ``index``-th operation of a run (list of solves, or explore roots)."""
    pool = explore_pool() if workload == "explore-d3" else solve_pool(workload)
    order = rotation(len(pool), seed)
    return pool[order[index % len(order)]]


def service_uniques() -> list[dict]:
    return [
        _solve(problem, algorithm, SERVICE_N, seed)
        for seed in SERVICE_SEEDS
        for problem, algorithm in SERVICE_KINDS
    ]


def service_plan(seed: int) -> tuple[list[dict], Iterator[dict], Iterator[dict]]:
    """``(warm, reads, writes)`` of one service run.

    The warm requests are answered before timing starts.  Then the
    reader client repeats them in seeded random order (cache hits) while
    the writer client sends the remaining distinct requests in seeded
    order (misses: a solve plus a cache write), so every read runs beside
    a write.
    """
    uniques = service_uniques()
    # Steps of 2 keep each seed's two kinds together, so the warm set and
    # the writer's stream hold both kinds evenly (their reports differ
    # ~5x in size, so the mix sets the hit cost).
    order = [uniques[index] for index in rotation(len(uniques), seed, step=2)]
    warm, fresh = order[:SERVICE_WARM], order[SERVICE_WARM:]
    rng = random.Random(seed)
    reads = (rng.choice(warm) for _ in itertools.count())
    return warm, reads, itertools.cycle(fresh)


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())
