"""Scenario execution: serial or multiprocessing, deterministic either way.

The runner's contract is that the *deterministic payload* of a suite run —
everything except wall-clock timings — depends only on (suite, base seed).
Each scenario derives a private RNG from its own identity (never from
execution order or worker assignment), scenarios are sorted by name in the
output, and serialization is canonical, so ``--jobs 4`` and ``--jobs 1``
write byte-identical JSON.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from repro.experiments.pipelines import resolve_pipeline
from repro.experiments.registry import get_suite
from repro.experiments.scenarios import RESULT_SCHEMA, Scenario, ScenarioResult
from repro.local.measurement import timed
from repro.utils.serialization import result_digest


def execute_scenario(scenario: Scenario, base_seed: int = 0) -> ScenarioResult:
    """Run one scenario: resolve its pipeline, feed it a derived RNG and
    its parameters as keywords, time it.

    The pipeline's signature is the scenario schema: a parameter it does
    not declare, or a required one left out, raises ``TypeError`` before
    the pipeline runs.
    """
    pipeline = resolve_pipeline(scenario.pipeline)
    rng = scenario.derive_rng(base_seed)
    records, wall_seconds = timed(pipeline, scenario, rng, **dict(scenario.params))
    ok = all(record.get("valid", True) for record in records)
    return ScenarioResult(
        scenario=scenario,
        records=tuple(records),
        ok=ok,
        wall_seconds=wall_seconds,
    )


def _worker(task: tuple[Scenario, int]) -> ScenarioResult:
    scenario, base_seed = task
    return execute_scenario(scenario, base_seed)


@dataclass(frozen=True)
class SuiteResult:
    """All scenario results of one suite run."""

    suite: str
    seed: int
    results: tuple[ScenarioResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def wall_seconds(self) -> float:
        return sum(result.wall_seconds for result in self.results)

    def payload(self, timings: bool = False) -> dict:
        """The JSON document for this run.

        Deterministic by default; ``timings=True`` adds a wall-clock block
        (which of course varies run to run).
        """
        body = {
            "schema": RESULT_SCHEMA,
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok,
            "scenarios": [result.payload() for result in self.results],
        }
        body["digest"] = result_digest(body)
        if timings:
            body["timings"] = {
                result.scenario.name: round(result.wall_seconds, 6)
                for result in self.results
            }
            body["timings"]["total"] = round(self.wall_seconds, 6)
        return body


class Runner:
    """Executes suites serially or across a process pool.

    ``engine`` (when given) retargets every scenario to that
    :mod:`repro.api` backend — the ``--engine`` dimension: any suite can
    run on any backend, and the deterministic payload must not change.
    """

    def __init__(
        self, jobs: int = 1, seed: int = 0, engine: str | None = None
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.seed = seed
        self.engine = engine

    def run_scenarios(self, suite: str, scenarios) -> SuiteResult:
        ordered = sorted(scenarios, key=lambda scenario: scenario.name)
        if self.engine is not None:
            ordered = [scenario.with_engine(self.engine) for scenario in ordered]
        tasks = [(scenario, self.seed) for scenario in ordered]
        if self.jobs == 1 or len(tasks) <= 1:
            results = [_worker(task) for task in tasks]
        else:
            processes = min(self.jobs, len(tasks))
            with multiprocessing.Pool(processes=processes) as pool:
                results = pool.map(_worker, tasks)
        return SuiteResult(suite=suite, seed=self.seed, results=tuple(results))

    def run_suite(self, name: str) -> SuiteResult:
        return self.run_scenarios(name, get_suite(name))
