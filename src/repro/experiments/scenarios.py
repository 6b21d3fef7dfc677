"""Declarative experiment scenarios.

A :class:`Scenario` names everything one experiment needs — a
measurement pipeline, a graph family, a size sweep, the pipeline's
parameters and an execution engine — without holding any live objects,
so scenarios are picklable (the parallel runner ships them to worker
processes) and serializable (their description is embedded in result
JSON).

Pipelines and graph families are referenced *by key*; the tables live in
:mod:`repro.experiments.pipelines` and are resolved at execution time.
A pipeline declares the parameters it accepts as keyword-only arguments
of its signature, and the runner passes ``params`` as keywords, so a key
the pipeline does not declare is a ``TypeError`` before it runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.api.engines import DEFAULT_ENGINE

#: Version tag embedded in every result payload (for future BENCH_*.json
#: trajectory tracking to key on).
RESULT_SCHEMA = "repro.experiments/v2"


@dataclass(frozen=True)
class Scenario:
    """One declarative experiment: pipeline + family + sweep + parameters.

    ``engine`` names the :mod:`repro.api` execution backend pipelines run
    their algorithms on.  It is an execution detail — like ``--jobs`` —
    deliberately *excluded* from :meth:`describe`: the deterministic
    payload must be byte-identical across engines (the engine-parity
    guarantee CI enforces).
    """

    name: str
    pipeline: str
    family: str | None = None
    sizes: tuple[int, ...] = ()
    params: tuple[tuple[str, object], ...] = ()
    engine: str = DEFAULT_ENGINE

    @classmethod
    def create(
        cls,
        name: str,
        pipeline: str,
        family: str | None = None,
        sizes: tuple[int, ...] = (),
        engine: str = DEFAULT_ENGINE,
        **params,
    ) -> "Scenario":
        """Build a scenario with the pipeline's parameters given as keywords."""
        return cls(
            name=name,
            pipeline=pipeline,
            family=family,
            sizes=tuple(sizes),
            params=tuple(sorted(params.items())),
            engine=engine,
        )

    def with_engine(self, engine: str) -> "Scenario":
        """The same scenario retargeted to another execution backend."""
        return replace(self, engine=engine)

    def derive_rng(self, base_seed: int) -> random.Random:
        """The scenario's private RNG.

        Seeded from the run seed plus the scenario's own identity only, so
        the stream is identical whether the scenario runs serially, in a
        worker process, or in a different position within its suite.  The
        ``0`` is the retired per-scenario seed, kept so no stream moves.
        """
        return random.Random(f"{base_seed}:0:{self.name}")

    def describe(self) -> dict:
        """The serializable identity block embedded in result payloads.

        ``engine`` is intentionally absent: records must not depend on
        the backend, so identical runs on different engines serialize
        byte-identically.
        """
        return {
            "name": self.name,
            "pipeline": self.pipeline,
            "family": self.family,
            "sizes": list(self.sizes),
            "params": {key: value for key, value in self.params},
        }


@dataclass(frozen=True)
class ScenarioResult:
    """Deterministic records plus (non-deterministic) wall-clock timing."""

    scenario: Scenario
    records: tuple[dict, ...]
    ok: bool
    wall_seconds: float = field(compare=False, default=0.0)

    def payload(self) -> dict:
        """The deterministic JSON block for this scenario."""
        return {
            "scenario": self.scenario.describe(),
            "records": list(self.records),
            "ok": self.ok,
        }
