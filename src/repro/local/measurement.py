"""Reusable timing/measurement hooks around the synchronous engine.

Experiment harnesses repeatedly need the same two observations: how long a
run took on the wall clock and what the engine did round by round (rounds
until global halt, message volume, messages dropped at halted nodes).
This module packages both so benchmarks and the experiments runner stop
hand-rolling ``time.perf_counter()`` arithmetic.

* :func:`timed` — wall-clock a callable, returning ``(value, seconds)``;
* :class:`EngineProbe` — an ``on_round`` observer for
  :func:`repro.local.simulator.run_synchronous` accumulating round traces.

The façade's one execution step (:func:`repro.api.simulate` and
:func:`repro.api.solve`) runs an engine under both and returns
``(RunResult, Measurement)``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.local.simulator import RoundTrace


@dataclass(frozen=True)
class Measurement:
    """Aggregate observations of one engine run."""

    rounds: int
    wall_seconds: float
    messages_delivered: int
    messages_dropped: int
    peak_live_nodes: int

    def as_record(self) -> dict:
        """A JSON-ready dict (wall clock excluded: it is not reproducible)."""
        return {
            "rounds": self.rounds,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "peak_live_nodes": self.peak_live_nodes,
        }


@dataclass
class EngineProbe:
    """An ``on_round`` observer that accumulates :class:`RoundTrace` data."""

    traces: list[RoundTrace] = field(default_factory=list)

    def __call__(self, trace: RoundTrace) -> None:
        self.traces.append(trace)

    def summarize(self, wall_seconds: float = 0.0) -> Measurement:
        return Measurement(
            rounds=len(self.traces),
            wall_seconds=wall_seconds,
            messages_delivered=sum(t.messages_delivered for t in self.traces),
            messages_dropped=sum(t.messages_dropped for t in self.traces),
            peak_live_nodes=max((t.live_nodes for t in self.traces), default=0),
        )


def timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """Call ``fn(*args, **kwargs)``, returning ``(value, wall_seconds)``."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start
