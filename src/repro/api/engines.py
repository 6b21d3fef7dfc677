"""Pluggable execution engines behind a common ``Engine.run`` contract.

An *engine* executes a :class:`~repro.api.types.MessagePassingProgram` on
a network and returns a :class:`~repro.local.simulator.RunResult`.  All
engines implement::

    engine.run(network, program, *, seed=0, max_rounds=10_000, probe=None)

and must be observationally equivalent: same outputs, same round count,
same delivered/dropped counters, same protocol-violation errors — the
property CI's engine-parity job and ``tests/api/test_engine_parity.py``
enforce.  Only speed may differ.

Two backends ship:

* ``"object"`` — the reference engine (the oracle),
  :func:`repro.local.simulator.run_synchronous`, unchanged;
* ``"vectorized"`` — the production engine,
  :func:`repro.local.vectorized.run_vectorized`, which runs opted-in
  algorithms as numpy struct-of-arrays kernels with zero per-node Python
  in the hot loop (and falls back to object semantics for the rest).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.api.errors import UnknownEngineError
from repro.api.types import MessagePassingProgram
from repro.local.network import Network
from repro.local.simulator import RoundTrace, RunResult, run_synchronous
from repro.local.vectorized import run_vectorized
from repro.utils import InvalidParameterError

#: Engine registry: name → engine instance.
ENGINES: dict[str, "Engine"] = {}

#: The engine used when a caller does not pick one.
DEFAULT_ENGINE = "object"


class Engine:
    """An execution backend for message-passing programs."""

    name: str = ""

    def run(
        self,
        network: Network,
        program: MessagePassingProgram,
        *,
        seed: int = 0,
        max_rounds: int = 10_000,
        probe: Callable[[RoundTrace], None] | None = None,
    ) -> RunResult:
        raise NotImplementedError


class _SimulatorEngine(Engine):
    """An engine delegating to a ``run_synchronous``-compatible runner.

    ``takes_spec`` runners additionally receive the program's
    :class:`~repro.api.types.VectorizedSpec` (``vectorized=``), so they
    can pick a batch kernel or fall back to object semantics.
    """

    def __init__(
        self, name: str, runner: Callable[..., RunResult], *, takes_spec: bool = False
    ) -> None:
        self.name = name
        self._runner = runner
        self._takes_spec = takes_spec

    def run(
        self,
        network: Network,
        program: MessagePassingProgram,
        *,
        seed: int = 0,
        max_rounds: int = 10_000,
        probe: Callable[[RoundTrace], None] | None = None,
    ) -> RunResult:
        rng_for = (
            program.rng_streams(network, seed) if program.rng_streams else None
        )
        spec = {"vectorized": program.vectorized} if self._takes_spec else {}
        return self._runner(
            network,
            program.factory,
            max_rounds=max_rounds,
            extra=program.extra,
            rng_for=rng_for,
            on_round=probe,
            **spec,
        )


def register_engine(engine: Engine) -> Engine:
    """Register (and return) an engine instance under its name."""
    if not engine.name:
        raise InvalidParameterError("engine must have a non-empty name")
    ENGINES[engine.name] = engine
    return engine


def available_engines() -> list[str]:
    """Sorted names of registered engines."""
    return sorted(ENGINES)


def resolve_engine(engine: "Engine | str") -> Engine:
    """Look an engine up by name (instances pass through)."""
    if isinstance(engine, Engine):
        return engine
    try:
        return ENGINES[engine]
    except KeyError:
        raise UnknownEngineError(engine, available_engines()) from None


register_engine(_SimulatorEngine("object", run_synchronous))
register_engine(_SimulatorEngine("vectorized", run_vectorized, takes_spec=True))
