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
  :func:`repro.local.vectorized.run_vectorized`, which runs a program's
  registered numpy struct-of-arrays kernel with zero per-node Python in
  the hot loop (a program without one is refused).

Both read the program's one knowledge declaration (``per_node`` and
``shared``): the object engine projects it per node into ``ctx.extra``,
the kernels take the maps whole.  Each engine keeps its runner as
``_runner``, so a tracer can wrap the run without touching the adapter.
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


def _rng_for(program: MessagePassingProgram, network: Network, seed: int):
    return program.rng_streams(network, seed) if program.rng_streams else None


class _ObjectEngine(Engine):
    """The oracle: :func:`run_synchronous`, one node program per node."""

    name = "object"

    def __init__(self) -> None:
        self._runner = run_synchronous

    def run(
        self,
        network: Network,
        program: MessagePassingProgram,
        *,
        seed: int = 0,
        max_rounds: int = 10_000,
        probe: Callable[[RoundTrace], None] | None = None,
    ) -> RunResult:
        shared, per_node = program.shared, program.per_node

        def extra(node) -> dict:
            own = {key: values[node] for key, values in per_node.items()}
            return {**shared, **own}

        return self._runner(
            network,
            program.factory,
            max_rounds=max_rounds,
            extra=extra,
            rng_for=_rng_for(program, network, seed),
            on_round=probe,
        )


class _VectorizedEngine(Engine):
    """The production engine: :func:`run_vectorized` on the program's kernel."""

    name = "vectorized"

    def __init__(self) -> None:
        self._runner = run_vectorized

    def run(
        self,
        network: Network,
        program: MessagePassingProgram,
        *,
        seed: int = 0,
        max_rounds: int = 10_000,
        probe: Callable[[RoundTrace], None] | None = None,
    ) -> RunResult:
        return self._runner(
            network,
            program.kernel,
            program.per_node,
            program.shared,
            max_rounds=max_rounds,
            rng_for=_rng_for(program, network, seed),
            on_round=probe,
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


register_engine(_ObjectEngine())
register_engine(_VectorizedEngine())
