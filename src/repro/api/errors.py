"""Typed exception hierarchy of the :mod:`repro.api` façade.

Every error the façade raises carries a stable machine-readable ``code``
alongside its human message, so programmatic callers — most importantly
the solve service (:mod:`repro.service`), which must map failures to
structured wire responses — never parse message text.  All classes
subclass :class:`~repro.utils.exceptions.InvalidParameterError`, so
existing ``except InvalidParameterError`` call sites (and the test
suite's expectations) keep working unchanged.

The listings embedded in the messages ("registered algorithms are ...")
are built from the same registries the introspection helpers
(:mod:`repro.api.introspection`) expose — one source of truth for what
exists, whether it is rendered into an error or returned as data.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.utils import (
    FormalismError,
    InvalidParameterError,
    ReproError,
    SolverLimitError,
)


class ApiError(InvalidParameterError):
    """Base class for façade errors; ``code`` is part of the wire contract."""

    code = "api-error"


class SpecError(ApiError):
    """A problem spec (or a façade argument) is malformed or unusable."""

    code = "bad-spec"


class UnknownAlgorithmError(ApiError):
    """A name resolved against the algorithm registry does not exist."""

    code = "unknown-algorithm"

    def __init__(self, name: str, available: Sequence[str]) -> None:
        super().__init__(
            f"unknown algorithm {name!r}; registered: {list(available)}"
        )
        self.name = name
        self.available = list(available)


class UnknownEngineError(ApiError):
    """A name resolved against the engine registry does not exist."""

    code = "unknown-engine"

    def __init__(self, name: str, available: Sequence[str]) -> None:
        super().__init__(f"unknown engine {name!r}; registered: {list(available)}")
        self.name = name
        self.available = list(available)


class AlgorithmMismatchError(ApiError):
    """A registered algorithm was asked to solve a family it does not declare."""

    code = "algorithm-mismatch"

    def __init__(
        self, algorithm: str, family: str,
        solves: Sequence[str], alternatives: Sequence[str],
    ) -> None:
        super().__init__(
            f"algorithm {algorithm!r} does not solve family {family!r} "
            f"(it solves: {list(solves)}); algorithms for {family!r}: "
            f"{list(alternatives)}"
        )
        self.algorithm = algorithm
        self.family = family


def error_code(error: BaseException) -> str:
    """The stable wire code for an exception.

    Typed façade errors carry their own ``code``; everything else gets a
    coarse bucket so a service response is always classifiable:
    ``budget-exhausted`` (truncated searches), ``bad-problem`` (formalism
    parse/shape errors), ``bad-parameter`` (untyped parameter errors),
    ``library-error`` (other :class:`ReproError`), and ``internal`` for
    anything unexpected.
    """
    code = getattr(error, "code", None)
    if isinstance(code, str) and code:
        return code
    if isinstance(error, SolverLimitError):
        return "budget-exhausted"
    if isinstance(error, FormalismError):
        return "bad-problem"
    if isinstance(error, InvalidParameterError):
        return "bad-parameter"
    if isinstance(error, ReproError):
        return "library-error"
    return "internal"
