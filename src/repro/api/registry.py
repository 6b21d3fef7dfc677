"""The :class:`Algorithm` protocol and its name registry.

An *algorithm* is a registered, problem-aware adapter around one of the
library's distributed algorithms.  Registration gives it a stable name
(``"matching:proposal"``, ``"mis:aapr23"``), declares which problem
families it can solve and which solve options it reads, and binds the
three pieces the façade needs:

* how to compile itself into a :class:`MessagePassingProgram` for an
  engine (:meth:`Algorithm.program`);
* how to turn raw per-node engine outputs into a solution object
  (:meth:`Algorithm.finalize`);
* what network to run on when the caller supplies none
  (:meth:`Algorithm.default_network`).

The :mod:`repro.algorithms` modules register themselves on import; this
module must therefore never import them (the façade package's
``__init__`` closes the loop).
"""

from __future__ import annotations

from repro.api.errors import UnknownAlgorithmError
from repro.api.networks import family_network
from repro.api.types import MessagePassingProgram, ProblemSpec
from repro.local.network import Network
from repro.utils import InvalidParameterError

#: Algorithm registry: name → registered instance.
ALGORITHMS: dict[str, "Algorithm"] = {}


class Algorithm:
    """Base class for registered algorithms.

    Subclasses set ``name``, ``families`` and ``options``, then override
    :meth:`program` and :meth:`finalize`.
    """

    #: Registry name, conventionally ``"<family>:<variant>"``.
    name: str = ""
    #: Problem families (registry names) this algorithm can solve.
    families: tuple[str, ...] = ()
    #: The solve options :meth:`program` reads; the façade rejects others.
    options: tuple[str, ...] = ()
    description: str = ""

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        """Compile into an engine-executable program."""
        raise NotImplementedError

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: dict
    ) -> object:
        """Convert raw per-node engine outputs into the solution object."""
        return outputs

    def default_network(
        self, spec: ProblemSpec, *, n: int | None, seed: int
    ) -> Network:
        """The network :func:`repro.api.solve` uses when given none."""
        return family_network(spec, n=n, seed=seed)

    def supports(self, family: str) -> bool:
        return family in self.families


def register_algorithm(algorithm: Algorithm) -> Algorithm:
    """Register (and return) an algorithm instance under its name."""
    if not algorithm.name or ":" not in algorithm.name:
        raise InvalidParameterError(
            f"algorithm name {algorithm.name!r} must look like "
            f"'<family>:<variant>'"
        )
    if not algorithm.families:
        raise InvalidParameterError(
            f"algorithm {algorithm.name!r} declares no compatible families"
        )
    existing = ALGORITHMS.get(algorithm.name)
    if existing is not None and type(existing) is not type(algorithm):
        raise InvalidParameterError(
            f"algorithm name {algorithm.name!r} is already registered "
            f"by {type(existing).__name__}"
        )
    ALGORITHMS[algorithm.name] = algorithm
    return algorithm


def available_algorithms(family: str | None = None) -> list[str]:
    """Sorted registered names, optionally filtered by problem family."""
    return sorted(
        name
        for name, algorithm in ALGORITHMS.items()
        if family is None or algorithm.supports(family)
    )


def resolve_algorithm(name: str) -> Algorithm:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise UnknownAlgorithmError(name, available_algorithms()) from None
