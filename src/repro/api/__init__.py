"""Unified façade: problems × algorithms × engines × checkers.

The paper's pipeline — pick a problem family, run a LOCAL-model algorithm
on a graph, check the output, measure rounds — as one coherent API:

* **problems** are named by spec strings (``"matching:Δ=4,x=0,y=1"``)
  resolved through :mod:`repro.problems.registry`
  (:class:`ProblemSpec`);
* **algorithms** are name-registered adapters with declared problem
  compatibility (``"matching:proposal"``, ``"mis:aapr23"``, ...) — the
  :mod:`repro.algorithms` modules register themselves on import
  (:class:`Algorithm`, :func:`available_algorithms`);
* **engines** are pluggable execution backends behind a common
  ``Engine.run(network, program, *, seed, max_rounds, probe)`` contract —
  ``"object"`` (the reference simulator) and ``"vectorized"`` (numpy
  struct-of-arrays kernels) ship, and both must be observationally
  identical (:class:`Engine`, :func:`available_engines`);
* the façade functions :func:`solve`, :func:`check` and :func:`simulate`
  compose them end-to-end, returning a unified :class:`SolveReport`.

Quickstart::

    from repro import api
    report = api.solve("matching:Δ=4,x=0,y=1",
                       algorithm="matching:proposal",
                       engine="vectorized", seed=0)
    assert report.valid and report.rounds > 0
"""

from repro.api.engines import (
    DEFAULT_ENGINE,
    ENGINES,
    Engine,
    available_engines,
    register_engine,
    resolve_engine,
)
from repro.api.errors import (
    AlgorithmMismatchError,
    ApiError,
    SpecError,
    UnknownAlgorithmError,
    UnknownEngineError,
    error_code,
)
from repro.api.networks import family_network
from repro.api.registry import (
    ALGORITHMS,
    Algorithm,
    available_algorithms,
    register_algorithm,
    resolve_algorithm,
)
from repro.api.types import (
    REPORT_SCHEMA,
    MessagePassingProgram,
    ProblemSpec,
    SolveReport,
)

# Importing repro.algorithms triggers the self-registration of every
# algorithm module; it must come after the registry import above and
# before the façade is usable.
import repro.algorithms  # noqa: E402,F401  (imported for registration side effect)

from repro.api.facade import FAMILY_CHECKERS, check, simulate, solve
from repro.api.introspection import (
    describe,
    list_algorithms,
    list_engines,
    list_solvers,
)

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "AlgorithmMismatchError",
    "ApiError",
    "DEFAULT_ENGINE",
    "ENGINES",
    "Engine",
    "FAMILY_CHECKERS",
    "MessagePassingProgram",
    "ProblemSpec",
    "REPORT_SCHEMA",
    "SolveReport",
    "SpecError",
    "UnknownAlgorithmError",
    "UnknownEngineError",
    "available_algorithms",
    "available_engines",
    "check",
    "describe",
    "error_code",
    "family_network",
    "list_algorithms",
    "list_engines",
    "list_solvers",
    "register_algorithm",
    "register_engine",
    "resolve_algorithm",
    "resolve_engine",
    "simulate",
    "solve",
]
