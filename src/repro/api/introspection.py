"""Introspection helpers: the registries as data.

The façade's registries used to be enumerable only through the
hand-rolled listings embedded in error messages and the experiments CLI.
These helpers expose the same information as structured records, and the
error messages / ``python -m repro.experiments list`` are rebuilt on top
of them — one description of "what exists", rendered everywhere:

* :func:`list_algorithms` — every registered algorithm with its
  families and description;
* :func:`list_engines` — every execution backend (and which one is the
  default);
* :func:`describe` — everything the façade knows about one problem
  spec: canonical spelling, parameters, compatible algorithms, whether
  a validity checker exists.

All records are plain JSON-able dicts, so the solve service's
``/v1/status`` endpoint can embed them verbatim.
"""

from __future__ import annotations

from repro.api.engines import DEFAULT_ENGINE, ENGINES, available_engines
from repro.api.registry import ALGORITHMS, available_algorithms
from repro.api.types import ProblemSpec
from repro.problems.registry import family_parameters


def list_algorithms(family: str | None = None) -> list[dict]:
    """Registered algorithms as records, optionally filtered by family.

    Each record: ``{"name", "families", "description"}``, sorted by
    name (the order :func:`available_algorithms` guarantees).
    """
    return [
        {
            "name": name,
            "families": list(ALGORITHMS[name].families),
            "description": ALGORITHMS[name].description,
        }
        for name in available_algorithms(family)
    ]


def list_engines() -> list[dict]:
    """Registered engines as records: ``{"name", "default"}``, sorted."""
    return [
        {
            "name": name,
            "default": name == DEFAULT_ENGINE,
            "type": type(ENGINES[name]).__name__,
        }
        for name in available_engines()
    ]


def list_solvers() -> list[dict]:
    """Registered solver backends as records, sorted by name.

    Each record: ``{"name", "default", "description", "budget_unit"}`` —
    the decision-procedure registry of :mod:`repro.solvers.backends`
    (the CSP/SAT pair), as opposed to the simulation engines of
    :func:`list_engines`.
    """
    from repro.solvers.backends import BACKENDS, DEFAULT_BACKEND

    return [
        {
            "name": name,
            "default": name == DEFAULT_BACKEND,
            "description": description,
            "budget_unit": unit,
        }
        for name, (_factory, description, unit) in sorted(BACKENDS.items())
    ]


def describe(problem: ProblemSpec | str) -> dict:
    """Everything the façade knows about one problem spec.

    Parses (and therefore validates) the spec, then reports its
    canonical spelling, the normalized parameters, the family's full
    constructor-parameter list, the algorithms declaring the family,
    whether :func:`repro.api.check` can validate solutions for it, and
    the engines any of those algorithms may run on.
    """
    # Imported here: facade imports the registries this module also
    # imports, so a module-level import would be circular during
    # ``repro.api`` package initialization.
    from repro.api.facade import FAMILY_CHECKERS

    spec = ProblemSpec.parse(problem)
    return {
        "spec": spec.spec,
        "family": spec.family,
        "parameters": spec.parameters,
        "family_parameters": family_parameters(spec.family),
        "algorithms": available_algorithms(spec.family),
        "checkable": spec.family in FAMILY_CHECKERS,
        "engines": available_engines(),
    }
