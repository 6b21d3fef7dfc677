"""Name-based registry for the paper's problem families.

Lets examples, benchmarks and the :mod:`repro.api` façade construct
problems from specification strings (``"matching:Δ=4,x=0,y=1"``) and
keeps a single source of truth for which families the library implements.

A *spec string* is ``family`` or ``family:key=value,key=value,...``.
Keys accept the paper's notation as aliases (``Δ`` for ``delta``, ``α``
for ``alpha``, ``β`` for ``beta``, ``c`` for ``colors``); values are
integers.  Errors name the available families and, once a family is
fixed, its expected parameter names — so a typo in a benchmark config is
diagnosable without opening this file.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable

from repro.formalism.problems import Problem
from repro.problems.arbdefective import pi_arbdefective, sinkless_coloring_problem
from repro.problems.classic import (
    mis_family_problem,
    outdegree_dominating_set_problem,
    proper_coloring_problem,
    sinkless_orientation_problem,
)
from repro.problems.matching import (
    maximal_matching_problem,
    pi_matching,
    validate_xy_parameters,
)
from repro.problems.ruling_sets import pi_ruling
from repro.utils import InvalidParameterError

FAMILIES: dict[str, Callable[..., Problem]] = {
    "matching": pi_matching,
    "maximal-matching": maximal_matching_problem,
    "arbdefective": pi_arbdefective,
    "ruling-set": pi_ruling,
    "sinkless-orientation": sinkless_orientation_problem,
    "sinkless-coloring": sinkless_coloring_problem,
    "coloring": proper_coloring_problem,
    "mis": mis_family_problem,
    "outdegree-dominating": outdegree_dominating_set_problem,
}

#: Paper-notation aliases accepted in spec strings and keyword parameters.
PARAMETER_ALIASES: dict[str, str] = {
    "Δ": "delta",
    "δ": "delta",
    "Δ'": "delta_prime",
    "Δ′": "delta_prime",
    "α": "alpha",
    "β": "beta",
    "c": "colors",
}


def available_families() -> list[str]:
    """Sorted names of constructible families."""
    return sorted(FAMILIES)


def family_parameters(family: str) -> list[str]:
    """The parameter names a family's constructor expects, in order."""
    constructor = _constructor(family)
    return list(inspect.signature(constructor).parameters)


def _constructor(family: str) -> Callable[..., Problem]:
    try:
        return FAMILIES[family]
    except KeyError:
        raise InvalidParameterError(
            f"unknown problem family {family!r}; available families: "
            f"{', '.join(available_families())}"
        ) from None


#: Lightweight per-parameter lower bounds, checkable without constructing
#: the (combinatorially expanding) formalism problem.
_PARAMETER_MINIMUMS = {
    "delta": 2,
    "delta_prime": 1,
    "colors": 1,
    "beta": 1,
    "y": 1,
    "x": 0,
    "alpha": 0,
}


def validate_parameters(family: str, parameters: dict[str, int]) -> None:
    """Cheap range validation of normalized parameters.

    Constructing a formalism problem expands condensed configurations —
    exponential in Δ — so façade code validates ranges here instead of
    building and discarding the problem.  Only parameters that are
    present are checked; the constructor remains the authority when the
    problem is actually built.
    """
    for name, value in parameters.items():
        minimum = _PARAMETER_MINIMUMS.get(name)
        if minimum is not None and value < minimum:
            raise InvalidParameterError(
                f"family {family!r} parameter {name}={value} is out of "
                f"range (need {name} ≥ {minimum})"
            )
    if family == "matching" and {"delta", "x", "y"} <= set(parameters):
        validate_xy_parameters(
            parameters["delta"], parameters["x"], parameters["y"]
        )


def normalize_parameters(family: str, parameters: dict) -> dict[str, int]:
    """Resolve aliases and validate names against the family's constructor.

    Raises :class:`InvalidParameterError` naming the unknown key and the
    expected parameter names when a key matches neither a constructor
    parameter nor an alias for one; values must pass the lightweight
    range checks of :func:`validate_parameters`.
    """
    expected = family_parameters(family)
    normalized: dict[str, int] = {}
    for key, value in parameters.items():
        name = PARAMETER_ALIASES.get(key, key)
        if name not in expected:
            raise InvalidParameterError(
                f"family {family!r} has no parameter {key!r}; expected "
                f"parameters: {', '.join(expected)} (aliases: "
                f"{', '.join(sorted(PARAMETER_ALIASES))})"
            )
        if name in normalized:
            raise InvalidParameterError(
                f"parameter {name!r} given twice for family {family!r}"
            )
        normalized[name] = value
    validate_parameters(family, normalized)
    return normalized


def parse_spec(spec: str) -> tuple[str, dict[str, int]]:
    """Split a spec string into (family, normalized parameters).

    ``"matching:Δ=4,x=0,y=1"`` → ``("matching", {"delta": 4, "x": 0,
    "y": 1})``.  The family must exist and every key must name one of its
    constructor parameters (directly or via a paper-notation alias).
    """
    family, _, rest = spec.partition(":")
    family = family.strip()
    _constructor(family)  # fail fast with the family-listing message
    parameters: dict[str, int] = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, text = item.partition("=")
            key = key.strip()
            if not eq or not key or not text.strip():
                raise InvalidParameterError(
                    f"malformed parameter {item!r} in spec {spec!r}; expected "
                    f"key=value with keys from: "
                    f"{', '.join(family_parameters(family))}"
                )
            try:
                value = int(text)
            except ValueError:
                raise InvalidParameterError(
                    f"parameter {key!r} in spec {spec!r} has non-integer "
                    f"value {text.strip()!r}"
                ) from None
            parameters[key] = value
    return family, normalize_parameters(family, parameters)


def build_problem(family: str, **parameters: int) -> Problem:
    """Construct a problem by family name and keyword parameters.

    Example: ``build_problem("matching", delta=4, x=0, y=1)``.  Keyword
    aliases (``Δ``, ``α``, ``β``, ``c``) are accepted; missing required
    parameters raise with the expected names listed.
    """
    constructor = _constructor(family)
    normalized = normalize_parameters(family, parameters)
    try:
        # Bind explicitly so only missing/extra-argument errors are
        # translated; a TypeError raised *inside* the constructor is a
        # real defect and must propagate with its traceback.
        inspect.signature(constructor).bind(**normalized)
    except TypeError:
        raise InvalidParameterError(
            f"family {family!r} expects parameters "
            f"({', '.join(family_parameters(family))}); got "
            f"({', '.join(sorted(normalized)) or 'none'})"
        ) from None
    return constructor(**normalized)
