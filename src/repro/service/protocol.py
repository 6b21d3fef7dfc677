"""The versioned wire protocol of the solve service.

Requests and responses are canonical-JSON dicts with explicit schema
tags, so clients and servers from different commits can refuse each
other loudly instead of mis-parsing silently:

* **request** (``repro.service/request-v1``) — ``kind: "solve"`` carries
  the arguments of :func:`repro.api.solve` (problem spec string or
  ``{"family", "parameters"}`` dict, algorithm, engine, n, seed,
  max_rounds, check, options); ``kind: "roundelim"`` carries a problem
  (spec string or a ``repro.normalize/v1`` payload), an operator
  (``R`` / ``R_bar`` / ``RE``), a search budget and a kernel engine.
  Fields a kind does not define are ignored: the canonical form drops
  them, so they change neither the digest nor the result.
* **response** (``repro.service/response-v1``) — ``status: "ok"`` with
  the result body, or ``status: "error"`` with a stable error code
  (:func:`repro.api.error_code`).  For solve requests the ``report``
  field is exactly ``json.loads(SolveReport.canonical_json())``, so
  ``canonical_dumps(response["report"])`` is byte-identical to the
  report a direct :func:`repro.api.solve` call renders — the property
  the PR 4 differential oracles (and CI's parity gate) compare.

:func:`canonicalize_request` is the heart of request dedup: it
alias-resolves and validates every field against the façade registries
and returns a *canonical* request dict, and :func:`request_digest`
hashes that dict **excluding the engine** — engines are observationally
equivalent by contract (reports exclude them from canonical JSON, the
store memoizes across them), so a vectorized-engine request must hit the
cache entry an object-engine request filled.
"""

from __future__ import annotations

from repro.api import (
    DEFAULT_ENGINE,
    ProblemSpec,
    resolve_engine,
)
from repro.api.facade import _check_options, _resolve_pair
from repro.formalism.normalize import (
    NORMAL_FORM_SCHEMA,
    normal_form,
    problem_from_payload,
)
from repro.roundelim.explore.store import OPERATORS
from repro.roundelim.operators import (
    DEFAULT_ENGINE as DEFAULT_RE_ENGINE,
    ENGINES as RE_ENGINES,
)
from repro.utils import ReproError
from repro.utils.serialization import result_digest, to_jsonable

REQUEST_SCHEMA = "repro.service/request-v1"
RESPONSE_SCHEMA = "repro.service/response-v1"
STATUS_SCHEMA = "repro.service/status-v1"

#: Request kinds the protocol defines.
KINDS = ("solve", "roundelim")

#: Default popped-configuration budget for roundelim requests (matches
#: the explorer's default step budget).
DEFAULT_ROUNDELIM_BUDGET = 100_000

#: Hex length of request digests.  Cache keys are identities, not
#: fingerprints, so they get twice the default digest length.
DIGEST_LENGTH = 32


class ProtocolError(ReproError):
    """A request violates the wire protocol (not merely the library API)."""

    code = "bad-request"

    def __init__(self, message: str, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


def _require_type(request: dict, field: str, types, default=None, required=False):
    value = request.get(field, default)
    if required and value is None:
        raise ProtocolError(f"request field {field!r} is required", "bad-field")
    if value is not None and not isinstance(value, types):
        raise ProtocolError(
            f"request field {field!r} has type {type(value).__name__}, "
            f"expected {'/'.join(t.__name__ for t in types)}",
            "bad-field",
        )
    # bool is an int subclass; reject it where an actual count is meant.
    if isinstance(value, bool) and bool not in types:
        raise ProtocolError(f"request field {field!r} must not be a bool", "bad-field")
    return value


def _parse_problem_field(problem) -> ProblemSpec:
    """A solve request's problem: spec string or {"family", "parameters"}."""
    if isinstance(problem, str):
        return ProblemSpec.parse(problem)
    if isinstance(problem, dict):
        family = problem.get("family")
        parameters = problem.get("parameters", {})
        if not isinstance(family, str) or not isinstance(parameters, dict):
            raise ProtocolError(
                "a structured problem needs a 'family' string and a "
                "'parameters' dict",
                "bad-field",
            )
        if not all(isinstance(key, str) for key in parameters):
            raise ProtocolError("problem parameter names must be strings", "bad-field")
        return ProblemSpec.create(family, **parameters)
    raise ProtocolError(
        f"request field 'problem' has type {type(problem).__name__}, "
        f"expected a spec string or a family/parameters dict",
        "bad-field",
    )


def _canonicalize_solve(request: dict) -> dict:
    spec = _parse_problem_field(
        _require_type(request, "problem", (str, dict), required=True)
    )
    algorithm = _require_type(request, "algorithm", (str,), required=True)
    engine = resolve_engine(
        _require_type(request, "engine", (str,), default=DEFAULT_ENGINE)
    )
    # Re-runs the façade's own pairing so a request that cannot solve is
    # rejected at the door (typed, with the family's alternatives listed)
    # instead of burning a worker slot.
    spec, algo = _resolve_pair(spec, algorithm)
    n = _require_type(request, "n", (int,))
    seed = _require_type(request, "seed", (int,), default=0)
    max_rounds = _require_type(request, "max_rounds", (int,), default=10_000)
    check = _require_type(request, "check", (bool,), default=True)
    options = _require_type(request, "options", (dict,), default={})
    if n is not None and n < 1:
        raise ProtocolError(f"request field 'n' must be >= 1, got {n}", "bad-field")
    if max_rounds < 1:
        raise ProtocolError(
            f"request field 'max_rounds' must be >= 1, got {max_rounds}", "bad-field"
        )
    for key in options:
        if not isinstance(key, str):
            raise ProtocolError("option keys must be strings", "bad-field")
    # An option the algorithm does not declare (a typo, or a façade
    # argument such as "seed") is refused here, before it reaches a worker.
    _check_options(algo, options)
    return {
        "schema": REQUEST_SCHEMA,
        "kind": "solve",
        "problem": spec.spec,
        "algorithm": algo.name,
        "engine": engine.name,
        "n": n,
        "seed": seed,
        "max_rounds": max_rounds,
        "check": check,
        "options": to_jsonable(dict(sorted(options.items()))),
    }


def _canonicalize_roundelim(request: dict) -> dict:
    problem = _require_type(request, "problem", (str, dict), required=True)
    if isinstance(problem, str):
        built = ProblemSpec.parse(problem).build()
    else:
        payload = dict(problem)
        schema = payload.pop("schema", NORMAL_FORM_SCHEMA)
        if schema != NORMAL_FORM_SCHEMA:
            raise ProtocolError(
                f"unsupported problem payload schema {schema!r}; expected "
                f"{NORMAL_FORM_SCHEMA!r}",
                "unsupported-schema",
            )
        built = problem_from_payload(payload)
    form = normal_form(built)
    op = _require_type(request, "op", (str,), required=True)
    if op not in OPERATORS:
        raise ProtocolError(
            f"unknown operator {op!r}; known: {list(OPERATORS)}", "bad-field"
        )
    budget = _require_type(
        request, "budget", (int,), default=DEFAULT_ROUNDELIM_BUDGET
    )
    if budget < 1:
        raise ProtocolError(
            f"request field 'budget' must be >= 1, got {budget}", "bad-field"
        )
    engine = _require_type(request, "engine", (str,), default=DEFAULT_RE_ENGINE)
    if engine not in RE_ENGINES:
        raise ProtocolError(
            f"unknown roundelim engine {engine!r}; known: {sorted(RE_ENGINES)}",
            "bad-field",
        )
    return {
        "schema": REQUEST_SCHEMA,
        "kind": "roundelim",
        "problem_digest": form.digest,
        "problem": form.payload,
        "op": op,
        "budget": budget,
        "engine": engine,
    }


def canonicalize_request(request) -> dict:
    """Validate a raw request dict and return its canonical form.

    Raises :class:`ProtocolError` for wire-shape violations and the
    façade's typed errors (:class:`~repro.api.SpecError`,
    :class:`~repro.api.UnknownAlgorithmError`, ...) for library-level
    ones — each carries the stable code the error response reports.
    """
    if not isinstance(request, dict):
        raise ProtocolError(
            f"a request must be a JSON object, got {type(request).__name__}"
        )
    schema = request.get("schema")
    if schema != REQUEST_SCHEMA:
        raise ProtocolError(
            f"unsupported request schema {schema!r}; this server speaks "
            f"{REQUEST_SCHEMA!r}",
            "unsupported-schema",
        )
    kind = request.get("kind")
    if kind not in KINDS:
        raise ProtocolError(
            f"unknown request kind {kind!r}; known kinds: {list(KINDS)}",
            "unknown-kind",
        )
    if kind == "solve":
        return _canonicalize_solve(request)
    return _canonicalize_roundelim(request)


def request_digest(canonical: dict) -> str:
    """The content digest a canonical request is cached and deduped under.

    Excludes the engine: engines are observationally equivalent by
    contract (the façade and operator guarantees), so requests differing
    only in engine share one cache entry and one in-flight solve.
    """
    keyed = {key: value for key, value in canonical.items() if key != "engine"}
    return result_digest(keyed, length=DIGEST_LENGTH)


def solve_request(
    problem,
    *,
    algorithm: str,
    engine: str | None = None,
    n: int | None = None,
    seed: int = 0,
    max_rounds: int = 10_000,
    check: bool = True,
    options: dict | None = None,
) -> dict:
    """Build a raw ``kind="solve"`` request (mirrors :func:`repro.api.solve`)."""
    if isinstance(problem, ProblemSpec):
        problem = problem.spec
    request = {
        "schema": REQUEST_SCHEMA,
        "kind": "solve",
        "problem": problem,
        "algorithm": algorithm,
        "seed": seed,
        "max_rounds": max_rounds,
        "check": check,
    }
    if engine is not None:
        request["engine"] = engine
    if n is not None:
        request["n"] = n
    if options:
        request["options"] = options
    return request


def roundelim_request(
    problem,
    *,
    op: str,
    budget: int = DEFAULT_ROUNDELIM_BUDGET,
    engine: str | None = None,
) -> dict:
    """Build a raw ``kind="roundelim"`` request."""
    request = {
        "schema": REQUEST_SCHEMA,
        "kind": "roundelim",
        "problem": problem,
        "op": op,
        "budget": budget,
    }
    if engine is not None:
        request["engine"] = engine
    return request


def ok_response(kind: str, digest: str, record: dict, *, cached: bool) -> dict:
    """Assemble a ``status="ok"`` response envelope.

    ``record`` is the cached result body: for ``solve`` it becomes the
    ``report`` field (byte-identical to the direct
    ``SolveReport.canonical_json()``), for ``roundelim`` the ``result``
    field (the store's operator-outcome shape).
    """
    body_field = "report" if kind == "solve" else "result"
    return {
        "schema": RESPONSE_SCHEMA,
        "status": "ok",
        "kind": kind,
        "digest": digest,
        "cached": cached,
        body_field: record,
    }


def render_ok_response(
    kind: str, digest: str, record_json: str, *, cached: bool
) -> str:
    """The canonical-bytes fast path of :func:`ok_response`.

    Splices a pre-rendered canonical record (``canonical_dumps(record)``)
    into the envelope without deserializing or re-serializing it, so a
    cache hit costs a string concatenation rather than a JSON encode of
    the whole report.  The result is byte-identical to
    ``canonical_dumps(ok_response(kind, digest, record, cached=cached))``
    — the envelope's keys are emitted in sorted order with canonical
    separators (pinned by the protocol tests).
    """
    body_field = "report" if kind == "solve" else "result"
    return (
        f'{{"cached":{"true" if cached else "false"},"digest":"{digest}",'
        f'"kind":"{kind}","{body_field}":{record_json},'
        f'"schema":"{RESPONSE_SCHEMA}","status":"ok"}}'
    )


def error_response(
    code: str, message: str, *, retry_after: float | None = None
) -> dict:
    """Assemble a ``status="error"`` response envelope.

    ``retry_after`` (seconds) rides along for back-pressure codes
    (``overloaded``, ``service-closed``); the HTTP layer surfaces it as
    a ``Retry-After`` header and retrying clients honor it.
    """
    error = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {
        "schema": RESPONSE_SCHEMA,
        "status": "error",
        "error": error,
    }
