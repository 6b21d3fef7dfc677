"""A resilient stdlib client for the solve service — no dependencies.

:class:`ServiceClient` wraps the endpoints and the request builders, so
tests, benchmarks and the CLI all speak to the daemon the same way::

    client = ServiceClient("http://127.0.0.1:8642")
    response = client.solve("matching:delta=3", algorithm="matching:proposal")
    canonical_dumps(response["report"])   # == direct solve bytes

Transport discipline (requests are idempotent by digest, so retrying is
always safe):

* separate **connect** and **read** timeouts — a dead host fails fast,
  a slow solve gets the full read budget, and neither can hang a caller
  forever (the urllib default this class replaced had no timeout);
* transient failures (refused/dropped connections, timeouts, HTTP 503)
  are retried with **exponential backoff + jitter**; a 503 carrying a
  ``Retry-After`` header (the daemon's overload shedding) is honored in
  both RFC 9110 forms — delta-seconds and HTTP-date — and the hint
  replaces the computed backoff for that attempt (clamped to the cap);
* when the retry budget is exhausted, :class:`ServiceUnavailableError`
  is raised carrying ``attempts``.

Protocol- and library-level failures still come back as
``status="error"`` response dicts (the server maps every exception to
one), so callers branch on the response, not on exception types.

``sleep`` and ``rng`` are injectable so tests (and the chaos harness)
run retry schedules without real waiting; a
:class:`~repro.reliability.faults.FaultClock` injects connection drops
at the ``client.send`` / ``client.recv`` sites.
"""

from __future__ import annotations

import datetime
import email.utils
import http.client
import json
import random
import socket
import time
import urllib.parse

from repro.reliability.faults import FaultClock, check_fault
from repro.service.protocol import roundelim_request, solve_request
from repro.utils import InvalidParameterError, ReproError
from repro.utils.serialization import canonical_dumps

#: Read timeout (seconds): the budget for the solve itself.
DEFAULT_TIMEOUT = 60.0

#: Connect timeout (seconds): detecting a dead host should be fast.
DEFAULT_CONNECT_TIMEOUT = 5.0

#: Transient-failure retries after the first attempt.
DEFAULT_RETRIES = 3

#: First backoff delay (seconds); doubles per retry up to the cap.
DEFAULT_BACKOFF = 0.2
DEFAULT_MAX_BACKOFF = 5.0

#: Jitter fraction: each delay is scaled by 1 + jitter * U[0, 1).
DEFAULT_JITTER = 0.25


def _parse_retry_after(value: str, now: float) -> float | None:
    """Both RFC 9110 ``Retry-After`` forms, as seconds from ``now``.

    ``Retry-After: 120`` (delta-seconds) parses directly; ``Retry-After:
    Fri, 31 Dec 1999 23:59:59 GMT`` (HTTP-date) becomes the remaining
    wait relative to ``now``.  Anything unparsable is no hint (``None``);
    a date already in the past yields a non-positive delta, which the
    backoff schedule floors at zero.
    """
    try:
        return float(value)
    except ValueError:
        pass
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        # RFC 9110 requires GMT; a missing zone designator means GMT too.
        when = when.replace(tzinfo=datetime.timezone.utc)
    return when.timestamp() - now


class ServiceUnavailableError(ReproError):
    """The service could not be reached; carries the attempt count."""

    code = "service-unavailable"

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


class ServiceClient:
    """HTTP client for one solve-service daemon."""

    def __init__(
        self,
        url: str,
        *,
        timeout: float = DEFAULT_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
        jitter: float = DEFAULT_JITTER,
        sleep=time.sleep,
        rng: random.Random | None = None,
        clock=time.time,
        fault_clock: FaultClock | None = None,
    ) -> None:
        if retries < 0:
            raise InvalidParameterError("retries must be >= 0")
        parsed = urllib.parse.urlsplit(url.rstrip("/"))
        if parsed.scheme != "http" or not parsed.hostname:
            raise InvalidParameterError(
                f"service URL must be http://host[:port], got {url!r}"
            )
        self.url = url.rstrip("/")
        self.host = parsed.hostname
        self.port = parsed.port if parsed.port is not None else 80
        self.base_path = parsed.path.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.sleep = sleep
        self.rng = rng if rng is not None else random.Random()
        self.clock = clock
        self.fault_clock = fault_clock
        self.stats = {"attempts": 0, "retried": 0}

    # -- transport ---------------------------------------------------------

    def _delay(self, attempt: int, hint: float | None) -> float:
        """The pre-retry delay: server hint if given, else backoff+jitter."""
        if hint is not None:
            return min(max(hint, 0.0), self.max_backoff)
        base = min(self.backoff * (2 ** (attempt - 1)), self.max_backoff)
        return base * (1.0 + self.jitter * self.rng.random())

    def _attempt(self, path: str, payload: dict | None):
        """One HTTP round-trip: ``(status, retry_after_hint, body_text)``."""
        if check_fault(self.fault_clock, "client.send") is not None:
            raise ConnectionResetError("injected connection drop before request")
        method = "GET" if payload is None else "POST"
        body = None
        headers = {}
        if payload is not None:
            body = canonical_dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout
        )
        try:
            connection.connect()
            # Connected: widen the socket deadline from the connect
            # budget to the read budget (the solve itself may be slow).
            if connection.sock is not None:
                connection.sock.settimeout(self.timeout)
            connection.request(method, self.base_path + path, body, headers)
            response = connection.getresponse()
            status = response.status
            retry_after = response.getheader("Retry-After")
            if check_fault(self.fault_clock, "client.recv") is not None:
                raise ConnectionResetError(
                    "injected connection drop mid-response"
                )
            text = response.read().decode("utf-8", errors="replace")
        finally:
            connection.close()
        hint = None
        if retry_after is not None:
            hint = _parse_retry_after(retry_after, self.clock())
        return status, hint, text

    def _call(self, path: str, payload: dict | None = None) -> dict:
        target = f"{self.url}{path}"
        attempts = 0
        last_failure = "no attempt made"
        while attempts <= self.retries:
            attempts += 1
            self.stats["attempts"] += 1
            hint = None
            try:
                status, hint, text = self._attempt(path, payload)
            except (
                ConnectionError,
                TimeoutError,
                socket.timeout,
                socket.gaierror,
                http.client.HTTPException,
                OSError,
            ) as error:
                last_failure = f"{type(error).__name__}: {error}"
            else:
                if status == 503:
                    # Back-pressure (overloaded / shutting down): honor
                    # the daemon's Retry-After and try again.
                    last_failure = f"HTTP 503 from {target}"
                else:
                    try:
                        return json.loads(text)
                    except json.JSONDecodeError as error:
                        # Not the protocol at all (wrong port, a proxy):
                        # retrying will not help.
                        raise ServiceUnavailableError(
                            f"non-protocol HTTP {status} from {target}: "
                            f"{text[:200]}",
                            attempts=attempts,
                        ) from error
            if attempts <= self.retries:
                self.stats["retried"] += 1
                self.sleep(self._delay(attempts, hint))
        raise ServiceUnavailableError(
            f"cannot reach solve service at {target} after {attempts} "
            f"attempts: {last_failure}",
            attempts=attempts,
        )

    # -- endpoints ---------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """POST one raw request-v1 dict; returns the response-v1 dict."""
        return self._call("/v1/request", payload)

    def solve(self, problem, *, algorithm, engine=None, n=None, seed=0,
              max_rounds=10_000, check=True, options=None) -> dict:
        """Solve via the service (mirrors :func:`repro.api.solve`)."""
        return self.request(solve_request(
            problem, algorithm=algorithm, engine=engine, n=n, seed=seed,
            max_rounds=max_rounds, check=check, options=options,
        ))

    def roundelim(self, problem, *, op, budget=None, engine=None) -> dict:
        """Run one round-elimination operator step via the service."""
        kwargs = {"op": op}
        if budget is not None:
            kwargs["budget"] = budget
        if engine is not None:
            kwargs["engine"] = engine
        return self.request(roundelim_request(problem, **kwargs))

    def status(self) -> dict:
        return self._call("/v1/status")

    def protocol(self) -> dict:
        return self._call("/v1/protocol")

    def shutdown(self) -> dict:
        return self._call("/v1/shutdown", {})

    def ping(self) -> bool:
        """True when the daemon answers its status endpoint."""
        try:
            self.status()
            return True
        except ServiceUnavailableError:
            return False
