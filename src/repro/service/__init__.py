"""Digest-keyed solve service: a long-running daemon over :mod:`repro.api`.

The service canonicalizes each request to a content digest, coalesces
concurrent identical requests into a single in-flight solve, answers
repeats from a two-tier (LRU + on-disk) report cache, and fans fresh
work across a batching worker pool.  Responses carry the same canonical
bytes a direct :func:`repro.api.solve` call produces.

Layers (transport-agnostic core, thin skins):

* :mod:`repro.service.protocol` — versioned wire protocol + request digests
* :mod:`repro.service.cache` — the digest-keyed two-tier report cache
* :mod:`repro.service.worker` — pure request execution (run by the
  supervised pool of :mod:`repro.reliability.supervise`)
* :mod:`repro.service.server` — :class:`SolveService` (dedup + dispatch)
* :mod:`repro.service.httpd` — stdlib HTTP transport
* :mod:`repro.service.client` — retrying stdlib client (timeouts, backoff)
* :mod:`repro.service.cli` — ``python -m repro.service`` (serve/request/status)

Reliability (worker supervision, fault injection, crash-safe storage)
comes from :mod:`repro.reliability` and is threaded through every layer.
"""

from repro.service.cache import CacheStats, ReportCache
from repro.service.client import ServiceClient, ServiceUnavailableError
from repro.service.httpd import ServiceHTTPServer, start_http_service
from repro.service.protocol import (
    KINDS,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    STATUS_SCHEMA,
    ProtocolError,
    canonicalize_request,
    error_response,
    ok_response,
    request_digest,
    roundelim_request,
    solve_request,
)
from repro.service.server import (
    ServiceClosedError,
    ServiceOverloadedError,
    SolveService,
)
from repro.service.worker import compute_result

__all__ = [
    "KINDS",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "STATUS_SCHEMA",
    "CacheStats",
    "ProtocolError",
    "ReportCache",
    "ServiceClient",
    "ServiceClosedError",
    "ServiceHTTPServer",
    "ServiceOverloadedError",
    "ServiceUnavailableError",
    "SolveService",
    "canonicalize_request",
    "compute_result",
    "error_response",
    "ok_response",
    "request_digest",
    "roundelim_request",
    "solve_request",
    "start_http_service",
]
