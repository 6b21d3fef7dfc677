"""HTTP transport for the solve service (stdlib only).

A thin JSON-over-HTTP skin on :class:`~repro.service.server.SolveService`
using :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which composes with the service's blocking ``submit()`` and
in-flight dedup to give request-level concurrency without any new
dependency.

Endpoints::

    POST /v1/request   body = request-v1 JSON  →  response-v1 JSON
    GET  /v1/status    live counters + registries (status-v1)
    GET  /v1/protocol  the schema tags this server speaks
    POST /v1/shutdown  graceful stop (when enabled), then exits

Every body is canonical JSON.  Error responses use the same envelope as
the protocol layer (``status="error"`` + stable code) with a matching
HTTP status: 400 for client-side codes, 404/405 for routing, 500 for
``internal``, 503 + ``Retry-After`` for back-pressure (``overloaded``,
``service-closed``), 504 for ``timeout``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.protocol import (
    KINDS,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    STATUS_SCHEMA,
    error_response,
)
from repro.service.server import SolveService
from repro.utils.serialization import canonical_dumps

#: Error codes that are the server's fault, not the client's.
_SERVER_FAULT_CODES = frozenset({"internal", "library-error"})

#: Back-pressure codes: the request was fine, the server just cannot
#: take it *right now* — 503 + Retry-After, and clients retry.
_UNAVAILABLE_CODES = frozenset({"overloaded", "service-closed"})

#: Request body size cap (16 MiB): a serialized problem payload is far
#: smaller; anything bigger is a client error, not a solve.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Retry-After value (seconds) when the envelope carries no hint.
DEFAULT_RETRY_AFTER_HEADER = 1

#: Per-connection socket timeout (seconds) for every read and write.  A
#: client that stalls mid-headers or mid-body is disconnected instead of
#: pinning a handler thread; the solve itself makes no socket call, so it
#: is not bounded by this.
CONNECTION_TIMEOUT_SECONDS = 30.0


def _http_status(response: dict) -> int:
    if response.get("status") == "ok":
        return 200
    code = response.get("error", {}).get("code", "internal")
    if code in _UNAVAILABLE_CODES:
        return 503
    if code == "timeout":
        return 504
    return 500 if code in _SERVER_FAULT_CODES else 400


def _retry_after_header(response: dict) -> str | None:
    """The Retry-After value a 503 response advertises (whole seconds)."""
    error = response.get("error", {})
    if error.get("code") not in _UNAVAILABLE_CODES:
        return None
    hint = error.get("retry_after", DEFAULT_RETRY_AFTER_HEADER)
    return str(max(1, int(round(float(hint)))))


class _ServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-solve-service/1"
    timeout = CONNECTION_TIMEOUT_SECONDS

    @property
    def service(self) -> SolveService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send_json(self, payload: dict, status: int | None = None) -> None:
        self._send_raw(
            canonical_dumps(payload),
            status if status is not None else _http_status(payload),
            retry_after=_retry_after_header(payload),
        )

    def _send_raw(
        self, rendered: str, status: int, retry_after: str | None = None
    ) -> None:
        body = (rendered + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_request_body(self):
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            problem = f"invalid Content-Length {declared!r}"
        elif int(declared) > MAX_BODY_BYTES:
            problem = f"request body exceeds {MAX_BODY_BYTES} bytes"
        else:
            raw = self.rfile.read(int(declared))
            try:
                return json.loads(raw.decode("utf-8")), None
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return None, error_response(
                    "bad-request", f"request body is not JSON: {error}"
                )
        # The body was left unread, so the stream is no longer at a
        # request boundary: answer, then drop the connection.
        self.close_connection = True
        return None, error_response("bad-request", problem)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/request":
            payload, failure = self._read_request_body()
            if failure:
                self._send_json(failure)
                return
            # rendered=True: ok responses arrive as pre-rendered canonical
            # bytes (a cache hit is served without re-encoding the
            # report); errors stay dicts for status-code mapping.
            response = self.service.submit(payload, rendered=True)
            if isinstance(response, str):
                self._send_raw(response, 200)
            else:
                self._send_json(response)
        elif self.path == "/v1/shutdown":
            if not self.server.allow_remote_shutdown:  # type: ignore[attr-defined]
                self._send_json(
                    error_response("forbidden", "remote shutdown is disabled"), 403
                )
                return
            self._send_json({"schema": RESPONSE_SCHEMA, "status": "ok",
                             "kind": "shutdown", "cached": False})
            # shutdown() must come from another thread: it joins the
            # serve_forever loop this handler is running inside.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_json(
                error_response("not-found", f"no POST endpoint {self.path!r}"), 404
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/v1/status":
            self._send_json(self.service.status())
        elif self.path == "/v1/protocol":
            self._send_json({
                "schema": STATUS_SCHEMA,
                "protocol": {
                    "request": REQUEST_SCHEMA,
                    "response": RESPONSE_SCHEMA,
                    "kinds": list(KINDS),
                },
            })
        else:
            self._send_json(
                error_response("not-found", f"no GET endpoint {self.path!r}"), 404
            )


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`SolveService`."""

    daemon_threads = True

    def __init__(
        self,
        service: SolveService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        allow_remote_shutdown: bool = True,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.allow_remote_shutdown = allow_remote_shutdown
        self.verbose = verbose
        super().__init__((host, port), _ServiceHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def run(self) -> None:
        """serve_forever, then close the service (graceful shutdown)."""
        try:
            self.serve_forever(poll_interval=0.1)
        finally:
            self.server_close()
            self.service.close()


def start_http_service(service: SolveService, host="127.0.0.1", port=0, **kw):
    """Bind a server and serve it on a background thread; returns it.

    Convenience for tests and benchmarks: the caller gets a live
    ``server.url`` immediately and stops everything with
    ``server.shutdown()`` + ``thread.join()`` (or just lets the daemon
    thread die with the process).
    """
    server = ServiceHTTPServer(service, host, port, **kw)
    thread = threading.Thread(target=server.run, name="solve-http", daemon=True)
    thread.start()
    return server, thread
