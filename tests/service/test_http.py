"""HTTP transport + client: end-to-end parity, endpoints, shutdown."""

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.reliability.atomic import RESULTS_VERSION
from repro.service import (
    REQUEST_SCHEMA,
    ServiceClient,
    SolveService,
    start_http_service,
)
from repro.service.httpd import (
    CONNECTION_TIMEOUT_SECONDS,
    MAX_BODY_BYTES,
    _ServiceHandler,
)
from repro.utils.serialization import canonical_dumps

SPEC = "maximal-matching:delta=3"
ALGORITHM = "matching:proposal"


@pytest.fixture
def live():
    service = SolveService(jobs=1)
    server, thread = start_http_service(service)
    yield ServiceClient(server.url), service
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestEndToEnd:
    def test_solve_parity_with_direct(self, live):
        client, _service = live
        response = client.solve(SPEC, algorithm=ALGORITHM, n=24, seed=2)
        assert response["status"] == "ok"
        direct = api.solve(SPEC, algorithm=ALGORITHM, n=24, seed=2)
        assert canonical_dumps(response["report"]) == direct.canonical_json()

    def test_repeat_is_cached(self, live):
        client, _service = live
        first = client.solve(SPEC, algorithm=ALGORITHM, n=24)
        second = client.solve(SPEC, algorithm=ALGORITHM, n=24)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["report"] == first["report"]

    def test_roundelim_roundtrip(self, live):
        client, _service = live
        response = client.roundelim("sinkless-orientation:delta=3", op="R")
        assert response["status"] == "ok"
        assert response["result"]["status"] == "ok"

    def test_error_codes_travel_over_http(self, live):
        client, _service = live
        response = client.solve(SPEC, algorithm="no:algo")
        assert response["status"] == "error"
        assert response["error"]["code"] == "unknown-algorithm"

    def test_malformed_body_is_bad_request(self, live):
        client, _service = live
        request = urllib.request.Request(
            f"{client.url}/v1/request", data=b"this is not json{{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "bad-request"

    def test_client_parses_error_bodies(self, live):
        client, _service = live
        response = client.request({"schema": "bogus/v1"})
        assert response["status"] == "error"
        assert response["error"]["code"] == "unsupported-schema"


#: The handler's socket timeout while the hostile-client matrix runs.
STALL_TIMEOUT_SECONDS = 0.5


def _raw_post(client, header_lines: list[str], body: bytes = b"") -> bytes:
    """Send a hand-framed POST and read until the daemon closes."""
    head = "".join(
        line + "\r\n"
        for line in ["POST /v1/request HTTP/1.1", "Host: test", *header_lines]
    )
    with socket.create_connection((client.host, client.port), timeout=5) as sock:
        # Header bytes are Latin-1 on the wire, as the stdlib parser reads them.
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestMalformedContentLength:
    """Hostile framing gets a 400 or a closed connection, never a stuck
    handler thread, and the daemon keeps answering."""

    @pytest.fixture
    def client(self, live, monkeypatch):
        # The handler reads its timeout per connection, so patching a
        # running daemon applies to every connection opened afterwards.
        monkeypatch.setattr(_ServiceHandler, "timeout", STALL_TIMEOUT_SECONDS)
        return live[0]

    @pytest.mark.parametrize(
        "declared", ["abc", "-1", "1.5", "", str(MAX_BODY_BYTES + 1)]
    )
    def test_rejected_with_400(self, client, declared):
        self._assert_rejected(client, declared)

    @pytest.mark.parametrize("declared", ["+2", "0_2", "\N{SUPERSCRIPT TWO}"])
    def test_int_syntax_beyond_ascii_digits_rejected(self, client, declared):
        """Content-Length is ``1*DIGIT``: a sign, a digit separator or a
        non-ASCII digit is a framing error, although ``int()`` parses the
        first two as 2 and ``str.isdigit()`` accepts the third."""
        self._assert_rejected(client, declared)

    @staticmethod
    def _assert_rejected(client, declared):
        raw = _raw_post(client, [f"Content-Length: {declared}"], b"{}")
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), raw
        assert b"Connection: close" in head
        assert json.loads(body)["error"]["code"] == "bad-request"
        assert client.ping() is True

    def test_body_shorter_than_declared_is_dropped(self, client):
        start = time.monotonic()
        raw = _raw_post(client, ["Content-Length: 100"], b'{"schema":')
        assert raw == b""
        assert time.monotonic() - start < STALL_TIMEOUT_SECONDS + 2
        assert client.ping() is True

    def test_handler_timeout_is_a_fixed_constant(self):
        assert _ServiceHandler.timeout == CONNECTION_TIMEOUT_SECONDS


class TestEndpoints:
    def test_status(self, live):
        client, service = live
        client.solve(SPEC, algorithm=ALGORITHM, n=24)
        status = client.status()
        assert status["schema"] == "repro.service/status-v1"
        assert status["requests"] == service.requests
        assert status["solves_computed"] == 1

    def test_protocol(self, live):
        client, _service = live
        protocol = client.protocol()
        assert protocol["protocol"]["request"] == REQUEST_SCHEMA
        assert protocol["protocol"]["kinds"] == ["solve", "roundelim"]

    def test_unknown_path_is_404(self, live):
        client, _service = live
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{client.url}/v2/everything", timeout=10)
        assert excinfo.value.code == 404

    def test_ping(self, live):
        client, _service = live
        assert client.ping() is True
        assert ServiceClient("http://127.0.0.1:9", timeout=0.5).ping() is False


class TestShutdown:
    def test_remote_shutdown_stops_server_and_flushes(self, tmp_path):
        service = SolveService(cache_dir=tmp_path, jobs=1)
        server, thread = start_http_service(service)
        client = ServiceClient(server.url)
        client.solve(SPEC, algorithm=ALGORITHM, n=24)
        response = client.shutdown()
        assert response["status"] == "ok"
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert (tmp_path / f"r{RESULTS_VERSION}" / "manifest.json").exists()

    def test_shutdown_can_be_disabled(self):
        service = SolveService(jobs=1)
        server, thread = start_http_service(
            service, allow_remote_shutdown=False
        )
        client = ServiceClient(server.url)
        response = client.shutdown()
        assert response["status"] == "error"
        assert response["error"]["code"] == "forbidden"
        assert thread.is_alive()
        server.shutdown()
        thread.join(timeout=10)
