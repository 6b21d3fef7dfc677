"""``python -m repro.service`` subcommands, driven in-process and end-to-end."""

import json
import threading

import pytest

from repro import api
from repro.reliability.atomic import RESULTS_VERSION
from repro.service import SolveService, start_http_service
from repro.service.cli import main


@pytest.fixture
def live_url():
    service = SolveService(jobs=1)
    server, thread = start_http_service(service)
    yield server.url
    server.shutdown()
    thread.join(timeout=10)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRequestCommand:
    def test_report_only_matches_direct(self, live_url, capsys):
        code, out, _err = run_cli(
            ["request", "--url", live_url,
             "--spec", "maximal-matching:delta=3",
             "--algorithm", "matching:proposal",
             "--n", "24", "--seed", "4", "--report-only"],
            capsys,
        )
        assert code == 0
        direct_code, direct_out, _ = run_cli(
            ["direct", "--spec", "maximal-matching:delta=3",
             "--algorithm", "matching:proposal", "--n", "24", "--seed", "4"],
            capsys,
        )
        assert direct_code == 0
        assert out == direct_out
        direct = api.solve("maximal-matching:delta=3",
                           algorithm="matching:proposal", n=24, seed=4)
        assert out.strip() == direct.canonical_json()

    def test_full_response_envelope(self, live_url, capsys):
        code, out, _err = run_cli(
            ["request", "--url", live_url,
             "--spec", "maximal-matching:delta=3",
             "--algorithm", "matching:proposal", "--n", "24"],
            capsys,
        )
        assert code == 0
        response = json.loads(out)
        assert response["status"] == "ok"
        assert response["schema"] == "repro.service/response-v1"

    def test_raw_json_request(self, live_url, capsys):
        raw = json.dumps({
            "schema": "repro.service/request-v1",
            "kind": "solve",
            "problem": "maximal-matching:delta=3",
            "algorithm": "matching:proposal",
            "n": 24,
        })
        code, out, _err = run_cli(
            ["request", "--url", live_url, "--json", raw], capsys
        )
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_error_response_exits_nonzero(self, live_url, capsys):
        code, _out, err = run_cli(
            ["request", "--url", live_url,
             "--spec", "maximal-matching:delta=3",
             "--algorithm", "no:algo"],
            capsys,
        )
        assert code == 1
        assert "unknown-algorithm" in err

    def test_missing_arguments(self, live_url, capsys):
        code, _out, err = run_cli(["request", "--url", live_url], capsys)
        assert code == 2
        assert "--spec" in err

    def test_unreachable_daemon(self, capsys):
        code, _out, err = run_cli(
            ["status", "--url", "http://127.0.0.1:9"], capsys
        )
        assert code == 1
        assert "cannot reach" in err


class TestStatusAndShutdown:
    def test_status_roundtrip(self, live_url, capsys):
        code, out, _err = run_cli(["status", "--url", live_url], capsys)
        assert code == 0
        assert json.loads(out)["schema"] == "repro.service/status-v1"

    def test_shutdown(self, capsys):
        service = SolveService(jobs=1)
        server, thread = start_http_service(service)
        code, out, _err = run_cli(["shutdown", "--url", server.url], capsys)
        assert code == 0
        assert json.loads(out)["status"] == "ok"
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestServeCommand:
    def test_serve_writes_ready_file_and_stops(self, tmp_path, capsys):
        ready = tmp_path / "ready"
        codes = []

        def serve():
            codes.append(main([
                "serve", "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
                "--ready-file", str(ready),
            ]))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        for _ in range(100):
            if ready.exists():
                break
            threading.Event().wait(0.05)
        assert ready.exists()
        host, port = ready.read_text().split()
        from repro.service import ServiceClient

        client = ServiceClient(f"http://{host}:{port}")
        response = client.solve(
            "maximal-matching:delta=3", algorithm="matching:proposal", n=24
        )
        assert response["status"] == "ok"
        client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert codes == [0]
        assert (tmp_path / "cache" / f"r{RESULTS_VERSION}" / "manifest.json").exists()
