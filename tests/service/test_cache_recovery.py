"""Corrupted-cache recovery: quarantine, recompute, byte parity, SIGTERM.

Every way a ``reports/`` entry can rot on disk — truncation, zero bytes,
bad JSON, a stale checksum — must be detected at lookup, quarantined for
forensics, and answered by recomputation with byte-identical records.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.reliability.atomic import (
    QUARANTINE_DIR,
    RESULTS_VERSION,
    read_checked_json,
    write_checked_json,
)
from repro.reliability.faults import FaultClock, FaultPlan
from repro.service.cache import ReportCache
from repro.service.protocol import (
    canonicalize_request,
    request_digest,
    solve_request,
)
from repro.service.server import SolveService

REQUEST = solve_request(
    "maximal-matching:delta=3", algorithm="matching:proposal", n=24, seed=5
)


def _home(root: Path) -> Path:
    """The versioned directory a cache rooted at ``root`` writes into."""
    return root / f"r{RESULTS_VERSION}"


def _entry_path(root: Path, digest: str) -> Path:
    return _home(root) / "reports" / f"{digest}.json"


CORRUPTIONS = {
    "truncated": lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
    "zero-byte": lambda p: p.write_text(""),
    "bad-json": lambda p: p.write_text("{]not json"),
    "bad-checksum": lambda p: p.write_text(
        json.dumps({**json.loads(p.read_text()), "record": {"tampered": 1}})
    ),
    # Parses, but carries no checksum footer, so the checksum layer
    # refuses it like the others.
    "shapeless": lambda p: p.write_text("{}"),
    # Passes its checksum but lacks every field: only the owner's
    # decoding can reject it.
    "undecodable": lambda p: write_checked_json(p, {}),
}


class TestReportCacheRecovery:
    def _seed(self, root) -> str:
        cache = ReportCache(capacity=8, root=root)
        cache.record("d1", "solve", {"answer": 42})
        cache.flush()
        return "d1"

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS), ids=str)
    def test_corrupt_entry_is_quarantined_and_becomes_a_miss(
        self, tmp_path, corruption
    ):
        digest = self._seed(tmp_path)
        CORRUPTIONS[corruption](_entry_path(tmp_path, digest))
        cache = ReportCache(capacity=8, root=tmp_path)
        assert cache.lookup(digest) is None  # a miss, never an exception
        assert cache.stats.quarantined == 1
        assert list((_home(tmp_path) / QUARANTINE_DIR).iterdir())

    def test_recomputed_entry_restores_the_bytes(self, tmp_path):
        digest = self._seed(tmp_path)
        original = _entry_path(tmp_path, digest).read_text()
        CORRUPTIONS["truncated"](_entry_path(tmp_path, digest))
        cache = ReportCache(capacity=8, root=tmp_path)
        assert cache.lookup(digest) is None
        cache.record(digest, "solve", {"answer": 42})  # the "recompute"
        assert _entry_path(tmp_path, digest).read_text() == original

    def test_graceful_open_defers_validation(self, tmp_path):
        digest = self._seed(tmp_path)
        cache = ReportCache(capacity=8, root=tmp_path)
        assert cache.recovery["graceful"] is True
        assert cache.lookup(digest)["record"] == {"answer": 42}

    def test_ungraceful_open_sweeps_eagerly(self, tmp_path):
        self._seed(tmp_path)
        (_home(tmp_path) / "manifest.json").unlink()
        (_home(tmp_path) / "reports" / "junk.json").write_text("{torn")
        cache = ReportCache(capacity=8, root=tmp_path)
        assert cache.recovery["graceful"] is False
        assert cache.recovery["checked"] == 2
        assert cache.recovery["quarantined"] == 1

    def test_first_write_drops_the_manifest_until_flush(self, tmp_path):
        """The manifest doubles as a dirty marker: live caches must not
        look gracefully shut down."""
        self._seed(tmp_path)
        cache = ReportCache(capacity=8, root=tmp_path)
        assert (_home(tmp_path) / "manifest.json").exists()
        cache.record("d2", "solve", {"answer": 43})
        assert not (_home(tmp_path) / "manifest.json").exists()
        cache.flush()
        assert (_home(tmp_path) / "manifest.json").exists()

    def test_write_failure_degrades_durability_not_availability(self, tmp_path):
        clock = FaultClock(FaultPlan.from_faults([("cache.write", 1, "error")]))
        cache = ReportCache(capacity=8, root=tmp_path, fault_clock=clock)
        entry = cache.record("d1", "solve", {"answer": 42})
        assert entry["record"] == {"answer": 42}
        assert cache.stats.write_failures == 1
        assert cache.lookup("d1")["record"] == {"answer": 42}  # memory tier
        assert not _entry_path(tmp_path, "d1").exists()


class TestServiceRecovery:
    def test_corrupted_entry_recomputes_byte_identically(self, tmp_path):
        with SolveService(cache_dir=tmp_path, jobs=1) as service:
            first = service.submit(REQUEST)
            assert first["status"] == "ok"
        digest = request_digest(canonicalize_request(REQUEST))
        CORRUPTIONS["bad-checksum"](_entry_path(tmp_path, digest))
        with SolveService(cache_dir=tmp_path, jobs=1) as revived:
            second = revived.submit(REQUEST)
            assert second["status"] == "ok"
            assert second["report"] == first["report"]
            assert revived.solves_computed == 1  # recomputed, not served
            assert revived.cache.stats.quarantined == 1


class TestSignalShutdown:
    def test_sigterm_flushes_the_shutdown_manifest(self, tmp_path):
        """``python -m repro.service serve`` must leave a checksum-valid
        manifest behind when killed with SIGTERM (satellite: signal
        handlers flush the shutdown manifest)."""
        cache_dir = tmp_path / "cache"
        ready = tmp_path / "ready"
        env = {**os.environ, "PYTHONPATH": "src"}
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--port", "0", "--cache-dir", str(cache_dir),
             "--ready-file", str(ready)],
            cwd=Path(__file__).resolve().parents[2],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30
            while not ready.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert ready.exists(), "daemon never reported ready"
            host, port = ready.read_text().split()

            from repro.service.client import ServiceClient

            client = ServiceClient(f"http://{host}:{port}")
            response = client.request(REQUEST)
            assert response["status"] == "ok"
            # The cache is dirty now: the manifest is down until shutdown.
            assert not (_home(cache_dir) / "manifest.json").exists()

            daemon.send_signal(signal.SIGTERM)
            assert daemon.wait(timeout=30) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=10)
        manifest = read_checked_json(_home(cache_dir) / "manifest.json")
        assert manifest["reports"] == 1
