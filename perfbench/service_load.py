"""The ``service-mixed`` workload: the solve daemon under a closed loop.

The daemon runs as its own process (``python -m repro.service serve``,
one inline worker, the default ``object`` engine, an on-disk cache tier),
pinned to one CPU while the client threads keep to the others.
Two closed-loop client threads, a reader and a writer, each send their
next request only when the previous answer is in, over a new connection
per request as the shipped client does.  Every response, hit or miss, is
checked against the pinned bytes of its request.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BOOT_TIMEOUT_S = 60.0


def _split_cpus() -> tuple[set[int] | None, set[int] | None]:
    """(daemon CPUs, client CPUs): the daemon gets the first usable CPU,
    the client threads the others.  Without this split, where the kernel
    put the daemon's solving thread beside the clients set the hit
    latency of a whole run to one of two levels (~17 or ~22 ms)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


DAEMON_CPUS, CLIENT_CPUS = _split_cpus()


def child_env(tmp: Path) -> dict:
    """Environment for child processes: the checkout's sources, and
    temporary files kept inside the checkout."""
    path = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else ""),
        "TMPDIR": str(tmp),
    }


class Daemon:
    """One solve daemon process, booted until it answers a ping."""

    def __init__(self, workdir: Path, spans_out: Path | None = None) -> None:
        workdir.mkdir(parents=True)
        ready = workdir / "ready"
        serve = ["serve", "--port", "0", "--ready-file", str(ready),
                 "--cache-dir", str(workdir / "cache")]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.service", *serve]
        else:
            command = [sys.executable, str(HERE / "daemon_shim.py"),
                       str(spans_out), *serve]
        self.log = open(workdir / "daemon.log", "wb")
        started = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=child_env(workdir.parent),
            stdin=subprocess.DEVNULL, stdout=self.log, stderr=self.log,
        )
        try:
            if DAEMON_CPUS:
                # Before the daemon starts threads: they inherit the mask.
                os.sched_setaffinity(self.process.pid, DAEMON_CPUS)
            self._await_ping(ready, started)
        except BaseException:
            self.stop()
            raise
        #: Process start to the first successful ping.
        self.setup_s = perf_counter() - started

    def _await_ping(self, ready: Path, started: float) -> None:
        while perf_counter() - started < BOOT_TIMEOUT_S:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode}")
            if ready.exists() and ready.read_text().endswith("\n"):
                host, port = ready.read_text().split()
                self.host, self.port = host, int(port)
                try:
                    self.status()
                    return
                except OSError:
                    pass
            time.sleep(0.002)
        raise RuntimeError("daemon did not answer a ping in time")

    def call(self, method: str, path: str, body: bytes | None = None):
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request(method, path, body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def status(self) -> dict:
        return json.loads(self.call("GET", "/v1/status")[1])

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Graceful ``/v1/shutdown``; kill only if that fails."""
        try:
            if self.process.poll() is None and hasattr(self, "port"):
                self.call("POST", "/v1/shutdown", b"{}")
            self.process.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        finally:
            self.log.close()


def _check(body: bytes, pin: str | None) -> tuple[bool, bool]:
    """(correct, cached) for one response body."""
    try:
        response = json.loads(body)
        report = response["report"]
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    except (ValueError, KeyError, TypeError):
        return False, False
    correct = (
        response.get("status") == "ok"
        and report.get("valid") is True
        and hashlib.sha256(text.encode()).hexdigest() == pin
    )
    return correct, response.get("cached") is True


def send(daemon: Daemon, op: dict, pins: dict) -> tuple[float, bool, bool]:
    """POST one solve request; (latency s, cached, correct).  A response
    is correct if it is ``ok``, valid and matches its request's pin."""
    from repro.service.protocol import solve_request

    body = json.dumps(solve_request(
        op["problem"], algorithm=op["algorithm"], n=op["n"], seed=op["seed"]
    )).encode()
    begin = perf_counter()
    try:
        status, answer = daemon.call("POST", "/v1/request", body)
    except (OSError, http.client.HTTPException):
        status, answer = 0, b""
    latency = perf_counter() - begin
    correct, cached = _check(answer, pins.get(op["key"]))
    return latency, cached, status == 200 and correct


def warm_up(daemon: Daemon, warm: list[dict], pins: dict) -> int:
    """Answer the warm requests before timing; the number that failed."""
    return sum(not send(daemon, op, pins)[2] for op in warm)


def closed_loop(daemon: Daemon, reads, writes, pins: dict, *,
                seconds: float | None = None,
                counts: dict[str, int] | None = None) -> dict:
    """Drive ``daemon`` from a reader and a writer client until
    ``seconds`` pass or each has sent its entry in ``counts``.  Every
    answer is checked against its pin."""
    lock = threading.Lock()
    samples: list[tuple[float, bool, str]] = []  # (latency s, cached, client)
    failures = [0]
    started = perf_counter()

    def client(name: str, requests) -> None:
        if CLIENT_CPUS:
            os.sched_setaffinity(0, CLIENT_CPUS)  # this thread only
        sent = 0
        while (sent < counts[name]) if counts is not None else (
            perf_counter() - started < seconds
        ):
            latency, cached, correct = send(daemon, next(requests), pins)
            sent += 1
            with lock:
                samples.append((latency, cached, name))
                failures[0] += not correct

    threads = [
        threading.Thread(target=client, args=("read", reads)),
        threading.Thread(target=client, args=("write", writes)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "samples": samples,
        "failed": failures[0],
        "wall": perf_counter() - started,
    }
