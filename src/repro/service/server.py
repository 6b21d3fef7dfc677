"""The solve service core: dedup, cache, dispatch — transport-agnostic.

:class:`SolveService` is the daemon without its socket.  One instance
owns the request pipeline:

1. **canonicalize** — :func:`~repro.service.protocol.canonicalize_request`
   validates the raw dict and resolves every name, so malformed traffic
   is rejected before it can occupy a worker;
2. **cache** — the digest-keyed two-tier
   :class:`~repro.service.cache.ReportCache` answers repeats without any
   computation (the warm path: a dict lookup);
3. **dedup** — concurrent identical requests coalesce onto one in-flight
   entry: exactly one solve runs, every waiter gets its result (the
   ``solves_computed`` counter is the test hook for "exactly one");
4. **dispatch** — a dispatcher thread drains the submission queue in
   batches and runs them on the
   :class:`~repro.reliability.supervise.SupervisedWorkerPool` (inline
   for ``jobs=1``, a supervised process pool otherwise: dead workers
   restart with exactly-once re-dispatch, hung requests resolve to the
   stable ``timeout`` code under ``deadline``).

``submit()`` blocks until its response is ready, which makes the service
trivially correct under any threaded transport (the HTTP layer gives
each connection a thread).  With ``max_pending`` set, excess load is
shed *before* it occupies a queue slot: shedded requests get the stable
``overloaded`` code plus a ``retry_after`` hint instead of unbounded
queueing.  ``close()`` is graceful: pending requests finish, the pool
joins, the cache flushes its manifest.  ``abandon()`` is the opposite —
a simulated daemon kill for crash-recovery tests.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

from repro.reliability.faults import FaultClock
from repro.reliability.supervise import SupervisedWorkerPool
from repro.service.cache import ReportCache
from repro.service.protocol import (
    STATUS_SCHEMA,
    canonicalize_request,
    error_response,
    ok_response,
    render_ok_response,
    request_digest,
)
from repro.utils import ReproError

#: Dispatcher shutdown sentinel.
_SHUTDOWN = object()

#: The Retry-After hint (seconds) an overloaded response carries.
DEFAULT_RETRY_AFTER = 1.0


class ServiceClosedError(ReproError):
    """The service is shutting down and no longer accepts requests."""

    code = "service-closed"


class ServiceOverloadedError(ReproError):
    """The bounded queue is full; the caller should retry after a delay."""

    code = "overloaded"


class _Pending:
    """One in-flight computation every duplicate requester waits on."""

    __slots__ = ("event", "result", "entry")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: dict | None = None
        self.entry: dict | None = None  # the cache entry, for ok results


class SolveService:
    """A long-running, digest-deduplicating solve service."""

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        capacity: int = 1024,
        jobs: int = 1,
        batch_size: int = 8,
        deadline: float | None = None,
        max_pending: int | None = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        fault_clock: FaultClock | None = None,
    ) -> None:
        if batch_size < 1:
            raise ReproError("batch_size must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ReproError("max_pending must be >= 1")
        self.batch_size = batch_size
        self.deadline = deadline
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.fault_clock = fault_clock
        self.cache = ReportCache(
            capacity=capacity, root=cache_dir, fault_clock=fault_clock
        )
        self.pool = SupervisedWorkerPool(
            jobs=jobs, deadline=deadline, fault_clock=fault_clock
        )
        self._queue: queue.Queue = queue.Queue()
        self._inflight: dict[str, _Pending] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._started = time.monotonic()
        # Counters are monotone and only loosely ordered across threads;
        # each individual bump happens under the lock or in the single
        # dispatcher thread.
        self.requests = 0
        self.errors = 0
        self.coalesced = 0
        self.solves_computed = 0
        self.batches = 0
        self.shed = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="solve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- request path ------------------------------------------------------

    def submit(self, request, *, rendered: bool = False):
        """Serve one raw request dict; blocks until the response exists.

        With ``rendered=True``, successful responses come back as the
        canonical JSON *string* (spliced from the cache's pre-rendered
        record bytes — the warm path never re-encodes the report);
        error responses are still dicts, so transports can branch on
        the type.  With the default, everything is a response dict.
        """
        with self._lock:
            self.requests += 1
        try:
            canonical = canonicalize_request(request)
        except ReproError as error:
            with self._lock:
                self.errors += 1
            return error_response(
                getattr(error, "code", "bad-request"),
                f"{type(error).__name__}: {error}",
            )
        digest = request_digest(canonical)
        kind = canonical["kind"]
        with self._lock:
            if self._closed:
                self.errors += 1
                return error_response(
                    ServiceClosedError.code, "service is shutting down"
                )
            hit = self.cache.lookup(digest)
            if hit is not None:
                if rendered:
                    return render_ok_response(
                        kind, digest, hit["record_json"], cached=True
                    )
                return ok_response(kind, digest, hit["record"], cached=True)
            pending = self._inflight.get(digest)
            if pending is None:
                if (
                    self.max_pending is not None
                    and len(self._inflight) >= self.max_pending
                ):
                    # Shed before occupying a slot: bounded queues keep
                    # tail latency bounded, and the retry_after hint
                    # (surfaced as Retry-After over HTTP) tells the
                    # client when to come back.
                    self.errors += 1
                    self.shed += 1
                    return error_response(
                        ServiceOverloadedError.code,
                        f"service is at its pending-request limit "
                        f"({self.max_pending}); retry after "
                        f"{self.retry_after}s",
                        retry_after=self.retry_after,
                    )
                pending = _Pending()
                self._inflight[digest] = pending
                self._queue.put((digest, canonical))
            else:
                self.coalesced += 1
        pending.event.wait()
        result = pending.result
        if not result["ok"]:
            with self._lock:
                self.errors += 1
            return error_response(result["code"], result["message"])
        if rendered:
            return render_ok_response(
                kind, digest, pending.entry["record_json"], cached=False
            )
        return ok_response(kind, digest, result["record"], cached=False)

    # -- dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        stop = False
        while not stop:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            batch = [item]
            # Batch whatever else is already queued (deduplicated by
            # construction: only the first requester of a digest enqueues).
            while len(batch) < self.batch_size:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    stop = True
                    break
                batch.append(extra)
            try:
                results = self.pool.run_batch(
                    [canonical for _d, canonical in batch]
                )
            except Exception as error:  # noqa: BLE001 - daemon must survive
                # The supervised pool converts worker failures to result
                # dicts; anything that still escapes must not kill the
                # dispatcher (a dead dispatcher wedges every submit).
                results = [
                    {
                        "ok": False,
                        "code": "internal",
                        "message": f"{type(error).__name__}: {error}",
                    }
                ] * len(batch)
            with self._lock:
                self.solves_computed += len(batch)
                self.batches += 1
                for (digest, canonical), result in zip(batch, results):
                    pending = self._inflight.pop(digest)
                    if result["ok"]:
                        pending.entry = self.cache.record(
                            digest, canonical["kind"], result["record"]
                        )
                    pending.result = result
                    pending.event.set()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: drain, join workers, flush the cache."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._dispatcher.join()
        self.pool.close()
        self.cache.flush()

    def abandon(self) -> None:
        """Simulated daemon kill: stop *without* flushing the manifest.

        Crash-recovery tests use this as the controlled stand-in for
        ``kill -9``: the dispatcher stops, workers are torn down, but no
        shutdown manifest is written — so the next open of the cache
        directory must take the recovery path.  Waiters still blocked on
        an in-flight request are released with ``service-closed``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._dispatcher.join()
        self.pool.close()
        with self._lock:
            for pending in self._inflight.values():
                pending.result = {
                    "ok": False,
                    "code": ServiceClosedError.code,
                    "message": "service was killed mid-request",
                }
                pending.event.set()
            self._inflight.clear()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def status(self) -> dict:
        """The live counters (plus the registries, for client discovery)."""
        from repro.api import list_algorithms, list_engines
        from repro.service.protocol import REQUEST_SCHEMA, RESPONSE_SCHEMA

        with self._lock:
            stats = self.cache.stats.as_dict()
            size = len(self.cache)
            return {
                "schema": STATUS_SCHEMA,
                "protocol": {
                    "request": REQUEST_SCHEMA,
                    "response": RESPONSE_SCHEMA,
                },
                "uptime_seconds": round(time.monotonic() - self._started, 6),
                "requests": self.requests,
                "errors": self.errors,
                "coalesced": self.coalesced,
                "solves_computed": self.solves_computed,
                "batches": self.batches,
                "inflight": len(self._inflight),
                "jobs": self.pool.jobs,
                "batch_size": self.batch_size,
                "cache": {
                    **stats,
                    "size": size,
                    "capacity": self.cache.capacity,
                    "on_disk": self.cache.root is not None,
                },
                "reliability": {
                    **self.pool.telemetry(),
                    "deadline": self.deadline,
                    "max_pending": self.max_pending,
                    "shed": self.shed,
                    "cache_recovery": dict(self.cache.recovery),
                    "faults_fired": (
                        len(self.fault_clock.fired)
                        if self.fault_clock is not None
                        else 0
                    ),
                },
                "algorithms": [entry["name"] for entry in list_algorithms()],
                "engines": [entry["name"] for entry in list_engines()],
            }
