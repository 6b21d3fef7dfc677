"""Worker supervision: restart dead workers, time out hung ones.

:class:`SupervisedWorkerPool` is the service's batch executor
(``run_batch``: canonical requests in, results in task order, failures
as data) with the self-healing layer the service daemon needs to survive
a hostile world:

* **dead workers** — a worker process that dies mid-request (a real
  broken pool, or an injected ``worker.exec``/``crash`` fault) is
  detected, the pool is restarted, and the in-flight request is
  re-dispatched **exactly once**; a second death returns a
  ``worker-crash`` error result instead of looping.
* **hung workers** — with a ``deadline`` configured, a request that
  does not answer in time (a stuck pooled worker, or an injected
  ``hang`` fault) resolves to the stable ``timeout`` wire code and the
  wedged pool is recycled so the slot comes back.

Every fault decision happens in the parent at dispatch time (see
:mod:`repro.reliability.faults`), so the same plan produces the same
faults for ``jobs=1`` and ``jobs=N``.  ``executions`` counts actual
request dispatches — the counter the ``reliability`` differential
oracle compares to prove exactly-once re-dispatch.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool

from repro.reliability.faults import FaultClock, check_fault
from repro.utils import InvalidParameterError, ReproError


class RequestTimeoutError(ReproError):
    """A request exceeded its per-request deadline."""

    code = "timeout"


class WorkerCrashError(ReproError):
    """A worker died and its one re-dispatch died too."""

    code = "worker-crash"


def timeout_result(deadline: float | None) -> dict:
    """The result a hung request resolves to (stable ``timeout`` code)."""
    return {
        "ok": False,
        "code": RequestTimeoutError.code,
        "message": (
            "RequestTimeoutError: request exceeded its deadline"
            + (f" of {deadline}s" if deadline is not None else "")
        ),
    }


class SupervisedWorkerPool:
    """Batch executor with supervision, deadlines, and fault hooks.

    Runs :func:`~repro.service.worker.compute_result` inline when
    ``jobs=1``, in a lazily created process pool otherwise; results are
    always in task order, a failed request always a *result*.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        deadline: float | None = None,
        fault_clock: FaultClock | None = None,
        worker_fn=None,
    ) -> None:
        if jobs < 1:
            raise InvalidParameterError("worker jobs must be >= 1")
        if deadline is not None and deadline <= 0:
            raise InvalidParameterError("deadline must be positive seconds")
        if worker_fn is None:
            # Lazy: the storage layers import this package, and the
            # worker module sits behind repro.service's own __init__.
            from repro.service.worker import compute_result as worker_fn
        self.jobs = jobs
        self.deadline = deadline
        self.fault_clock = fault_clock
        self.worker_fn = worker_fn
        self._pool = None
        # Supervision telemetry: mutated only by the single dispatcher
        # thread that owns run_batch, read by status().
        self.executions = 0
        self.worker_crashes = 0
        self.worker_restarts = 0
        self.redispatched = 0
        self.timeouts = 0

    # -- fault planning (parent side, deterministic) -----------------------

    def _plan_request(self) -> str:
        """Decide the next request's injected fate.

        ``"run"`` (normal), ``"crash"`` (the first dispatch is killed;
        the request runs as the one re-dispatch) or ``"hang"`` (never
        answers; resolves to ``timeout``).
        """
        fault = check_fault(self.fault_clock, "worker.exec")
        return "run" if fault is None else fault.kind

    # -- execution ---------------------------------------------------------

    def _ensure_pool(self):
        if self._pool is None:
            try:
                self._pool = multiprocessing.Pool(processes=self.jobs)
            except (AssertionError, ValueError, OSError):
                self._pool = False  # pools unavailable here: stay inline
        return self._pool

    def _restart_pool(self) -> None:
        """Tear down a broken/wedged pool; the next batch forks fresh."""
        self.worker_restarts += 1
        pool = self._pool
        self._pool = None
        if pool:
            try:
                pool.terminate()
                pool.join()
            except Exception:  # noqa: BLE001 - a dead pool may misbehave
                pass

    def _execute_inline(self, canonical: dict) -> dict:
        self.executions += 1
        try:
            return self.worker_fn(canonical)
        except Exception as error:  # noqa: BLE001 - failures are results
            # worker_fn already converts failures to results; this is
            # the belt for a worker body that itself crashed.
            return {
                "ok": False,
                "code": WorkerCrashError.code,
                "message": f"{type(error).__name__}: {error}",
            }

    def _redispatch(self, canonical: dict) -> dict:
        """Re-run one in-flight request after its worker died — once."""
        self.redispatched += 1
        return self._execute_inline(canonical)

    def run_batch(self, batch: list[dict]) -> list[dict]:
        """Execute a batch of canonical requests, results in task order."""
        # Plan the whole batch before running any of it, so the fault
        # clock sees one hit per request in task order.
        planned = [self._plan_request() for _ in batch]
        results: list[dict | None] = [None] * len(batch)
        live = []
        for index, (action, canonical) in enumerate(zip(planned, batch)):
            if action == "hang":
                self.timeouts += 1
                results[index] = timeout_result(self.deadline)
            elif action == "crash":
                # The dispatched worker was "killed" before answering:
                # restart the (conceptual) worker and re-dispatch the
                # request exactly once.
                self.worker_crashes += 1
                self._restart_pool()
                results[index] = self._redispatch(canonical)
            else:
                live.append((index, canonical))
        if len(live) > 1 and self.jobs > 1:
            pool = self._ensure_pool()
            if pool:
                self._run_pooled(pool, live, results)
                return results  # type: ignore[return-value]
        for index, run in live:
            results[index] = self._execute_inline(run)
        return results  # type: ignore[return-value]

    def _run_pooled(self, pool, live, results) -> None:
        """Pool execution with real dead/hung worker supervision.

        Each request is an ``apply_async`` collected with the deadline:
        a timeout recycles the wedged pool and resolves to the
        ``timeout`` code; a broken pool re-dispatches the affected
        request inline exactly once (requests whose async results died
        with the same pool each get their own single re-dispatch).
        """
        asyncs = []
        for index, run in live:
            self.executions += 1
            asyncs.append((index, run, pool.apply_async(self.worker_fn, (run,))))
        for index, run, pending in asyncs:
            try:
                results[index] = pending.get(self.deadline)
            except multiprocessing.TimeoutError:
                self.timeouts += 1
                self._restart_pool()
                results[index] = timeout_result(self.deadline)
            except Exception:  # noqa: BLE001 - the pool died under us
                self.worker_crashes += 1
                self._restart_pool()
                results[index] = self._redispatch(run)

    # -- lifecycle / telemetry ---------------------------------------------

    def close(self) -> None:
        if self._pool:
            self._pool.close()
            self._pool.join()
        self._pool = None

    def telemetry(self) -> dict:
        """The supervision counters (shape is part of the status schema)."""
        return {
            "executions": self.executions,
            "worker_crashes": self.worker_crashes,
            "worker_restarts": self.worker_restarts,
            "redispatched": self.redispatched,
            "timeouts": self.timeouts,
        }
