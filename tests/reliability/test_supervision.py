"""Worker supervision: exactly-once re-dispatch, deadlines."""

import time

import pytest

from repro.reliability.faults import FaultClock, FaultPlan
from repro.reliability.supervise import (
    RequestTimeoutError,
    SupervisedWorkerPool,
    WorkerCrashError,
    timeout_result,
)
from repro.utils import InvalidParameterError


def _echo(canonical):
    return {"ok": True, "echo": canonical.get("seed")}


def _sleepy(canonical):
    if canonical.get("seed") == 99:
        time.sleep(10)
    return {"ok": True, "echo": canonical.get("seed")}


def clock_for(*faults):
    return FaultClock(FaultPlan.from_faults(list(faults)))


class TestValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            SupervisedWorkerPool(0, worker_fn=_echo)

    def test_deadline_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            SupervisedWorkerPool(1, deadline=0, worker_fn=_echo)

    def test_timeout_result_shape(self):
        result = timeout_result(2.5)
        assert result["ok"] is False
        assert result["code"] == RequestTimeoutError.code == "timeout"
        assert "2.5" in result["message"]


class TestInjectedCrash:
    def test_crash_redispatches_exactly_once(self):
        calls = []

        def counting(canonical):
            calls.append(canonical["seed"])
            return {"ok": True, "echo": canonical["seed"]}

        pool = SupervisedWorkerPool(
            1,
            fault_clock=clock_for(("worker.exec", 1, "crash")),
            worker_fn=counting,
        )
        results = pool.run_batch([{"seed": 0}, {"seed": 1}])
        assert [r["echo"] for r in results] == [0, 1]
        # seed 0's first dispatch was "killed" before completing; the
        # re-dispatch is the only completed execution for it.
        assert calls == [0, 1]
        assert pool.executions == 2
        assert pool.worker_crashes == 1
        assert pool.worker_restarts == 1
        assert pool.redispatched == 1

    def test_second_death_becomes_a_worker_crash_result(self):
        def dying(canonical):
            raise RuntimeError("worker body exploded")

        pool = SupervisedWorkerPool(
            1,
            fault_clock=clock_for(("worker.exec", 1, "crash")),
            worker_fn=dying,
        )
        (result,) = pool.run_batch([{"seed": 0}])
        assert result["ok"] is False
        assert result["code"] == WorkerCrashError.code == "worker-crash"
        assert pool.redispatched == 1  # no retry loop past the one re-dispatch


class TestInjectedHang:
    def test_hang_resolves_to_timeout_without_executing(self):
        pool = SupervisedWorkerPool(
            1,
            deadline=5.0,
            fault_clock=clock_for(("worker.exec", 1, "hang")),
            worker_fn=_echo,
        )
        results = pool.run_batch([{"seed": 0}, {"seed": 1}])
        assert results[0]["code"] == "timeout"
        assert results[1]["ok"] is True
        # The hung request never completed: only seed 1 counts.
        assert pool.executions == 1
        assert pool.timeouts == 1


class TestPooledSupervision:
    def test_pooled_hang_times_out_and_recycles_the_pool(self):
        pool = SupervisedWorkerPool(2, deadline=0.5, worker_fn=_sleepy)
        try:
            results = pool.run_batch([{"seed": 1}, {"seed": 99}])
            assert results[0] == {"ok": True, "echo": 1}
            assert results[1]["code"] == "timeout"
            assert pool.timeouts == 1
            assert pool.worker_restarts == 1
            # The recycled pool serves the next batch normally.
            results = pool.run_batch([{"seed": 2}, {"seed": 3}])
            assert [r["echo"] for r in results] == [2, 3]
        finally:
            pool.close()


class TestTelemetry:
    def test_telemetry_shape(self):
        pool = SupervisedWorkerPool(1, worker_fn=_echo)
        pool.run_batch([{"seed": 0}])
        assert pool.telemetry() == {
            "executions": 1,
            "worker_crashes": 0,
            "worker_restarts": 0,
            "redispatched": 0,
            "timeouts": 0,
        }
