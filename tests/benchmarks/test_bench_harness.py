"""The per-layer benches' shared harness, tested: best-of timing, the
criterion row, the command line and the speedup-regression gate CI runs
against the committed baselines.

The benches sit outside ``tests/``, so a broken gate would pass CI
silently; here each gated bench's row shape is held to its ``FAIL:``
text and its verdicts.
"""

import importlib.util
import json
import re
import sys
import types
from pathlib import Path

import pytest

from repro.utils.serialization import canonical_dumps

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name: str):
    """Import ``benchmarks/<name>.py`` as the module ``name``, as running
    the bench would."""
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


harness = _load("harness")


@pytest.fixture(scope="module")
def benches():
    """The three baseline-gated benches (each imports ``harness``)."""
    return types.SimpleNamespace(
        engines=_load("bench_engines"),
        roundelim=_load("bench_roundelim_kernel"),
        solvers=_load("bench_solvers"),
    )


def _engines_row(speedup, slow=1.0, n=20_000):
    return {
        "n": n,
        "rounds": 8,
        "seconds": {"object": slow, "vectorized": slow / speedup},
        "speedup_vectorized_vs_object": speedup,
    }


def _roundelim_row(speedup, slow=1.0, n=4):
    return {
        "workload": "matching",
        "n": n,
        "reference_seconds": slow,
        "kernel_seconds": slow / speedup,
        "speedup": speedup,
    }


def _solvers_row(speedup, slow=1.0):
    return {
        "workload": "maximal-matching",
        "n": 4,
        "verdict": True,
        "csp_seconds": slow,
        "sat_seconds": slow / speedup,
        "speedup": speedup,
    }


#: bench → (row builder, its baseline row, CI's tolerance, the FAIL text
#: of a speedup 0.01 under the floor).
SHAPES = {
    "engines": (
        _engines_row,
        {"n": 20_000, "speedup_vectorized_vs_object": 40.0},
        0.25,
        "n=20000 speedup_vectorized_vs_object: 29.99x < 30.00x (baseline 40.00x - 25%)",
    ),
    "roundelim": (
        _roundelim_row,
        {"workload": "matching", "n": 4, "speedup": 4.8},
        0.25,
        "matching n=4: speedup 3.59x < 3.60x (baseline 4.80x - 25%)",
    ),
    "solvers": (
        _solvers_row,
        {"workload": "maximal-matching", "n": 4, "speedup": 23.0},
        0.4,
        "maximal-matching Δ=4: speedup 13.79x < 13.80x (baseline 23.00x - 40%)",
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestRegressionGate:
    def test_just_under_the_floor_fails_in_todays_text(self, benches, shape):
        row, expected, tolerance, message = SHAPES[shape]
        gate = getattr(benches, shape).GATE
        floor = expected[gate.speedup] * (1 - tolerance)
        baseline = {"workloads": [expected]}
        under = {"workloads": [row(round(floor - 0.01, 2))]}
        over = {"workloads": [row(round(floor + 0.01, 2))]}
        assert gate.regressions(under, baseline, tolerance) == [message]
        assert gate.regressions(over, baseline, tolerance) == []

    def test_millisecond_rows_are_not_gated(self, benches, shape):
        row, expected, tolerance, _message = SHAPES[shape]
        gate = getattr(benches, shape).GATE
        payload = {"workloads": [row(1.0, slow=harness.MIN_GATE_SECONDS - 0.001)]}
        assert gate.regressions(payload, {"workloads": [expected]}, tolerance) == []

    def test_rows_absent_from_the_baseline_are_not_gated(self, benches, shape):
        row, _expected, tolerance, _message = SHAPES[shape]
        gate = getattr(benches, shape).GATE
        payload = {"workloads": [row(0.5)]}
        assert gate.regressions(payload, {"workloads": []}, tolerance) == []
        assert gate.regressions(payload, {}, tolerance) == []


def test_vectorized_only_engine_rows_are_not_gated(benches):
    """The n ≥ 10^6 rows time the vectorized engine alone: no speedup and
    no object seconds, in the payload or the committed baseline."""
    row = {"n": 1_000_000, "rounds": 8, "seconds": {"vectorized": 1.0}}
    committed = json.loads((BENCHMARKS / "baselines" / "BENCH_engines.json").read_text())
    gate = benches.engines.GATE
    for baseline in (committed, {"workloads": [{"n": 1_000_000, gate.speedup: 50.0}]}):
        assert gate.regressions({"workloads": [row]}, baseline, 0.25) == []
    assert gate.regressions({"workloads": [_engines_row(1.0, n=1_000_000)]}, committed, 0.25) == []


class TestCriterionRow:
    def test_finds_the_row_by_key(self, benches):
        payload = {"workloads": [_roundelim_row(4.1, n=3), _roundelim_row(5.5)]}
        assert benches.roundelim.criterion_speedup(payload) == 5.5
        assert benches.roundelim.criterion_failures(payload) == []

    def test_missing_row_raises_naming_it(self, benches):
        payload = {"workloads": [_roundelim_row(4.1, n=3)]}
        with pytest.raises(
            AssertionError,
            match=re.escape("criterion workload ('matching', 4) missing from payload"),
        ):
            benches.roundelim.criterion_speedup(payload)
        with pytest.raises(AssertionError, match="'matching-d4'"):
            harness.criterion_row(
                {"workloads": [{"workload": "matching-d3"}]},
                lambda record: record["workload"],
                "matching-d4",
            )


def _clock(monkeypatch, durations):
    """Patch the harness clock so consecutive runs take ``durations``."""
    ticks = []
    for index, duration in enumerate(durations):
        ticks += [10.0 * index, 10.0 * index + duration]
    monkeypatch.setattr(
        harness, "time", types.SimpleNamespace(perf_counter=iter(ticks).__next__)
    )


class TestBestOf:
    def test_returns_the_minimum_and_the_last_result(self, monkeypatch):
        _clock(monkeypatch, [0.5, 0.25, 0.375])
        calls = iter(range(3))
        assert harness.best_of(lambda: next(calls), repeats=3) == (0.25, 2)

    def test_stops_after_a_first_run_over_the_cutoff(self, monkeypatch):
        _clock(monkeypatch, [harness.HEAVY_CUTOFF_SECONDS + 0.5])
        calls = []
        seconds, _result = harness.best_of(lambda: calls.append(None), repeats=3)
        assert (seconds, len(calls)) == (harness.HEAVY_CUTOFF_SECONDS + 0.5, 1)

    def test_a_slow_run_after_a_fast_one_keeps_repeating(self, monkeypatch):
        _clock(monkeypatch, [1.0, harness.HEAVY_CUTOFF_SECONDS + 1.0, 0.75])
        calls = []
        seconds, _result = harness.best_of(lambda: calls.append(None), repeats=3)
        assert (seconds, len(calls)) == (0.75, 3)


class TestGatedMain:
    def _run(self, benches, tmp_path, speedup, *flags):
        measured = {}

        def measure(mode, repeats):
            measured.update(
                mode=mode,
                repeats=repeats,
                payload={"schema": "test", "mode": mode, "workloads": [_roundelim_row(speedup)]},
            )
            return measured["payload"]

        out = tmp_path / "BENCH.json"
        code = harness.gated_main(
            doc="TEST — a gated bench\n\nmore",
            out="unused.json",
            measure=measure,
            show=lambda payload: None,
            failures=benches.roundelim.criterion_failures,
            gate=benches.roundelim.GATE,
            argv=["--out", str(out), *flags],
        )
        return code, measured, out

    def test_writes_the_payload_and_passes(self, benches, tmp_path, capsys):
        code, measured, out = self._run(benches, tmp_path, 5.0, "--smoke", "--repeats", "2")
        assert code == 0
        assert (measured["mode"], measured["repeats"]) == ("smoke", 2)
        assert out.read_text() == canonical_dumps(measured["payload"], indent=2) + "\n"
        assert capsys.readouterr().err == f"wrote {out}\n"

    def test_fail_lines_and_exit_code(self, benches, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"workloads": [{"workload": "matching", "n": 4, "speedup": 9.0}]})
        )
        code, measured, out = self._run(
            benches, tmp_path, 3.5, "--baseline", str(baseline), "--tolerance", "0.5"
        )
        assert code == 1
        assert (measured["mode"], measured["repeats"]) == ("full", 3)
        assert capsys.readouterr().err.splitlines() == [
            f"wrote {out}",
            "FAIL: criterion: Δ=4 matching speedup 3.50x < 4.0x",
            "FAIL: matching n=4: speedup 3.50x < 4.50x (baseline 9.00x - 50%)",
        ]
