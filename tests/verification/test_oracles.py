"""Oracles: green on the real implementations, and — the part that makes a
fuzzer trustworthy — each one *catches a planted bug* in the layer it
cross-checks."""

import random

import pytest

from repro.verification.oracles import (
    ORACLES,
    available_oracles,
    resolve_oracle,
    run_check,
)
from repro.utils import InvalidParameterError


def cases_for(name: str, count: int = 8):
    oracle = ORACLES[name]
    for index in range(count):
        yield oracle.generate(random.Random(f"clean:{name}:{index}"))


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_is_green_on_real_implementations(name):
    oracle = ORACLES[name]
    for params in cases_for(name):
        assert oracle.check(params) is None, params


def test_registry_listing_and_resolution():
    assert available_oracles() == sorted(ORACLES)
    assert {
        "roundelim",
        "engines",
        "solver",
        "sat",
        "serialization",
        "views",
        "explore",
        "reliability",
    } == set(ORACLES)
    assert resolve_oracle("solver") is ORACLES["solver"]
    with pytest.raises(InvalidParameterError):
        resolve_oracle("nope")


def test_run_check_converts_crashes_into_findings():
    class Exploding:
        name = "exploding"

        def check(self, params):
            raise RuntimeError("boom")

    detail = run_check(Exploding(), {})
    assert detail is not None and "RuntimeError" in detail and "boom" in detail


def _first_failure(name: str, attempts: int = 60):
    oracle = ORACLES[name]
    for index in range(attempts):
        params = oracle.generate(random.Random(f"plant:{name}:{index}"))
        detail = run_check(oracle, params)
        if detail is not None:
            return params, detail
    return None


def test_roundelim_oracle_catches_a_corrupted_kernel(monkeypatch):
    """Dropping one white configuration from the kernel's R output must
    surface as a constraint diff (apply_R imports the kernel lazily, so
    patching the kernel module is enough for R, R̄ and RE)."""
    from repro.formalism.constraints import Constraint
    from repro.formalism.problems import Problem
    from repro.roundelim import kernel

    real = kernel.apply_R_kernel

    def corrupted(problem, budget=0, **kwargs):
        result = real(problem, budget=budget, **kwargs)
        configs = sorted(result.white.configurations, key=lambda c: c.labels)
        return Problem(
            alphabet=result.alphabet,
            white=Constraint(configs[1:]),
            black=result.black,
            name=result.name,
        )

    monkeypatch.setattr(kernel, "apply_R_kernel", corrupted)
    failure = _first_failure("roundelim")
    assert failure is not None
    assert "constraints differ" in failure[1] or "alphabets differ" in failure[1]


def test_engines_oracle_catches_a_diverging_backend(monkeypatch):
    from repro import api

    real = api.solve

    def skewed(spec, **kwargs):
        report = real(spec, **kwargs)
        if kwargs.get("engine") == "vectorized":
            object.__setattr__(report, "rounds", report.rounds + 1)
        return report

    monkeypatch.setattr("repro.verification.oracles.api.solve", skewed)
    failure = _first_failure("engines", attempts=5)
    assert failure is not None
    assert "diverges" in failure[1]


def test_solver_oracle_catches_an_incomplete_search(monkeypatch):
    """A CSP that claims unsat on every instance must disagree with brute
    force as soon as a solvable case is generated."""
    monkeypatch.setattr(
        "repro.verification.oracles.solve_bipartite",
        lambda graph, problem, **kwargs: None,
    )
    failure = _first_failure("solver")
    assert failure is not None
    assert "existence disagrees" in failure[1]


def test_sat_oracle_catches_dropped_orbit_expansion(monkeypatch):
    """Sensitivity: if symmetry-broken enumeration stops re-expanding each
    lex-leader representative along the automorphism group, the SAT
    backend undercounts exactly on symmetric instances — the oracle's
    solution-set comparison must catch the plant."""
    from repro.solvers.sat import labeling as labeling_module

    monkeypatch.setattr(
        labeling_module, "expand_orbit", lambda labeling, autos: [labeling]
    )
    failure = _first_failure("sat", attempts=120)
    assert failure is not None
    assert "solution sets differ" in failure[1]


def test_serialization_oracle_catches_a_nonidempotent_encoder(monkeypatch):
    from repro.utils.serialization import to_jsonable as real

    def wrapping(value):
        return {"wrapped": real(value)}

    monkeypatch.setattr("repro.verification.oracles.to_jsonable", wrapping)
    failure = _first_failure("serialization", attempts=10)
    assert failure is not None
    assert "idempotent" in failure[1]


def test_reliability_oracle_catches_a_double_dispatch(monkeypatch):
    """Sensitivity: re-dispatching a crashed request *twice* (the classic
    at-least-once bug exactly-once supervision exists to prevent) must
    surface as an execution-count mismatch against the clean run —
    record bytes alone cannot see it because solves are deterministic."""
    from repro.reliability.supervise import SupervisedWorkerPool

    real = SupervisedWorkerPool._redispatch

    def twice(self, canonical):
        real(self, canonical)
        return real(self, canonical)

    monkeypatch.setattr(SupervisedWorkerPool, "_redispatch", twice)
    params = {
        "scenario": "service",
        "faults": [["worker.exec", 1, "crash"]],
    }
    detail = run_check(ORACLES["reliability"], params)
    assert detail is not None
    assert "exactly-once" in detail


def test_views_oracle_catches_a_locality_leak(monkeypatch):
    """A view that collects marks one hop too far is a locality violation
    the BFS reference must flag."""
    from repro.local import views as views_module
    from repro.local import supported as supported_module

    real = views_module.collect_supported_view

    def leaky(network, input_edges, node, radius):
        return real(network, input_edges, node, radius + 1)

    monkeypatch.setattr(supported_module, "collect_supported_view", leaky)
    failure = _first_failure("views")
    assert failure is not None
    assert "disagree" in failure[1] or "out-of-radius" in failure[1]
