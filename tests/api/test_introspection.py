"""Introspection helpers, typed error hierarchy, report schema round-trip."""

import json

import pytest

from repro import api
from repro.api import (
    REPORT_SCHEMA,
    AlgorithmMismatchError,
    ApiError,
    SolveReport,
    SpecError,
    UnknownAlgorithmError,
    UnknownEngineError,
    describe,
    error_code,
    list_algorithms,
    list_engines,
)
from repro.utils import InvalidParameterError, ReproError, SolverLimitError


class TestListAlgorithms:
    def test_all_registered(self):
        names = [entry["name"] for entry in list_algorithms()]
        assert names == sorted(names)
        assert "matching:proposal" in names
        assert "mis:luby" in names

    def test_entry_shape(self):
        entry = next(
            e for e in list_algorithms() if e["name"] == "matching:proposal"
        )
        assert "matching" in entry["families"]
        assert "maximal-matching" in entry["families"]
        assert entry["description"]

    def test_family_filter(self):
        mis_only = list_algorithms(family="mis")
        assert {e["name"] for e in mis_only} >= {"mis:aapr23", "mis:luby"}
        assert all("mis" in e["families"] for e in mis_only)

    def test_unknown_family_is_empty(self):
        assert list_algorithms(family="martian") == []


class TestListEngines:
    def test_default_marked(self):
        engines = list_engines()
        assert [e["name"] for e in engines] == sorted(
            e["name"] for e in engines
        )
        defaults = [e["name"] for e in engines if e["default"]]
        assert defaults == ["object"]
        assert {e["name"] for e in engines} == {"object", "vectorized"}


class TestDescribe:
    def test_matching_spec(self):
        info = describe("matching:Δ=3,x=0,y=1")
        assert info["spec"] == "matching:delta=3,x=0,y=1"
        assert info["family"] == "matching"
        assert info["parameters"] == {"delta": 3, "x": 0, "y": 1}
        assert "matching:proposal" in info["algorithms"]
        assert info["checkable"] is True
        assert "object" in info["engines"]

    def test_bad_spec_raises_typed(self):
        with pytest.raises(SpecError):
            describe("martian:delta=3")


class TestErrorHierarchy:
    def test_typed_errors_subclass_invalid_parameter(self):
        # Existing callers catch InvalidParameterError; the typed
        # hierarchy must stay inside it.
        for cls in (
            ApiError, SpecError, UnknownAlgorithmError, UnknownEngineError,
            AlgorithmMismatchError,
        ):
            assert issubclass(cls, InvalidParameterError)

    def test_registry_raises_unknown_algorithm(self):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            api.resolve_algorithm("no:algo")
        assert excinfo.value.code == "unknown-algorithm"
        assert "matching:proposal" in str(excinfo.value)

    def test_engines_raise_unknown_engine(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            api.resolve_engine("warp")
        assert excinfo.value.code == "unknown-engine"

    def test_solve_raises_algorithm_mismatch(self):
        with pytest.raises(AlgorithmMismatchError) as excinfo:
            api.solve("coloring:delta=3,colors=4",
                      algorithm="matching:proposal", n=8)
        assert excinfo.value.code == "algorithm-mismatch"
        assert "coloring" in str(excinfo.value)

    def test_spec_error_on_unknown_family(self):
        with pytest.raises(SpecError) as excinfo:
            api.solve("martian:delta=3", algorithm="matching:proposal", n=8)
        assert excinfo.value.code == "bad-spec"

    def test_error_code_mapping(self):
        assert error_code(SpecError("x")) == "bad-spec"
        assert error_code(SolverLimitError("x")) == "budget-exhausted"
        assert error_code(InvalidParameterError("x")) == "bad-parameter"
        assert error_code(ReproError("x")) == "library-error"
        assert error_code(ValueError("x")) == "internal"


class TestReportSchema:
    def solve(self, **kw):
        return api.solve(
            "maximal-matching:delta=3", algorithm="matching:proposal",
            n=16, **kw,
        )

    def test_record_carries_schema_tag(self):
        record = self.solve().as_record()
        assert record["schema"] == REPORT_SCHEMA

    def test_encode_decode_encode_stable(self):
        report = self.solve()
        first = report.canonical_json()
        rebuilt = SolveReport.from_record(json.loads(first))
        assert rebuilt.canonical_json() == first
        # Twice: from_record output must itself round-trip.
        again = SolveReport.from_record(json.loads(rebuilt.canonical_json()))
        assert again.canonical_json() == first

    def test_from_record_restores_fields(self):
        report = self.solve(seed=5)
        rebuilt = SolveReport.from_record(json.loads(report.canonical_json()))
        assert rebuilt.problem == report.problem
        assert rebuilt.algorithm == report.algorithm
        assert rebuilt.seed == 5
        assert rebuilt.rounds == report.rounds
        assert rebuilt.valid == report.valid
        assert rebuilt.engine == ""  # execution detail, not serialized

    def test_unchecked_report_round_trips_none(self):
        report = self.solve(check=False)
        rebuilt = SolveReport.from_record(json.loads(report.canonical_json()))
        assert rebuilt.valid is None
        assert rebuilt.check is None

    def test_from_record_rejects_wrong_schema(self):
        record = json.loads(self.solve().canonical_json())
        record["schema"] = "repro.api/report-v999"
        with pytest.raises(SpecError):
            SolveReport.from_record(record)

    def test_from_record_rejects_missing_fields(self):
        record = json.loads(self.solve().canonical_json())
        del record["rounds"]
        with pytest.raises(SpecError) as excinfo:
            SolveReport.from_record(record)
        assert "rounds" in str(excinfo.value)

    def test_from_record_rejects_non_dict(self):
        with pytest.raises(SpecError):
            SolveReport.from_record("not a record")
