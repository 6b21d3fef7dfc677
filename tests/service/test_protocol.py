"""Wire protocol: canonicalization, digests, malformed-request codes."""

import pytest

from repro.service.protocol import (
    DEFAULT_ROUNDELIM_BUDGET,
    REQUEST_SCHEMA,
    ProtocolError,
    canonicalize_request,
    error_response,
    ok_response,
    request_digest,
    roundelim_request,
    solve_request,
)


def canonical(request):
    return canonicalize_request(request)


class TestCanonicalizeSolve:
    def test_spec_string_problem(self):
        out = canonical(solve_request(
            "matching:delta=3,x=0,y=1", algorithm="matching:proposal", n=16
        ))
        assert out["schema"] == REQUEST_SCHEMA
        assert out["kind"] == "solve"
        assert out["problem"] == "matching:delta=3,x=0,y=1"
        assert out["algorithm"] == "matching:proposal"
        assert out["engine"] == "object"
        assert out["n"] == 16
        assert out["seed"] == 0
        assert out["check"] is True

    def test_structured_problem_equals_spec_string(self):
        structured = canonical({
            "schema": REQUEST_SCHEMA,
            "kind": "solve",
            "problem": {"family": "matching", "parameters": {"delta": 3}},
            "algorithm": "matching:proposal",
        })
        spec = canonical(solve_request(
            "matching:delta=3", algorithm="matching:proposal"
        ))
        assert structured == spec
        assert request_digest(structured) == request_digest(spec)

    def test_aliases_normalize_to_one_digest(self):
        via_alias = canonical(solve_request(
            "matching:Δ=3,x=0,y=1", algorithm="matching:proposal"
        ))
        via_name = canonical(solve_request(
            "matching:delta=3,x=0,y=1", algorithm="matching:proposal"
        ))
        assert request_digest(via_alias) == request_digest(via_name)

    def test_digest_excludes_engine(self):
        base = canonical(solve_request(
            "matching:delta=3", algorithm="matching:proposal", n=16
        ))
        vectorized = canonical(solve_request(
            "matching:delta=3", algorithm="matching:proposal", n=16,
            engine="vectorized",
        ))
        assert base["engine"] != vectorized["engine"]
        assert request_digest(base) == request_digest(vectorized)

    def test_digest_sensitive_to_parameters(self):
        reference = canonical(solve_request(
            "matching:delta=3", algorithm="matching:proposal", n=16, seed=0
        ))
        for variant in (
            solve_request("matching:delta=3", algorithm="matching:proposal",
                          n=16, seed=1),
            solve_request("matching:delta=3", algorithm="matching:proposal",
                          n=32, seed=0),
            solve_request("matching:delta=4", algorithm="matching:proposal",
                          n=16, seed=0),
            solve_request("matching:delta=3", algorithm="matching:proposal",
                          n=16, seed=0, check=False),
        ):
            assert request_digest(canonical(variant)) != request_digest(reference)


class TestCanonicalizeRoundelim:
    def test_spec_string_problem(self):
        out = canonical(roundelim_request("sinkless-orientation:delta=3", op="R"))
        assert out["kind"] == "roundelim"
        assert out["op"] == "R"
        assert out["budget"] == DEFAULT_ROUNDELIM_BUDGET
        assert out["engine"] == "kernel"
        assert out["problem_digest"]
        assert out["problem"]["schema"] == "repro.normalize/v1"

    def test_payload_problem_matches_spec_problem(self):
        via_spec = canonical(roundelim_request(
            "sinkless-orientation:delta=3", op="R"
        ))
        via_payload = canonical(roundelim_request(via_spec["problem"], op="R"))
        assert request_digest(via_spec) == request_digest(via_payload)

    def test_digest_excludes_engine(self):
        kernel = canonical(roundelim_request(
            "sinkless-orientation:delta=3", op="RE", engine="kernel"
        ))
        reference = canonical(roundelim_request(
            "sinkless-orientation:delta=3", op="RE", engine="reference"
        ))
        assert request_digest(kernel) == request_digest(reference)


class _ReadRecorder(dict):
    """A canonical request that records which keys its reader asks for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize(
    "request_dict, unread",
    [
        (solve_request("maximal-matching:delta=3",
                       algorithm="matching:proposal", n=24), {"schema"}),
        # problem_digest is the problem's identity in the request digest.
        (roundelim_request("sinkless-orientation:delta=3", op="R"),
         {"schema", "problem_digest"}),
    ],
    ids=["solve", "roundelim"],
)
def test_worker_reads_every_field_of_a_canonical_request(request_dict, unread):
    """A canonical field the worker never reads selects nothing, yet
    every test, doc and chaos plan would have to cover its settings."""
    from repro.service.worker import compute_result

    recorder = _ReadRecorder(canonicalize_request(request_dict))
    assert compute_result(recorder)["ok"] is True
    assert set(recorder) - recorder.read == unread


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "request_dict, code",
        [
            ("not a dict", "bad-request"),
            ({"schema": "nope/v0", "kind": "solve"}, "unsupported-schema"),
            ({"schema": REQUEST_SCHEMA, "kind": "explode"}, "unknown-kind"),
            ({"schema": REQUEST_SCHEMA, "kind": "solve",
              "algorithm": "matching:proposal"}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "solve", "problem": 42,
              "algorithm": "matching:proposal"}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "solve",
              "problem": {"parameters": {}},
              "algorithm": "matching:proposal"}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "solve",
              "problem": "matching:delta=3", "algorithm": "matching:proposal",
              "n": True}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "solve",
              "problem": "matching:delta=3", "algorithm": "matching:proposal",
              "n": 0}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "solve",
              "problem": "matching:delta=3", "algorithm": "matching:proposal",
              "max_rounds": -1}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "roundelim",
              "problem": "sinkless-orientation:delta=3", "op": "Q"},
             "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "roundelim",
              "problem": "sinkless-orientation:delta=3", "op": "R",
              "budget": 0}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "roundelim",
              "problem": "sinkless-orientation:delta=3", "op": "R",
              "engine": "magic"}, "bad-field"),
            ({"schema": REQUEST_SCHEMA, "kind": "roundelim",
              "problem": {"schema": "future/v9"}, "op": "R"},
             "unsupported-schema"),
        ],
    )
    def test_error_code(self, request_dict, code):
        with pytest.raises(ProtocolError) as excinfo:
            canonicalize_request(request_dict)
        assert excinfo.value.code == code

    def test_typed_api_errors_pass_through(self):
        from repro.api import UnknownAlgorithmError

        with pytest.raises(UnknownAlgorithmError):
            canonicalize_request(solve_request(
                "matching:delta=3", algorithm="no-such:algorithm"
            ))


class TestEnvelopes:
    def test_ok_solve_uses_report_field(self):
        response = ok_response("solve", "d" * 32, {"x": 1}, cached=True)
        assert response["status"] == "ok"
        assert response["report"] == {"x": 1}
        assert response["cached"] is True

    def test_ok_roundelim_uses_result_field(self):
        response = ok_response("roundelim", "d" * 32, {"x": 1}, cached=False)
        assert response["result"] == {"x": 1}
        assert "report" not in response

    def test_error_envelope(self):
        response = error_response("bad-field", "nope")
        assert response["status"] == "error"
        assert response["error"] == {"code": "bad-field", "message": "nope"}

    @pytest.mark.parametrize("kind", ["solve", "roundelim"])
    @pytest.mark.parametrize("cached", [True, False])
    def test_rendered_envelope_matches_canonical_dumps(self, kind, cached):
        # The splice fast path must be byte-identical to serializing the
        # dict envelope — this is what keeps cache hits canonical.
        from repro.service.protocol import render_ok_response
        from repro.utils.serialization import canonical_dumps

        record = {"zeta": [3, 1], "alpha": {"b": True, "a": None}, "n": 7}
        digest = "ab" * 16
        spliced = render_ok_response(
            kind, digest, canonical_dumps(record), cached=cached
        )
        assert spliced == canonical_dumps(
            ok_response(kind, digest, record, cached=cached)
        )
