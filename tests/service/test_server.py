"""SolveService core: dedup, restart persistence, error mapping, lifecycle."""

import threading

import pytest

from repro import api
from repro.reliability.atomic import RESULTS_VERSION
from repro.service import (
    SolveService,
    roundelim_request,
    solve_request,
)
from repro.utils.serialization import canonical_dumps

SPEC = "maximal-matching:delta=3"
ALGORITHM = "matching:proposal"


def matching_request(seed=0, **kw):
    return solve_request(SPEC, algorithm=ALGORITHM, n=24, seed=seed, **kw)


@pytest.fixture
def service():
    with SolveService(jobs=1) as svc:
        yield svc


class TestSolvePath:
    def test_cold_then_warm(self, service):
        cold = service.submit(matching_request())
        assert cold["status"] == "ok"
        assert cold["cached"] is False
        warm = service.submit(matching_request())
        assert warm["cached"] is True
        assert warm["report"] == cold["report"]
        assert service.solves_computed == 1

    def test_byte_parity_with_direct_solve(self, service):
        response = service.submit(matching_request(seed=5))
        direct = api.solve(SPEC, algorithm=ALGORITHM, n=24, seed=5)
        assert canonical_dumps(response["report"]) == direct.canonical_json()

    def test_engine_variants_share_one_entry(self, service):
        first = service.submit(matching_request(engine="object"))
        second = service.submit(matching_request(engine="vectorized"))
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["digest"] == first["digest"]
        assert service.solves_computed == 1

    def test_roundelim_request(self, service):
        response = service.submit(
            roundelim_request("sinkless-orientation:delta=3", op="R")
        )
        assert response["status"] == "ok"
        assert response["kind"] == "roundelim"
        assert response["result"]["status"] == "ok"

    def test_failed_solve_is_not_cached(self, service):
        # An uncheckable request that fails at execution time would be
        # cached only if ok; an unknown algorithm fails canonicalization
        # and never reaches the cache.
        bad = solve_request(SPEC, algorithm="no:algo")
        assert service.submit(bad)["status"] == "error"
        assert len(service.cache) == 0


class TestConcurrentDedup:
    def test_duplicates_coalesce_to_exactly_one_solve(self):
        with SolveService(jobs=1) as service:
            request = matching_request(seed=9)
            responses = [None] * 8

            def hit(index):
                responses[index] = service.submit(request)

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(r["status"] == "ok" for r in responses)
            bodies = {canonical_dumps(r["report"]) for r in responses}
            assert len(bodies) == 1
            assert service.solves_computed == 1
            # Everyone past the first either coalesced or hit the cache.
            assert service.coalesced + [
                r["cached"] for r in responses
            ].count(True) == 7

    def test_distinct_requests_all_compute(self):
        with SolveService(jobs=1) as service:
            responses = [
                service.submit(matching_request(seed=seed)) for seed in range(4)
            ]
            assert all(r["cached"] is False for r in responses)
            assert service.solves_computed == 4
            digests = {r["digest"] for r in responses}
            assert len(digests) == 4


class TestRestartPersistence:
    def test_kill_and_restart_serves_warm_bytes(self, tmp_path):
        request = matching_request(seed=3)
        with SolveService(cache_dir=tmp_path, jobs=1) as first:
            original = first.submit(request)
            assert original["cached"] is False

        with SolveService(cache_dir=tmp_path, jobs=1) as second:
            warm = second.submit(request)
            assert warm["cached"] is True
            assert second.solves_computed == 0  # zero recompute
            assert second.cache.stats.disk_hits == 1
            assert canonical_dumps(warm["report"]) == canonical_dumps(
                original["report"]
            )
            direct = api.solve(SPEC, algorithm=ALGORITHM, n=24, seed=3)
            assert canonical_dumps(warm["report"]) == direct.canonical_json()

    def test_graceful_close_flushes_manifest(self, tmp_path):
        with SolveService(cache_dir=tmp_path, jobs=1) as service:
            service.submit(matching_request())
        assert (tmp_path / f"r{RESULTS_VERSION}" / "manifest.json").exists()


class TestErrorMapping:
    @pytest.mark.parametrize(
        "request_dict, code",
        [
            (solve_request(SPEC, algorithm="no:algo"), "unknown-algorithm"),
            (solve_request("martian:delta=3", algorithm=ALGORITHM), "bad-spec"),
            (solve_request(SPEC, algorithm=ALGORITHM, engine="warp"),
             "unknown-engine"),
            (solve_request("coloring:delta=3,colors=4",
                           algorithm="matching:proposal"),
             "algorithm-mismatch"),
            ({"schema": "bogus/v1", "kind": "solve"}, "unsupported-schema"),
            ({"schema": "repro.service/request-v1", "kind": "dance"},
             "unknown-kind"),
            ([1, 2, 3], "bad-request"),
        ],
    )
    def test_structured_error_codes(self, service, request_dict, code):
        response = service.submit(request_dict)
        assert response["status"] == "error"
        assert response["error"]["code"] == code
        assert response["error"]["message"]

    def test_errors_counted(self, service):
        before = service.errors
        service.submit({"schema": "bogus/v1"})
        assert service.errors == before + 1


RULING = ("ruling-set:delta=3,colors=1,beta=1", "ruling-set:class-sweep")


class TestSolveOptions:
    @pytest.mark.parametrize(
        "problem, algorithm, options",
        [
            (SPEC, ALGORITHM, {"seed": 3}),
            (*RULING, {"beta": "2"}),
            (SPEC, ALGORITHM, {"input_edge": [[0, 1]]}),
            (*RULING, {"beta": 3}),
        ],
        ids=["facade-argument", "non-integer-beta", "typo", "beta-override"],
    )
    def test_undeclared_option_refused_before_a_worker(
        self, service, problem, algorithm, options
    ):
        """Each used to answer ``internal``, be silently ignored, or (β)
        override the spec under a record naming the spec's value."""
        response = service.submit(
            solve_request(problem, algorithm=algorithm, n=16, options=options)
        )
        assert response["status"] == "error"
        assert response["error"]["code"] == "bad-spec"
        accepted = list(api.resolve_algorithm(algorithm).options)
        assert f"accepted options: {accepted}" in response["error"]["message"]
        assert service.solves_computed == 0

    @pytest.mark.parametrize(
        "input_edges",
        [[[0, 1]], [[[0, 0], [1, 1]]]],
        ids=["not-an-edge", "list-endpoints"],
    )
    def test_input_edge_outside_the_support_graph(self, service, input_edges):
        """G′ ⊆ G: a foreign edge used to answer ``ok`` with an invalid
        matching, and list-valued endpoints ``internal``."""
        response = service.submit(
            solve_request(
                SPEC, algorithm=ALGORITHM, n=16,
                options={"input_edges": input_edges},
            )
        )
        assert response["status"] == "error"
        assert response["error"]["code"] == "bad-parameter"
        assert "is not an edge of the support graph" in response["error"]["message"]

    @pytest.mark.parametrize(
        "spec,algorithm,option",
        [
            ("coloring:delta=3,colors=4", "coloring:class-sweep", "initial_coloring"),
            ("ruling-set:delta=3,colors=1,beta=2", "ruling-set:class-sweep", "coloring"),
            ("arbdefective:delta=4,colors=2", "arbdefective:class-sweep", "proper_coloring"),
        ],
        ids=["initial_coloring", "coloring", "proper_coloring"],
    )
    def test_coloring_keyed_by_strings(self, service, spec, algorithm, option):
        """JSON object keys are strings, so a coloring sent over the wire
        names none of a default network's int nodes; it used to answer
        ``internal`` (a bare ``KeyError: 0``)."""
        coloring = {str(node): node % 2 for node in range(16)}
        response = service.submit(
            solve_request(spec, algorithm=algorithm, n=16, options={option: coloring})
        )
        assert response["status"] == "error"
        assert response["error"]["code"] == "bad-parameter"
        message = response["error"]["message"]
        assert repr(option) in message
        assert "node 0" in message


class TestLifecycle:
    def test_closed_service_rejects(self):
        service = SolveService(jobs=1)
        service.close()
        response = service.submit(matching_request())
        assert response["error"]["code"] == "service-closed"

    def test_close_is_idempotent(self):
        service = SolveService(jobs=1)
        service.close()
        service.close()

    def test_status_shape(self, service):
        service.submit(matching_request())
        service.submit(matching_request())
        status = service.status()
        assert status["schema"] == "repro.service/status-v1"
        assert status["requests"] == 2
        assert status["solves_computed"] == 1
        assert status["cache"]["memory_hits"] == 1
        assert status["cache"]["size"] == 1
        assert status["inflight"] == 0
        assert ALGORITHM in status["algorithms"]
        assert "object" in status["engines"]


class TestWorkerBatching:
    def test_multiprocess_pool_matches_inline(self):
        request = matching_request(seed=11)
        with SolveService(jobs=1) as inline:
            expected = inline.submit(request)
        with SolveService(jobs=2, batch_size=4) as pooled:
            responses = [
                pooled.submit(matching_request(seed=seed)) for seed in (11, 12)
            ]
        assert canonical_dumps(responses[0]["report"]) == canonical_dumps(
            expected["report"]
        )
        assert pooled.batches >= 1
