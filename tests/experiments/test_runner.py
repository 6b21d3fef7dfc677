"""Runner determinism: seeded reproducibility and parallel/serial equality."""

from repro.experiments import Runner, execute_scenario, get_scenario, get_suite
from repro.utils.serialization import canonical_dumps


class TestSeededReproducibility:
    def test_same_seed_identical_payload(self):
        scenario = get_scenario("mis", "luby-petersen")
        first = execute_scenario(scenario, base_seed=3)
        second = execute_scenario(scenario, base_seed=3)
        assert canonical_dumps(first.payload()) == canonical_dumps(second.payload())

    def test_different_seed_different_randomized_records(self):
        scenario = get_scenario("mis", "luby-petersen")
        first = execute_scenario(scenario, base_seed=0)
        second = execute_scenario(scenario, base_seed=1)
        assert [r["luby_seed"] for r in first.records] != [
            r["luby_seed"] for r in second.records
        ]

    def test_wall_clock_excluded_from_payload(self):
        scenario = get_scenario("ruling_sets", "thm61-bound-series")
        result = execute_scenario(scenario)
        assert "wall" not in canonical_dumps(result.payload())


class TestParallelSerialEquality:
    def test_smoke_suite_parallel_equals_serial(self):
        serial = Runner(jobs=1, seed=0).run_suite("smoke")
        parallel = Runner(jobs=4, seed=0).run_suite("smoke")
        assert canonical_dumps(serial.payload()) == canonical_dumps(
            parallel.payload()
        )

    def test_payload_shape(self):
        result = Runner(jobs=2, seed=0).run_scenarios(
            "smoke", get_suite("smoke")[:2]
        )
        payload = result.payload()
        assert payload["schema"] == "repro.experiments/v2"
        assert payload["suite"] == "smoke"
        assert payload["ok"] is True
        assert payload["digest"]
        assert "timings" not in payload
        names = [block["scenario"]["name"] for block in payload["scenarios"]]
        assert names == sorted(names)

    def test_timings_flag_adds_block_without_touching_digest(self):
        result = Runner(jobs=1, seed=0).run_scenarios(
            "smoke", get_suite("smoke")[:1]
        )
        plain = result.payload()
        timed = result.payload(timings=True)
        assert timed["digest"] == plain["digest"]
        assert set(timed["timings"]) == {result.results[0].scenario.name, "total"}


class TestValidityGate:
    def test_ok_reflects_record_validity(self):
        scenario = get_scenario("arbdefective", "thm51-fixed-points-k2")
        result = execute_scenario(scenario)
        assert result.ok
        assert all(record["valid"] for record in result.records)
