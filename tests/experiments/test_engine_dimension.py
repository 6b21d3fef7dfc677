"""The --engine dimension: any suite runs on any backend, payload unchanged."""

import pytest

from repro import api
from repro.api.engines import DEFAULT_ENGINE
from repro.experiments import Scenario, execute_scenario, get_scenario
from repro.experiments.cli import main
from repro.experiments.runner import Runner


class TestScenarioEngineField:
    def test_default_engine_is_the_api_default(self):
        assert Scenario.create("s", pipeline="mis_supported").engine == DEFAULT_ENGINE
        assert Scenario("s", pipeline="mis_supported").engine == DEFAULT_ENGINE

    def test_with_engine_retargets(self):
        scenario = Scenario.create("s", pipeline="mis_supported")
        retargeted = scenario.with_engine("vectorized")
        assert retargeted.engine == "vectorized"
        assert retargeted.name == scenario.name

    def test_engine_excluded_from_describe(self):
        """The engine is an execution detail: identical runs on different
        backends must serialize byte-identically, so it never enters the
        deterministic payload."""
        scenario = Scenario.create("s", pipeline="mis_supported", engine="vectorized")
        assert "engine" not in scenario.describe()


class TestEngineParityThroughPipelines:
    @pytest.mark.parametrize(
        "suite,name",
        [
            ("mis", "luby-petersen"),
            ("mis", "aapr23-petersen"),
            ("matching", "thm41-proposal-sweep"),
        ],
    )
    def test_scenario_payload_identical_across_engines(self, suite, name):
        """Every registered engine must produce the identical pipeline
        payload."""
        scenario = get_scenario(suite, name)
        payloads = {
            engine: execute_scenario(scenario.with_engine(engine)).payload()
            for engine in api.available_engines()
        }
        reference = payloads["object"]
        assert reference["ok"] is True
        for engine, payload in payloads.items():
            assert payload == reference, engine


class TestRunnerAndCli:
    def test_runner_engine_override(self):
        scenario = get_scenario("mis", "aapr23-petersen")
        reference = Runner(jobs=1).run_scenarios("mis", [scenario])
        retargeted = Runner(jobs=1, engine="vectorized").run_scenarios(
            "mis", [scenario]
        )
        assert retargeted.results[0].scenario.engine == "vectorized"
        assert retargeted.payload() == reference.payload()

    def test_cli_engine_flag(self, tmp_path):
        first = tmp_path / "object.json"
        second = tmp_path / "vectorized.json"
        assert main(["run", "--suite", "ruling_sets", "--engine", "object",
                     "--out", str(first)]) == 0
        assert main(["run", "--suite", "ruling_sets", "--engine", "vectorized",
                     "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()

    def test_cli_rejects_unknown_engine(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--suite", "mis", "--engine", "warp"])
        assert "invalid choice" in capsys.readouterr().err
