"""Registry resolution: every declared suite is fully executable.

A pipeline's keyword-only arguments are the parameters its scenarios may
set, so these tests bind each registered scenario to its pipeline's
signature without running it, and check that no pipeline declares a
parameter that no scenario sets.
"""

import dataclasses
import inspect

import pytest

from repro.experiments import (
    PIPELINES,
    SUITES,
    Scenario,
    execute_scenario,
    get_scenario,
    get_suite,
    pipelines,
    suite_names,
)
from repro.experiments.pipelines import resolve_pipeline
from repro.utils import InvalidParameterError

SCENARIOS = [
    pytest.param(scenario, id=f"{suite}/{scenario.name}")
    for suite in suite_names()
    for scenario in get_suite(suite)
]


def _keyword_parameters(fn) -> set[str]:
    return {
        name
        for name, parameter in inspect.signature(fn).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }


class TestSuiteRegistry:
    def test_expected_suites_present(self):
        assert {"matching", "ruling_sets", "arbdefective", "mis",
                "round_elimination", "smoke"} <= set(suite_names())

    def test_every_pipeline_reference_resolves(self):
        for suite in suite_names():
            for scenario in get_suite(suite):
                assert resolve_pipeline(scenario.pipeline) is PIPELINES[scenario.pipeline]

    def test_scenario_names_unique_within_suite(self):
        for suite, scenarios in SUITES.items():
            names = [scenario.name for scenario in scenarios]
            assert len(names) == len(set(names)), suite

    def test_get_scenario(self):
        scenario = get_scenario("matching", "thm41-proposal-sweep")
        assert scenario.pipeline == "matching_proposal_sweep"
        assert scenario.sizes == (1, 2, 3)

    def test_unknown_suite_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_suite("nope")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidParameterError):
            get_scenario("matching", "nope")

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_pipeline("nope")

    def test_scenarios_are_picklable(self):
        import pickle

        for suite in suite_names():
            for scenario in get_suite(suite):
                assert pickle.loads(pickle.dumps(scenario)) == scenario

    def test_describe_is_serializable(self):
        from repro.utils.serialization import canonical_dumps

        for suite in suite_names():
            for scenario in get_suite(suite):
                assert canonical_dumps(scenario.describe())


class TestPipelineParameters:
    def test_scenario_has_six_fields(self):
        assert [field.name for field in dataclasses.fields(Scenario)] == [
            "name", "pipeline", "family", "sizes", "params", "engine",
        ]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_registered_scenario_binds_to_its_pipeline(self, scenario):
        signature = inspect.signature(PIPELINES[scenario.pipeline])
        signature.bind(scenario, None, **dict(scenario.params))

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_every_keyword_parameter_is_set_by_a_scenario(self, name):
        set_by_scenarios = {
            key
            for scenarios in SUITES.values()
            for scenario in scenarios
            if scenario.pipeline == name
            for key, _value in scenario.params
        }
        assert _keyword_parameters(PIPELINES[name]) == set_by_scenarios

    @pytest.mark.parametrize(
        ("scenario", "named"),
        [
            pytest.param(
                Scenario.create(
                    "x", pipeline="exploration_search", family="arbdefective",
                    delta=3, k=2, max_depth=2, max_nodes=4,
                    zero_round="exhaustive-sat",
                ),
                "zero_round",
                id="removed-parameter",
            ),
            pytest.param(
                Scenario.create(
                    "y", pipeline="matching_sequence_steps", sizes=(3,), xx=1
                ),
                "xx",
                id="misspelled-parameter",
            ),
            pytest.param(
                Scenario.create(
                    "z", pipeline="matching_sequence_steps", sizes=(3,), x=0
                ),
                "'y'",
                id="missing-parameter",
            ),
        ],
    )
    def test_bad_parameters_fail_before_any_work(self, monkeypatch, scenario, named):
        def no_work(*args, **kwargs):
            pytest.fail("the pipeline ran")

        monkeypatch.setattr(pipelines, "pi_arbdefective", no_work)
        monkeypatch.setattr(pipelines, "round_elimination", no_work)
        with pytest.raises(TypeError, match=named):
            execute_scenario(scenario)


class TestScenarioRng:
    def test_rng_depends_only_on_identity(self):
        scenario = get_scenario("mis", "luby-petersen")
        first = scenario.derive_rng(7).random()
        second = scenario.derive_rng(7).random()
        assert first == second

    def test_rng_varies_with_base_seed(self):
        scenario = get_scenario("mis", "luby-petersen")
        assert scenario.derive_rng(0).random() != scenario.derive_rng(1).random()
