"""Declarative experiment harness: scenarios, suites, runner, CLI.

The paper's claims live here: a single registry of named scenario suites
(``repro.experiments.registry``), measurement pipelines whose records
carry each claim's verdict (``repro.experiments.pipelines``) and a
serial / multiprocessing runner with canonical JSON output, which exits
non-zero when a claim fails.  ``tests/golden/`` holds every suite's
output.  Entry point: ``python -m repro.experiments``.
"""

from repro.experiments.pipelines import (
    PIPELINES,
    resolve_family,
    resolve_pipeline,
)
from repro.experiments.registry import (
    SUITES,
    get_scenario,
    get_suite,
    suite_names,
)
from repro.experiments.runner import Runner, SuiteResult, execute_scenario
from repro.experiments.scenarios import RESULT_SCHEMA, Scenario, ScenarioResult

__all__ = [
    "PIPELINES",
    "RESULT_SCHEMA",
    "Runner",
    "SUITES",
    "Scenario",
    "ScenarioResult",
    "SuiteResult",
    "execute_scenario",
    "get_scenario",
    "get_suite",
    "resolve_family",
    "resolve_pipeline",
    "suite_names",
]
