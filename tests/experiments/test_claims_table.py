"""README's claims table covers the paper suites and names real fields.

The table maps each statement of the paper to the scenarios that check it
and to the record fields that carry the verdict.  Every scenario of the
five paper suites must have a row, every scenario a row names must be
registered, and every backticked name in a row's verdict column must be
a key of that scenario's golden records or a parameter of its pipeline.
A dotted name counts by its first part: ``labels.M`` checks ``labels``.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.experiments import PIPELINES, get_suite, suite_names

ROOT = Path(__file__).resolve().parents[2]

#: The suites that hold the paper's claims.
PAPER_SUITES = ("matching", "ruling_sets", "arbdefective", "mis", "round_elimination")

HEADER = "| claim | scenario | verdict in the record |"


def _rows() -> list[tuple[str, list[str], list[str]]]:
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # skip the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        claim, scenarios, verdict = (cell.strip() for cell in line.strip("|").split(" | "))
        rows.append((claim, re.findall(r"`([^`]+)`", scenarios), re.findall(r"`([^`]+)`", verdict)))
    return rows


ROWS = _rows()

#: Every registered scenario by its ``suite/name``.
REGISTERED = {
    f"{suite}/{scenario.name}": scenario
    for suite in suite_names()
    for scenario in get_suite(suite)
}


def _record_keys(name: str) -> set[str]:
    suite, scenario = name.split("/")
    payload = json.loads((ROOT / "tests" / "golden" / f"{suite}.json").read_text("utf-8"))
    (block,) = [b for b in payload["scenarios"] if b["scenario"]["name"] == scenario]
    return {key for record in block["records"] for key in record}


def _parameters(pipeline: str) -> set[str]:
    return {
        name
        for name, parameter in inspect.signature(PIPELINES[pipeline]).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    }


def test_every_paper_scenario_has_a_row():
    named = {name for _claim, scenarios, _verdict in ROWS for name in scenarios}
    missing = [
        name
        for name in REGISTERED
        if name.split("/")[0] in PAPER_SUITES and name not in named
    ]
    assert not missing


@pytest.mark.parametrize(
    ("scenarios", "verdict"),
    [
        pytest.param(scenarios, verdict, id=scenarios[0] if scenarios else claim)
        for claim, scenarios, verdict in ROWS
    ],
)
def test_row_names_registered_scenarios_and_their_fields(scenarios, verdict):
    assert scenarios and verdict
    for name in scenarios:
        assert name in REGISTERED, f"{name} is not a registered suite/scenario"
        known = _record_keys(name) | _parameters(REGISTERED[name].pipeline)
        unknown = [field for field in verdict if field.split(".")[0] not in known]
        assert not unknown, name
