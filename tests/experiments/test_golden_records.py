"""The golden records: ``tests/golden/<suite>.json`` is each suite's output.

CI runs the suites and ``cmp``s their output against these files, on every
Python of the test matrix and under two hash seeds.  This test runs no
suite: it checks that the files match the registry, one file per suite,
each naming exactly the suite's scenarios as declared, all ok.  A new or
changed scenario therefore fails here until its suite's file is
regenerated, which is a declared record change::

    PYTHONHASHSEED=0 python -m repro.experiments run --suite S --jobs 2 \\
        --out tests/golden/S.json
"""

import json
from pathlib import Path

import pytest

from repro.experiments import get_suite, suite_names

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def test_one_golden_file_per_suite():
    assert sorted(path.name for path in GOLDEN.iterdir()) == [
        f"{suite}.json" for suite in suite_names()
    ]


@pytest.mark.parametrize("suite", suite_names())
def test_golden_file_names_its_suites_scenarios(suite):
    payload = json.loads((GOLDEN / f"{suite}.json").read_text(encoding="utf-8"))
    declared = sorted(
        (scenario.describe() for scenario in get_suite(suite)),
        key=lambda description: description["name"],
    )
    assert payload["suite"] == suite
    assert payload["seed"] == 0
    assert payload["ok"] is True
    # Through JSON, so tuple-valued parameters compare as the lists they are.
    assert [block["scenario"] for block in payload["scenarios"]] == json.loads(
        json.dumps(declared)
    )
    assert all(block["ok"] is True for block in payload["scenarios"])
