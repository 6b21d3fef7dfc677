"""The golden records: ``tests/golden/<suite>.json`` is each suite's output.

CI runs the suites and ``cmp``s their output against these files, on every
Python of the test matrix and under two hash seeds.  This test runs no
suite: it checks that the files match the registry, one file per suite,
each naming exactly the suite's scenarios as declared, all ok.  A new or
changed scenario therefore fails here until its suite's file is
regenerated, which is a declared record change::

    PYTHONHASHSEED=0 python -m repro.experiments run --suite S --jobs 2 \\
        --out tests/golden/S.json

It also checks the twins.  A twin reruns another scenario with one
execution detail changed (RE engine, worker count, solver backend or
solve engine), so its records equal its base's.  Together with CI's
``cmp`` of every fresh run against these files, that is the twin check
of each run.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import get_suite, suite_names

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

#: The name suffixes that mark a twin; the base is the name without it.
TWIN_SUFFIXES = ("-reference-engine", "-jobs4", "-sat-solver", "-vectorized")

#: Twins whose base has another name: the base, and how many of its
#: leading records the twin reruns.
TWIN_BASES = {"lem45-steps-reference-engine": ("lem45-steps-x0", 1)}

#: Named like a twin but not one: the runner seeds a scenario's RNG with
#: its name, so this rerun solves other random instances and its digests
#: differ from ``service-roundtrip``'s.
NOT_TWINS = {"service-roundtrip-vectorized"}


def _golden(suite: str) -> dict:
    return json.loads((GOLDEN / f"{suite}.json").read_text(encoding="utf-8"))


def _twins() -> list:
    pairs = []
    for suite in suite_names():
        records = {
            block["scenario"]["name"]: block["records"]
            for block in _golden(suite)["scenarios"]
        }
        for name in sorted(set(records) - NOT_TWINS):
            suffix = next((s for s in TWIN_SUFFIXES if name.endswith(s)), None)
            if suffix is None:
                continue
            base, count = TWIN_BASES.get(name, (name.removesuffix(suffix), None))
            pairs.append(
                pytest.param(records[base][:count], records[name], id=f"{suite}/{name}")
            )
    return pairs


def test_one_golden_file_per_suite():
    assert sorted(path.name for path in GOLDEN.iterdir()) == [
        f"{suite}.json" for suite in suite_names()
    ]


@pytest.mark.parametrize("suite", suite_names())
def test_golden_file_names_its_suites_scenarios(suite):
    payload = _golden(suite)
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


@pytest.mark.parametrize(("base", "twin"), _twins())
def test_twin_records_equal_their_base(base, twin):
    assert twin == base
