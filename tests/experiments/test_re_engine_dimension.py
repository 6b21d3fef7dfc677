"""The ``re_engine`` scenario dimension: kernel/reference twins agree.

Suites carry ``*-reference-engine`` twin scenarios whose records must be
byte-identical to their kernel-engine base scenario — the executable
form of the round elimination engine contract.  The fast twins are
run and compared here; ``test_golden_records.py`` compares every twin's
golden records with its base's (including the slower Theorem B.2
speedup twin), and CI ``cmp``s fresh suite runs against those files.
"""

from repro.experiments import execute_scenario, get_scenario


class TestReEngineTwins:
    def test_census_twins_identical(self):
        base = execute_scenario(get_scenario("round_elimination", "re-step-census"))
        twin = execute_scenario(
            get_scenario("round_elimination", "re-step-census-reference-engine")
        )
        assert base.records == twin.records
        assert base.ok and twin.ok

    def test_smoke_census_twins_identical(self):
        base = execute_scenario(get_scenario("smoke", "smoke-re-census"))
        twin = execute_scenario(
            get_scenario("smoke", "smoke-re-census-reference-engine")
        )
        assert base.records == twin.records

    def test_lem45_reference_twin_matches_kernel_prefix(self):
        """The matching-suite twin runs the Δ=3 Lemma 4.5 step on the
        reference engine; its single record must equal the kernel-run
        base scenario's Δ=3 record."""
        base = execute_scenario(get_scenario("matching", "lem45-steps-x0"))
        twin = execute_scenario(
            get_scenario("matching", "lem45-steps-reference-engine")
        )
        assert list(twin.records) == [base.records[0]]
