"""Fault plans and clocks: validation, seeded determinism, exactly-once."""

import threading

import pytest

from repro.reliability.atomic import write_checked_json
from repro.reliability.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    PLAN_SCHEMA,
    SITE_DESCRIPTIONS,
    FaultClock,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    StorageFault,
    TornWriteFault,
    check_fault,
)
from repro.utils import InvalidParameterError


class TestCatalog:
    def test_every_site_kind_is_a_known_kind(self):
        for site, kinds in FAULT_SITES.items():
            assert kinds, site
            assert set(kinds) <= set(FAULT_KINDS)

    def test_every_site_is_documented(self):
        assert set(SITE_DESCRIPTIONS) == set(FAULT_SITES)


class TestFaultSpec:
    def test_valid_spec_round_trips(self):
        spec = FaultSpec(site="cache.write", hit=2, kind="torn_write")
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_unknown_site_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultSpec(site="nope", hit=1, kind="error")

    def test_unsupported_kind_for_site_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultSpec(site="worker.exec", hit=1, kind="torn_write")

    @pytest.mark.parametrize("hit", [0, -1, True, "1"])
    def test_bad_hit_rejected(self, hit):
        with pytest.raises(InvalidParameterError):
            FaultSpec(site="cache.write", hit=hit, kind="error")

    def test_typed_errors_carry_the_spec(self, tmp_path):
        for kind, expected in (("error", StorageFault), ("torn_write", TornWriteFault)):
            spec = FaultSpec(site="cache.write", hit=1, kind=kind)
            clock = FaultClock(FaultPlan.from_faults([spec]))
            with pytest.raises(expected) as raised:
                write_checked_json(
                    tmp_path / "entry.json", {"a": 1}, fault_clock=clock, site="cache.write"
                )
            assert isinstance(raised.value, InjectedFault)
            assert raised.value.spec == spec
            assert raised.value.code == "injected-fault"


class TestFaultPlan:
    def test_duplicate_site_hit_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.from_faults(
                [("cache.write", 1, "error"), ("cache.write", 1, "corrupt")]
            )

    def test_round_trip_through_dict(self):
        plan = FaultPlan.seeded(5)
        restored = FaultPlan.from_dict(plan.as_dict())
        assert restored == plan
        assert plan.as_dict()["schema"] == PLAN_SCHEMA

    def test_wrong_schema_rejected(self):
        payload = {**FaultPlan.seeded(5).as_dict(), "schema": "other/v0"}
        with pytest.raises(InvalidParameterError):
            FaultPlan.from_dict(payload)

    def test_seeded_is_deterministic_and_seed_sensitive(self):
        assert FaultPlan.seeded(7) == FaultPlan.seeded(7)
        assert any(
            FaultPlan.seeded(7) != FaultPlan.seeded(other)
            for other in range(8, 16)
        )

    def test_seeded_respects_site_restriction(self):
        plan = FaultPlan.seeded(3, sites=("store.write",), max_faults=5)
        assert plan.faults
        assert {spec.site for spec in plan.faults} == {"store.write"}

    def test_seeded_unknown_site_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultPlan.seeded(0, sites=("nope",))

    def test_without_drops_exactly_one_fault(self):
        plan = FaultPlan.from_faults(
            [("cache.write", 1, "error"), ("store.write", 2, "corrupt")]
        )
        smaller = plan.without(0)
        assert len(smaller) == 1
        assert smaller.faults[0].site == "store.write"

    def test_from_faults_accepts_specs_dicts_and_triples(self):
        spec = FaultSpec(site="cache.write", hit=1, kind="error")
        plan = FaultPlan.from_faults(
            [spec, {"site": "store.write", "hit": 1, "kind": "corrupt"},
             ("worker.exec", 1, "crash")]
        )
        assert len(plan) == 3


class TestFaultClock:
    def test_fires_exactly_once_on_the_scheduled_hit(self):
        plan = FaultPlan.from_faults([("cache.write", 2, "error")])
        clock = FaultClock(plan)
        assert clock.check("cache.write") is None
        fired = clock.check("cache.write")
        assert fired is not None and fired.hit == 2
        assert clock.check("cache.write") is None
        assert clock.fired == [fired.as_dict()]
        assert clock.exhausted()

    def test_unknown_site_rejected(self):
        with pytest.raises(InvalidParameterError):
            FaultClock().check("nope")

    def test_check_fault_tolerates_no_clock(self):
        assert check_fault(None, "cache.write") is None

    def test_hits_census(self):
        clock = FaultClock()
        for _ in range(3):
            clock.check("store.write")
        clock.check("cache.write")
        assert clock.hits() == {"store.write": 3, "cache.write": 1}

    def test_thread_safe_single_fire(self):
        """Many threads hammering one site must fire the fault exactly
        once and count every hit."""
        plan = FaultPlan.from_faults([("cache.write", 50, "error")])
        clock = FaultClock(plan)
        fired = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(25):
                if clock.check("cache.write") is not None:
                    fired.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(fired) == 1
        assert clock.hits() == {"cache.write": 200}
