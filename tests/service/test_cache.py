"""ReportCache: LRU eviction order, disk tier, stats accounting."""

import json

import pytest

from repro.reliability.atomic import RESULTS_VERSION
from repro.service.cache import CACHE_SCHEMA, MANIFEST_SCHEMA, ReportCache
from repro.utils import InvalidParameterError


def record_for(i):
    return {"value": i}


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ReportCache(capacity=4)
        assert cache.lookup("a") is None
        cache.record("a", "solve", record_for(1))
        entry = cache.lookup("a")
        assert entry["kind"] == "solve"
        assert entry["record"] == {"value": 1}
        assert entry["record_json"] == '{"value":1}'
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.stored == 1

    def test_eviction_is_least_recently_used(self):
        cache = ReportCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.record(key, "solve", record_for(key))
        # Touch "a": now "b" is the least recently used.
        assert cache.lookup("a") is not None
        cache.record("d", "solve", record_for("d"))
        assert cache.stats.evictions == 1
        assert cache.lookup("b") is None
        for key in ("a", "c", "d"):
            assert cache.lookup(key) is not None, key

    def test_eviction_order_over_a_sweep(self):
        cache = ReportCache(capacity=2)
        for i in range(5):
            cache.record(str(i), "solve", record_for(i))
        assert len(cache) == 2
        assert cache.stats.evictions == 3
        assert cache.lookup("4") is not None
        assert cache.lookup("3") is not None
        for key in ("0", "1", "2"):
            assert cache.lookup(key) is None

    def test_capacity_validated(self):
        with pytest.raises(InvalidParameterError):
            ReportCache(capacity=0)


class TestDiskTier:
    def test_write_through_and_reload(self, tmp_path):
        cache = ReportCache(capacity=4, root=tmp_path)
        cache.record("deadbeef", "solve", record_for(7))
        on_disk = json.loads((tmp_path / f"r{RESULTS_VERSION}" / "reports" / "deadbeef.json").read_text())
        assert on_disk["schema"] == CACHE_SCHEMA
        assert on_disk["digest"] == "deadbeef"
        assert on_disk["record"] == {"value": 7}

        fresh = ReportCache(capacity=4, root=tmp_path)
        entry = fresh.lookup("deadbeef")
        assert entry["record"] == {"value": 7}
        assert entry["record_json"] == '{"value":7}'
        assert fresh.stats.disk_hits == 1
        # Promoted to memory: the second lookup is a memory hit.
        fresh.lookup("deadbeef")
        assert fresh.stats.memory_hits == 1

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ReportCache(capacity=1, root=tmp_path)
        cache.record("aaaa", "solve", record_for(1))
        cache.record("bbbb", "solve", record_for(2))
        assert cache.stats.evictions == 1
        # "aaaa" left memory but survives on disk.
        assert cache.lookup("aaaa")["record"] == {"value": 1}
        assert cache.stats.disk_hits == 1

    def test_flush_writes_manifest(self, tmp_path):
        cache = ReportCache(capacity=4, root=tmp_path)
        cache.record("aaaa", "solve", record_for(1))
        cache.record("bbbb", "roundelim", record_for(2))
        path = cache.flush()
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["reports"] == 2
        assert manifest["stats"]["stored"] == 2

    def test_memory_only_flush_is_noop(self):
        assert ReportCache(capacity=4).flush() is None

    def test_unbounded_cache_never_evicts_disk(self, tmp_path):
        cache = ReportCache(capacity=1, root=tmp_path)
        for i in range(5):
            cache.record(f"d{i}", "solve", record_for(i))
        assert len(list((tmp_path / f"r{RESULTS_VERSION}" / "reports").glob("*.json"))) == 5


class TestStats:
    def test_hit_rate(self):
        cache = ReportCache(capacity=4)
        assert cache.stats.hit_rate == 0.0
        cache.record("a", "solve", record_for(1))
        cache.lookup("a")
        cache.lookup("a")
        cache.lookup("missing")
        assert cache.stats.lookups == 3
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats.as_dict()["hit_rate"] == pytest.approx(2 / 3, abs=1e-6)
