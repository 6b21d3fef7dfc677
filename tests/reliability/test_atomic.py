"""Crash-safe storage primitives: atomicity, checksums, quarantine, sweep."""

import json
import os
import subprocess
import sys

import pytest

from repro.reliability import atomic
from repro.reliability.atomic import (
    CHECKSUM_KEY,
    QUARANTINE_DIR,
    RESULTS_VERSION,
    CorruptEntryError,
    MemoTier,
    TierStats,
    body_checksum,
    open_with_recovery,
    quarantine_entry,
    read_checked_json,
    sweep_tree,
    write_checked_json,
)
from repro.reliability.faults import (
    FaultClock,
    FaultPlan,
    StorageFault,
    TornWriteFault,
)


def clock_for(*faults):
    return FaultClock(FaultPlan.from_faults(list(faults)))


class TestWriteReadRoundTrip:
    def test_round_trip_strips_the_footer(self, tmp_path):
        path = tmp_path / "entry.json"
        write_checked_json(path, {"a": 1, "b": [2, 3]})
        assert read_checked_json(path) == {"a": 1, "b": [2, 3]}
        assert json.loads(path.read_text())[CHECKSUM_KEY] == body_checksum(
            {"a": 1, "b": [2, 3]}
        )

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "entry.json"
        write_checked_json(path, {"v": 1})
        write_checked_json(path, {"v": 2})
        assert read_checked_json(path) == {"v": 2}
        assert not list(tmp_path.glob("*.tmp"))

    def test_legacy_entry_without_footer_refused(self, tmp_path):
        # Every tier lives under root/r<N>/, where write_checked_json
        # wrote each entry with a footer: one without it is corrupt.
        path = tmp_path / "legacy.json"
        path.write_text('{"old": true}')
        with pytest.raises(CorruptEntryError, match="no checksum footer"):
            read_checked_json(path)

    @pytest.mark.parametrize(
        "umask, mode", [("022", "-rw-r--r--"), ("077", "-rw-------")]
    )
    def test_the_umask_sets_the_mode(self, tmp_path, umask, mode):
        """Both JSON writers create their files as a shell redirect does:
        mode 0666 less the umask.  The umask is process-wide, so it is
        set in a child process."""
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "import os, stat, sys\n"
            "from pathlib import Path\n"
            "os.umask(int(sys.argv[1], 8))\n"
            "from repro.reliability.atomic import write_checked_json\n"
            "from repro.utils.serialization import write_json\n"
            "root = Path(sys.argv[2])\n"
            "for path in (write_json(root / 'plain.json', [1]),\n"
            "             write_checked_json(root / 'checked.json', {'v': 1})):\n"
            "    print(stat.filemode(path.stat().st_mode))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, umask, str(tmp_path)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert completed.stdout.split() == [mode, mode]
        assert not list(tmp_path.glob("*.tmp"))


class TestCorruptionDetection:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.write_text(""),
            lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
            lambda p: p.write_text("not json {{{"),
            lambda p: p.write_text("[1, 2, 3]"),
        ],
        ids=["zero-byte", "truncated", "bad-json", "non-object"],
    )
    def test_damaged_entries_raise(self, tmp_path, mutate):
        path = tmp_path / "entry.json"
        write_checked_json(path, {"payload": list(range(40))})
        mutate(path)
        with pytest.raises(CorruptEntryError):
            read_checked_json(path)

    def test_bad_checksum_raises(self, tmp_path):
        path = tmp_path / "entry.json"
        write_checked_json(path, {"v": 1})
        body = json.loads(path.read_text())
        body["v"] = 2  # tamper without refreshing the footer
        path.write_text(json.dumps(body))
        with pytest.raises(CorruptEntryError):
            read_checked_json(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CorruptEntryError):
            read_checked_json(tmp_path / "absent.json")


class TestInjectedFaults:
    def test_error_fault_writes_nothing(self, tmp_path):
        clock = clock_for(("store.write", 1, "error"))
        path = tmp_path / "entry.json"
        with pytest.raises(StorageFault):
            write_checked_json(path, {"v": 1}, fault_clock=clock, site="store.write")
        assert not path.exists()

    def test_torn_write_tears_only_the_tmp(self, tmp_path):
        clock = clock_for(("store.write", 1, "torn_write"))
        path = tmp_path / "entry.json"
        write_checked_json(path, {"v": 1})
        with pytest.raises(TornWriteFault):
            write_checked_json(path, {"v": 2}, fault_clock=clock, site="store.write")
        # The visible entry is still the previous complete version; the
        # torn bytes live in a stray *.tmp for recovery to sweep.
        assert read_checked_json(path) == {"v": 1}
        assert list(tmp_path.glob("*.tmp"))

    def test_corrupt_fault_is_silent_but_checksums_catch_it(self, tmp_path):
        clock = clock_for(("store.write", 1, "corrupt"))
        path = tmp_path / "entry.json"
        write_checked_json(path, {"v": 1}, fault_clock=clock, site="store.write")
        assert path.exists()  # the write "succeeded"
        with pytest.raises(CorruptEntryError):
            read_checked_json(path)


class TestQuarantine:
    def test_moves_not_deletes(self, tmp_path):
        path = tmp_path / "sub" / "bad.json"
        path.parent.mkdir()
        path.write_text("garbage")
        home = quarantine_entry(path, tmp_path)
        assert not path.exists()
        assert home == tmp_path / QUARANTINE_DIR / "bad.json"
        assert home.read_text() == "garbage"

    def test_collisions_get_numeric_suffixes(self, tmp_path):
        for round_number in range(3):
            path = tmp_path / "bad.json"
            path.write_text(f"garbage {round_number}")
            quarantine_entry(path, tmp_path)
        names = sorted(p.name for p in (tmp_path / QUARANTINE_DIR).iterdir())
        assert names == ["bad.json", "bad.json.1", "bad.json.2"]

    def test_vanished_entry_returns_none(self, tmp_path):
        assert quarantine_entry(tmp_path / "gone.json", tmp_path) is None


class TestSweepAndRecovery:
    def _populate(self, root):
        write_checked_json(root / "nodes" / "good.json", {"v": 1})
        write_checked_json(root / "nodes" / "bad.json", {"v": 2})
        (root / "nodes" / "bad.json").write_text("torn{")
        (root / "nodes" / "stray.json.123.tmp").write_text("half")

    def test_sweep_quarantines_and_removes_tmp(self, tmp_path):
        self._populate(tmp_path)
        summary = sweep_tree(tmp_path, ("nodes",))
        assert summary == {"checked": 2, "quarantined": 1, "tmp_removed": 1}
        assert (tmp_path / QUARANTINE_DIR / "bad.json").exists()
        assert read_checked_json(tmp_path / "nodes" / "good.json") == {"v": 1}

    def test_graceful_manifest_skips_the_sweep(self, tmp_path):
        self._populate(tmp_path)
        write_checked_json(tmp_path / "manifest.json", {"entries": 2})
        summary = open_with_recovery(tmp_path, ("nodes",))
        assert summary["graceful"] is True
        assert summary["checked"] == 0
        # Lazy validation: the bad entry is still in place, to be caught
        # (and quarantined) on first read.
        assert (tmp_path / "nodes" / "bad.json").exists()

    def test_missing_manifest_sweeps_eagerly(self, tmp_path):
        self._populate(tmp_path)
        summary = open_with_recovery(tmp_path, ("nodes",))
        assert summary == {
            "graceful": False, "checked": 2, "quarantined": 1, "tmp_removed": 1,
        }

    def test_corrupt_manifest_is_quarantined_and_sweeps(self, tmp_path):
        self._populate(tmp_path)
        (tmp_path / "manifest.json").write_text("{broken")
        summary = open_with_recovery(tmp_path, ("nodes",))
        assert summary["graceful"] is False
        assert (tmp_path / QUARANTINE_DIR / "manifest.json").exists()

    def test_creates_subdirectories(self, tmp_path):
        open_with_recovery(tmp_path / "fresh", ("a", "b"))
        assert (tmp_path / "fresh" / "a").is_dir()
        assert (tmp_path / "fresh" / "b").is_dir()


class TestResultsVersion:
    """A memo tier reads only entries written under its results version."""

    @staticmethod
    def _tier(root):
        return MemoTier(
            4, root, ("ops",), TierStats(),
            fault_clock=None, sites=("store.write", "store.write"),
        )

    def _written_tree(self, root):
        tier = self._tier(root)
        for key in ("a", "b"):
            tier.write(f"ops/{key}.json", {"value": key})
        tier.flush({"entries": tier.census()})
        return tier

    def test_entries_live_under_the_versioned_home(self, tmp_path):
        tier = self._written_tree(tmp_path)
        assert tier.root == tmp_path
        assert tier.home == tmp_path / f"r{RESULTS_VERSION}"
        assert sorted(p.name for p in (tier.home / "ops").iterdir()) == [
            "a.json", "b.json",
        ]
        reopened = self._tier(tmp_path)
        assert reopened.recovery["graceful"] is True
        assert reopened.get("a", "ops/a.json", dict) == {"value": "a"}

    def test_the_next_version_recomputes_every_entry(self, tmp_path, monkeypatch):
        self._written_tree(tmp_path)
        monkeypatch.setattr(atomic, "RESULTS_VERSION", RESULTS_VERSION + 1)
        tier = self._tier(tmp_path)
        assert tier.home == tmp_path / f"r{RESULTS_VERSION + 1}"
        for key in ("a", "b"):
            assert tier.get(key, f"ops/{key}.json", dict) is None
        assert tier.stats.misses == 2
        assert tier.stats.quarantined == 0
        # The older tree is left as it was, never read or quarantined.
        older = tmp_path / f"r{RESULTS_VERSION}" / "ops"
        assert sorted(p.name for p in older.iterdir()) == ["a.json", "b.json"]

    def test_the_unversioned_layout_is_not_read(self, tmp_path):
        """Version 1 kept entries directly under the root."""
        (tmp_path / "ops").mkdir()
        write_checked_json(tmp_path / "ops" / "a.json", {"value": "a"})
        write_checked_json(tmp_path / "manifest.json", {"entries": {"ops": 1}})
        tier = self._tier(tmp_path)
        assert tier.get("a", "ops/a.json", dict) is None
        assert tier.stats.misses == 1
        assert (tmp_path / "ops" / "a.json").exists()
