"""The digest-keyed report cache: in-memory LRU over an on-disk tier.

Same tiering discipline as the exploration engine's
:class:`~repro.roundelim.explore.store.ProblemStore`, applied to whole
request results: entries are keyed by the canonical request digest
(:func:`~repro.service.protocol.request_digest`), the memory tier is a
capacity-bounded LRU, and — when rooted on a directory — every record is
written through as canonical JSON under ``root/reports/<digest>.json``,
so a killed-and-restarted daemon serves every previously computed answer
from disk, byte-identical (the kill-and-restart test's property).

The disk tier is crash-safe (:mod:`repro.reliability.atomic`): entries
are written atomically with checksum footers, a corrupt entry found at
lookup time is quarantined and treated as a miss (the caller recomputes;
it never crashes a request), and opening a root whose shutdown manifest
is missing — an ungraceful shutdown — sweeps and validates every entry
first.  The manifest doubles as a dirty marker: it is removed on the
first write after open and rewritten by :meth:`ReportCache.flush`, so
only a graceful shutdown leaves the trusted-state marker behind.

Cached values are plain JSON dicts (``{"kind", "record"}``), never live
objects: what the cache returns is exactly what went over the wire.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.reliability.atomic import (
    CorruptEntryError,
    open_with_recovery,
    quarantine_entry,
    read_checked_json,
    write_checked_json,
)
from repro.reliability.faults import FaultClock, InjectedFault
from repro.utils import InvalidParameterError
from repro.utils.serialization import canonical_dumps

CACHE_SCHEMA = "repro.service/cached-v1"
MANIFEST_SCHEMA = "repro.service/manifest-v1"


@dataclass
class CacheStats:
    """Where responses came from during a cache's lifetime."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stored: int = 0
    evictions: int = 0
    quarantined: int = 0
    write_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered by either tier (0.0 when idle)."""
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.memory_hits + self.disk_hits) / lookups

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stored": self.stored,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "write_failures": self.write_failures,
            "hit_rate": round(self.hit_rate, 6),
        }


@dataclass
class ReportCache:
    """Two-tier (LRU + on-disk) cache of canonical request results.

    The memory tier holds at most ``capacity`` entries; the disk tier is
    unbounded and keeps every record written through.
    """

    capacity: int = 1024
    root: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    fault_clock: FaultClock | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise InvalidParameterError("cache capacity must be >= 1")
        self.recovery = {"graceful": True, "checked": 0, "quarantined": 0,
                         "tmp_removed": 0}
        if self.root is not None:
            self.root = Path(self.root)
            self.recovery = open_with_recovery(self.root, ("reports",))
            self.stats.quarantined += self.recovery["quarantined"]
        self._entries: OrderedDict[str, dict] = OrderedDict()
        self._dirty = False

    def __len__(self) -> int:
        return len(self._entries)

    def _path(self, digest: str) -> Path:
        return self.root / "reports" / f"{digest}.json"

    def lookup(self, digest: str) -> dict | None:
        """The cached entry, or None (counts a miss).

        Entries are ``{"kind", "record", "record_json"}`` —
        ``record_json`` is the record's canonical serialization, computed
        once per store/load so repeat responses can splice pre-rendered
        bytes instead of re-encoding the record on every hit.  A corrupt
        disk entry is quarantined and reported as a miss: the caller
        recomputes, corruption never propagates into a response.
        """
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.stats.memory_hits += 1
            return entry
        if self.root is not None:
            target = self._path(digest)
            if target.exists():
                try:
                    loaded = read_checked_json(target)
                    entry = {
                        "kind": loaded["kind"],
                        "record": loaded["record"],
                        "record_json": canonical_dumps(loaded["record"]),
                    }
                except (CorruptEntryError, KeyError, TypeError):
                    quarantine_entry(target, self.root)
                    self.stats.quarantined += 1
                else:
                    self._remember(digest, entry)
                    self.stats.disk_hits += 1
                    return entry
        self.stats.misses += 1
        return None

    def record(self, digest: str, kind: str, record: dict) -> dict:
        """Store one computed result in both tiers; returns the entry.

        A failed disk write (full disk, injected storage fault) degrades
        durability, not availability: the memory entry still serves this
        process, the failure is counted, and the answer is simply
        recomputed after a restart.
        """
        entry = {
            "kind": kind,
            "record": record,
            "record_json": canonical_dumps(record),
        }
        self._remember(digest, entry)
        self.stats.stored += 1
        if self.root is not None:
            self._mark_dirty()
            try:
                write_checked_json(
                    self._path(digest),
                    {
                        "schema": CACHE_SCHEMA,
                        "digest": digest,
                        "kind": kind,
                        "record": record,
                    },
                    fault_clock=self.fault_clock,
                    site="cache.write",
                )
            except (InjectedFault, OSError):
                self.stats.write_failures += 1
        return entry

    def _mark_dirty(self) -> None:
        """Drop the graceful-shutdown marker before the first mutation.

        While the cache is live its directory is not in a trusted state;
        removing the manifest now means a crash before :meth:`flush`
        forces the next open through the recovery sweep.
        """
        if not self._dirty:
            self._dirty = True
            (self.root / "manifest.json").unlink(missing_ok=True)

    def _remember(self, digest: str, entry: dict) -> None:
        self._entries[digest] = entry
        self._entries.move_to_end(digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def flush(self) -> Path | None:
        """Write the shutdown manifest (entry census + stats) to disk.

        Records are written through on every :meth:`record`, so flushing
        is about leaving a consistent marker: the manifest names how many
        reports the directory holds and the final counters, and its
        presence tells a restarted daemon the previous shutdown was
        graceful.  No-op (returns None) for a memory-only cache; a failed
        manifest write is counted and swallowed — the next open simply
        takes the recovery path.
        """
        if self.root is None:
            return None
        reports = sorted(path.stem for path in (self.root / "reports").glob("*.json"))
        try:
            target = write_checked_json(
                self.root / "manifest.json",
                {
                    "schema": MANIFEST_SCHEMA,
                    "reports": len(reports),
                    "stats": self.stats.as_dict(),
                },
                fault_clock=self.fault_clock,
                site="cache.manifest",
            )
        except (InjectedFault, OSError):
            self.stats.write_failures += 1
            return None
        self._dirty = False
        return target
