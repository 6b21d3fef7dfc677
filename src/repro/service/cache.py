"""The digest-keyed report cache: in-memory LRU over an on-disk tier.

Same tiering discipline as the exploration engine's
:class:`~repro.roundelim.explore.store.ProblemStore` — both own one
:class:`~repro.reliability.atomic.MemoTier` — applied to whole request
results: entries are keyed by the canonical request digest
(:func:`~repro.service.protocol.request_digest`), the memory tier is a
capacity-bounded LRU, and — when rooted on a directory — every record is
written through as canonical JSON under
``root/r<RESULTS_VERSION>/reports/<digest>.json``, so a killed-and-restarted
daemon serves every previously computed answer from disk, byte-identical
(the kill-and-restart test's property).

The disk tier is crash-safe (:mod:`repro.reliability.atomic`): entries
are written atomically with checksum footers, an entry found corrupt or
without its ``kind`` and ``record`` at lookup time is quarantined and
treated as a miss (the caller recomputes; it never crashes a request),
and opening a root whose shutdown manifest is missing — an ungraceful
shutdown — sweeps and validates every entry first.  The manifest doubles
as a dirty marker: it is removed on the first write after open and
rewritten by :meth:`ReportCache.flush`, so only a graceful shutdown
leaves the trusted-state marker behind.

Cached values are plain JSON dicts (``{"kind", "record",
"record_json"}``), never live objects: what the cache returns is exactly
what went over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.reliability.atomic import MemoTier, TierStats
from repro.reliability.faults import FaultClock
from repro.utils.serialization import canonical_dumps

CACHE_SCHEMA = "repro.service/cached-v1"
MANIFEST_SCHEMA = "repro.service/manifest-v1"


@dataclass
class CacheStats(TierStats):
    """Where responses came from during a cache's lifetime."""

    stored: int = 0

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
        return {**super().as_dict(), "hit_rate": round(self.hit_rate, 6)}


def _entry(kind: str, record: dict) -> dict:
    """A cache entry; ``record_json`` is rendered once per store/load."""
    return {"kind": kind, "record": record, "record_json": canonical_dumps(record)}


def _decode(loaded: dict) -> dict:
    return _entry(loaded["kind"], loaded["record"])


@dataclass
class ReportCache:
    """Two-tier (LRU + on-disk) cache of canonical request results.

    The memory tier holds at most ``capacity`` entries; the disk tier is
    unbounded and keeps every record written through.
    """

    capacity: int = 1024
    root: Path | None = None
    fault_clock: FaultClock | None = None

    def __post_init__(self) -> None:
        self.stats = CacheStats()
        self._tier = MemoTier(
            self.capacity, self.root, ("reports",), self.stats,
            fault_clock=self.fault_clock, sites=("cache.write", "cache.manifest"),
        )
        self.root = self._tier.root
        self.recovery = self._tier.recovery

    def __len__(self) -> int:
        return len(self._tier.entries)

    def lookup(self, digest: str) -> dict | None:
        """The cached entry, or None (counts a miss).

        Entries are ``{"kind", "record", "record_json"}`` —
        ``record_json`` is the record's canonical serialization, computed
        once per store/load so repeat responses can splice pre-rendered
        bytes instead of re-encoding the record on every hit.  A disk
        entry that is corrupt or lacks a field is quarantined and
        reported as a miss: the caller recomputes, corruption never
        propagates into a response.
        """
        return self._tier.get(digest, f"reports/{digest}.json", _decode)

    def record(self, digest: str, kind: str, record: dict) -> dict:
        """Store one computed result in both tiers; returns the entry.

        A failed disk write (full disk, injected storage fault) degrades
        durability, not availability: the memory entry still serves this
        process, the failure is counted, and the answer is simply
        recomputed after a restart.
        """
        entry = _entry(kind, record)
        self._tier.put(digest, entry)
        self.stats.stored += 1
        self._tier.write(
            f"reports/{digest}.json",
            {"schema": CACHE_SCHEMA, "digest": digest, "kind": kind, "record": record},
        )
        return entry

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
        return self._tier.flush({
            "schema": MANIFEST_SCHEMA,
            "reports": self._tier.census()["reports"],
            "stats": self.stats.as_dict(),
        })
