"""Crash-safe storage: atomic writes, checksums, quarantine, one memo tier.

Every disk-tier entry of the :class:`~repro.service.cache.ReportCache`
and the :class:`~repro.roundelim.explore.store.ProblemStore` goes
through this module, and both stores are thin owners of one
:class:`MemoTier`:

* **atomic writes** — :func:`~repro.utils.serialization.write_atomic`
  renders to a temporary file in the target directory, then
  ``os.replace``; a crash (or injected torn write) at any point leaves
  either the old entry or a stray ``*.tmp``, never a half-written
  visible file;
* **checksum footers** — every entry carries a ``checksum`` field over
  the canonical encoding of the rest of the record, so silent on-disk
  corruption (truncation, bit rot, a concurrent non-atomic writer) is
  *detected* at read time instead of surfacing as a JSON error or —
  worse — a wrong answer;
* **quarantine** — a corrupt entry, or one its owner cannot decode, is
  moved to the tier's ``quarantine/`` (never deleted: it is evidence)
  and the caller recomputes;
* **recovery sweep** — on reopening a store whose shutdown manifest is
  missing (an ungraceful shutdown), every entry is validated eagerly,
  corrupt ones are quarantined, and stray temporary files are removed;
* **results version** — a tier lives in ``root/r<RESULTS_VERSION>/``,
  so results computed under another meaning are never served.  Nothing
  removes a tree of another version (or the unversioned layout, with
  entries directly under ``root/``): it is never read again and can be
  deleted by hand.

Every entry in a tier was written by :func:`write_checked_json`, so
:func:`read_checked_json` refuses an entry without a ``checksum`` field
as it refuses one whose footer does not match; an entry that passes its
checksum can still fail its owner's decoder, and is quarantined too.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.reliability.faults import (
    FaultClock,
    InjectedFault,
    StorageFault,
    TornWriteFault,
    check_fault,
)
from repro.utils import InvalidParameterError, ReproError
from repro.utils.serialization import canonical_dumps, write_atomic

CHECKSUM_KEY = "checksum"

#: The version of the results this program computes.  A declared change
#: to what a stored result means (a record's bytes, or the outcome an
#: operator's budget allows) bumps it.  A :class:`MemoTier` keeps its
#: entries under ``root/r<RESULTS_VERSION>/``, so a tree written under
#: another version — or in the unversioned layout of version 1, with
#: entries directly under ``root/`` — is never read.
RESULTS_VERSION = 2

#: Directory (under a store root) corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: The graceful-shutdown marker at a store root (see :meth:`MemoTier.flush`).
MANIFEST = "manifest.json"


class CorruptEntryError(ReproError):
    """An on-disk entry failed validation (torn, truncated, tampered)."""

    code = "corrupt-entry"


def body_checksum(body: dict) -> str:
    """sha256 over the canonical encoding of ``body`` (checksum excluded)."""
    keyed = {key: value for key, value in body.items() if key != CHECKSUM_KEY}
    encoded = canonical_dumps(keyed).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def write_checked_json(
    path: str | Path,
    value: dict,
    *,
    indent: int | None = 2,
    fault_clock: FaultClock | None = None,
    site: str | None = None,
) -> Path:
    """Atomically write ``value`` as canonical JSON with a checksum footer.

    The write goes through :func:`write_atomic`, so the visible file is
    always either the previous version or the complete new one.  When a
    fault clock and site are given, scheduled faults fire here:

    * ``error`` — raises before anything is written;
    * ``torn_write`` — writes half the bytes to the temp file, then
      raises (the stray temp file is recovery-sweep food);
    * ``corrupt`` — the write *succeeds*, then the visible file is
      truncated in place: the silent-corruption case checksums catch.
    """
    target = Path(path)
    body = {**value, CHECKSUM_KEY: body_checksum(value)}
    data = (canonical_dumps(body, indent=indent) + "\n").encode("utf-8")
    spec = check_fault(fault_clock, site) if site is not None else None
    if spec is not None and spec.kind == "error":
        raise StorageFault(spec)
    torn = spec is not None and spec.kind == "torn_write"
    write_atomic(target, data, tear=TornWriteFault(spec) if torn else None)
    if spec is not None and spec.kind == "corrupt":
        raw = target.read_bytes()
        target.write_bytes(raw[: len(raw) // 2])
    return target


def read_checked_json(path: str | Path) -> dict:
    """Load one entry, verifying its checksum footer.

    Returns the entry *without* the ``checksum`` key.  Raises
    :class:`CorruptEntryError` for every way an entry can be bad:
    unreadable, empty, truncated, not JSON, not an object, without a
    footer, or failing its checksum.
    """
    target = Path(path)
    try:
        text = target.read_text()
    except OSError as error:
        raise CorruptEntryError(f"unreadable entry {target.name}: {error}") from error
    if not text.strip():
        raise CorruptEntryError(f"empty entry {target.name}")
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError as error:
        raise CorruptEntryError(
            f"entry {target.name} is not JSON: {error}"
        ) from error
    if not isinstance(loaded, dict):
        raise CorruptEntryError(
            f"entry {target.name} is {type(loaded).__name__}, expected an object"
        )
    stored = loaded.pop(CHECKSUM_KEY, None)
    if stored is None:
        raise CorruptEntryError(f"entry {target.name} has no checksum footer")
    if stored != body_checksum(loaded):
        raise CorruptEntryError(f"entry {target.name} fails its checksum")
    return loaded


def quarantine_entry(path: str | Path, root: str | Path) -> Path | None:
    """Move a bad entry into ``root/quarantine/``; returns its new home.

    Never deletes: a quarantined entry is the forensic record of what
    corruption looked like.  Name collisions get a numeric suffix.
    Returns None when the entry vanished before it could be moved.
    """
    source = Path(path)
    target_dir = Path(root) / QUARANTINE_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    candidate = target_dir / source.name
    suffix = 0
    while candidate.exists():
        suffix += 1
        candidate = target_dir / f"{source.name}.{suffix}"
    try:
        os.replace(source, candidate)
    except OSError:
        return None
    return candidate


def sweep_tree(root: str | Path, subdirs) -> dict:
    """Validate every entry under ``root``'s subdirs; quarantine the bad.

    The eager half of recovery: called when a store reopens without a
    graceful-shutdown manifest.  Stray ``*.tmp`` files (torn or
    interrupted atomic writes) are removed; every ``*.json`` entry is
    checksum-validated and corrupt ones move to quarantine.  Returns a
    summary (``checked`` / ``quarantined`` / ``tmp_removed``).
    """
    root = Path(root)
    summary = {"checked": 0, "quarantined": 0, "tmp_removed": 0}
    for sub in subdirs:
        directory = root / sub
        if not directory.is_dir():
            continue
        for stray in sorted(directory.glob("*.tmp")):
            stray.unlink(missing_ok=True)
            summary["tmp_removed"] += 1
        for entry in sorted(directory.glob("*.json")):
            summary["checked"] += 1
            try:
                read_checked_json(entry)
            except CorruptEntryError:
                quarantine_entry(entry, root)
                summary["quarantined"] += 1
    return summary


def open_with_recovery(root: str | Path, subdirs) -> dict:
    """Prepare a store directory, recovering from ungraceful shutdowns.

    Creates the subdirectories, then decides between the two trust
    levels:

    * a readable, checksum-valid manifest means the previous shutdown
      was graceful — entries are trusted and validated lazily on read;
    * a missing or corrupt manifest means a crash — every entry is
      swept eagerly (see :func:`sweep_tree`), and a corrupt manifest is
      itself quarantined.

    Returns a recovery summary ``{"graceful", "checked", "quarantined",
    "tmp_removed"}`` the store keeps for telemetry.
    """
    root = Path(root)
    for sub in subdirs:
        (root / sub).mkdir(parents=True, exist_ok=True)
    manifest = root / MANIFEST
    graceful = False
    if manifest.exists():
        try:
            read_checked_json(manifest)
            graceful = True
        except CorruptEntryError:
            quarantine_entry(manifest, root)
    summary = {"checked": 0, "quarantined": 0, "tmp_removed": 0}
    if not graceful:
        summary = sweep_tree(root, subdirs)
    return {"graceful": graceful, **summary}


@dataclass
class TierStats:
    """Where a :class:`MemoTier`'s answers came from, and what it lost."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    quarantined: int = 0
    write_failures: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class MemoTier:
    """A capacity-bounded LRU in front of an optional crash-safe disk tier.

    The protocol both disk-backed memos share.  The disk tier lives in
    ``home``, the directory ``root/r<RESULTS_VERSION>/``; opening it runs
    :func:`open_with_recovery` over its ``subdirs``; :meth:`get` answers
    from memory, then from disk (promoting the entry), else counts a
    miss; :meth:`read` quarantines every entry it cannot serve;
    :meth:`write` drops the manifest before the first write and counts a
    failed write instead of raising it; :meth:`flush` rewrites the
    manifest.  Owners keep what is theirs: entry names (paths relative
    to ``home``), how an entry decodes, and the bodies they write.
    Entry writes pass the fault site ``sites[0]``, the manifest write
    ``sites[1]``.  Without a root, the tier is the LRU alone.
    """

    def __init__(
        self,
        capacity: int,
        root: str | Path | None,
        subdirs: tuple[str, ...],
        stats: TierStats,
        *,
        fault_clock: FaultClock | None,
        sites: tuple[str, str],
    ) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be >= 1")
        self.capacity = capacity
        self.root = None if root is None else Path(root)
        self.home = None if root is None else self.root / f"r{RESULTS_VERSION}"
        self.subdirs = subdirs
        self.stats = stats
        self.fault_clock = fault_clock
        self.sites = sites
        self.entries: OrderedDict = OrderedDict()
        self.recovery = {"graceful": True, "checked": 0, "quarantined": 0,
                         "tmp_removed": 0}
        if self.home is not None:
            self.recovery = open_with_recovery(self.home, subdirs)
            stats.quarantined += self.recovery["quarantined"]
        self._dirty = False

    def get(self, key, name: str, decode):
        """The entry under ``key`` from memory, else disk; None is a miss."""
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            self.stats.memory_hits += 1
            return entry
        entry = self.read(name, decode)
        if entry is not None:
            self.put(key, entry)
            self.stats.disk_hits += 1
            return entry
        self.stats.misses += 1
        return None

    def read(self, name: str, decode):
        """``decode`` of the disk entry ``name``, or None.

        An entry that fails :func:`read_checked_json`, or whose
        ``decode`` returns None or raises ``KeyError``/``TypeError`` (a
        missing or mistyped field), is quarantined and counted: the
        caller recomputes, and a bad entry never reaches an answer.
        """
        if self.home is None:
            return None
        target = self.home / name
        if not target.exists():
            return None
        try:
            entry = decode(read_checked_json(target))
        except (CorruptEntryError, KeyError, TypeError):
            entry = None
        if entry is None:
            quarantine_entry(target, self.home)
            self.stats.quarantined += 1
        return entry

    def put(self, key, entry) -> None:
        """Remember ``entry`` as the most recent; evict past capacity."""
        self.entries[key] = entry
        self.entries.move_to_end(key)
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.stats.evictions += 1

    def write(self, name: str, body: dict) -> None:
        """Write one entry through to disk (no-op without a root).

        The first write drops the manifest: while the tier is live its
        directory is not in a trusted state, so a crash before
        :meth:`flush` sends the next open through the recovery sweep.  A
        failed write (full disk, injected fault) costs durability, not
        availability: it is counted, and the memory tier still serves
        the entry.
        """
        if self.home is None:
            return
        if not self._dirty:
            self._dirty = True
            (self.home / MANIFEST).unlink(missing_ok=True)
        try:
            write_checked_json(
                self.home / name, body,
                fault_clock=self.fault_clock, site=self.sites[0],
            )
        except (InjectedFault, OSError):
            self.stats.write_failures += 1

    def census(self) -> dict[str, int]:
        """Entries on disk per subdirectory (for the manifest body)."""
        return {
            sub: len(list((self.home / sub).glob("*.json")))
            for sub in self.subdirs
        }

    def flush(self, body: dict) -> Path | None:
        """Write the shutdown manifest ``body``; returns its path.

        Its presence tells the next open that this shutdown was graceful,
        so entries are trusted and validated lazily on read.  No-op
        (None) without a root; a failed write is counted and swallowed —
        the next open simply takes the recovery path.
        """
        if self.home is None:
            return None
        try:
            target = write_checked_json(
                self.home / MANIFEST, body,
                fault_clock=self.fault_clock, site=self.sites[1],
            )
        except (InjectedFault, OSError):
            self.stats.write_failures += 1
            return None
        self._dirty = False
        return target


__all__ = [
    "CHECKSUM_KEY",
    "CorruptEntryError",
    "InjectedFault",
    "MANIFEST",
    "MemoTier",
    "QUARANTINE_DIR",
    "RESULTS_VERSION",
    "TierStats",
    "body_checksum",
    "open_with_recovery",
    "quarantine_entry",
    "read_checked_json",
    "sweep_tree",
    "write_checked_json",
]
