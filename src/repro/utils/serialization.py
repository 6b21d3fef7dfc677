"""Canonical JSON serialization for experiment results.

Experiment records mix graph nodes, frozensets, tuples, dataclasses and
check results; this module flattens all of them into plain JSON with a
*canonical* encoding (sorted keys, sorted set elements, fixed separators)
so that two runs producing equal results produce byte-identical files —
the property the parallel-vs-serial equality guarantees of the
experiments runner rest on.

A type may bring its own encoder (:func:`register_encoder`): the
array-backed solution sets of :mod:`repro.local.dense` write their
canonical JSON from numpy arrays, which this module never imports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from collections.abc import Callable
from pathlib import Path

#: Type → (jsonable, dumps) of the types that encode themselves.
_ENCODERS: dict[type, tuple[Callable, Callable]] = {}
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)\\u0000"')


def register_encoder(cls: type, jsonable: Callable, dumps: Callable) -> None:
    """Let instances of ``cls`` encode themselves.

    ``jsonable(value)`` is what :func:`to_jsonable` returns for one, and
    ``dumps(value)`` its compact canonical JSON text, which
    :func:`canonical_dumps` splices into the document as is.  The two
    must agree: ``dumps(value) == canonical_dumps(jsonable(value))``.
    """
    _ENCODERS[cls] = (jsonable, dumps)


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-encodable structures.

    Sets and frozensets become sorted lists (ordered by their canonical
    encoding, so mixed element types are fine); tuples become lists;
    dataclasses become dicts; dict keys are stringified; a type given to
    :func:`register_encoder` converts itself.
    """
    return _to_jsonable(value, None)


def _to_jsonable(value, fragments: list | None):
    """:func:`to_jsonable`, except that with a ``fragments`` list each
    self-encoding value is appended there as its text and stands in the
    result as the placeholder string of its position."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _to_jsonable(dataclasses.asdict(value), fragments)
    if isinstance(value, dict):
        return {
            _canonical_key(key): _to_jsonable(item, fragments)
            for key, item in value.items()
        }
    if isinstance(value, (set, frozenset)):
        converted = [_to_jsonable(item, fragments) for item in value]
        return sorted(converted, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item, fragments) for item in value]
    encoder = _ENCODERS.get(type(value))
    if encoder is not None:
        if fragments is None:
            return encoder[0](value)
        fragments.append(encoder[1](value))
        return f"\0{len(fragments) - 1}\0"
    return str(value)


def _canonical_key(key) -> str:
    """A deterministic string for a dict key.

    ``str()`` is only safe for scalars; containers (e.g. frozenset edge
    keys) iterate in hash order, which varies per process — exactly the
    nondeterminism this module exists to eliminate — so they go through
    the canonical encoding instead.
    """
    if isinstance(key, str):
        return key
    if isinstance(key, (bool, int, float)) or key is None:
        return str(key)
    return json.dumps(to_jsonable(key), sort_keys=True, separators=(",", ":"))


def canonical_dumps(value, indent: int | None = None) -> str:
    """Serialize ``value`` deterministically (sorted keys, stable order)."""
    if indent is None and _ENCODERS:
        text = _spliced_dumps(value)
        if text is not None:
            return text
    separators = (",", ": ") if indent is not None else (",", ":")
    return json.dumps(
        to_jsonable(value), sort_keys=True, indent=indent, separators=separators
    )


def _spliced_dumps(value) -> str | None:
    """Compact canonical JSON in which each self-encoding value is first
    a placeholder string, then its own text.  ``None`` when a string in
    the data spells a placeholder too."""
    fragments: list = []
    text = json.dumps(
        _to_jsonable(value, fragments), sort_keys=True, separators=(",", ":")
    )
    if not fragments:
        return text
    pieces = _PLACEHOLDER.split(text)
    found = sorted(int(index) for index in pieces[1::2])
    if found != list(range(len(fragments))):
        return None
    pieces[1::2] = [fragments[int(index)] for index in pieces[1::2]]
    return "".join(pieces)


def write_atomic(
    path: str | Path, data: bytes, *, tear: BaseException | None = None
) -> Path:
    """Replace ``path`` by ``data`` atomically, creating parent directories.

    The bytes land in a ``<name>.<random>.tmp`` sibling first and are
    moved over the target with ``os.replace``, so a reader — or a crash —
    sees either the previous file or the complete new one, never a
    half-written one.  The temporary file is created with mode 0666, so
    the process umask sets the file's mode, as it does for a shell
    redirect.  ``tear`` simulates a crash mid-write: half the bytes reach
    the temporary file, which is left behind for the recovery sweep, and
    ``tear`` is raised.  On a real failure the temporary file is removed.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = target.with_name(f"{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    if tear is not None:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data[: len(data) // 2])
        raise tear
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def write_json(path: str | Path, value, indent: int | None = 2) -> Path:
    """Write ``value`` as canonical JSON, creating parent directories.

    The write is atomic (:func:`write_atomic`): a reader — or a crash —
    never observes a half-written file, only the old version or the new
    one.
    """
    text = canonical_dumps(value, indent=indent) + "\n"
    return write_atomic(path, text.encode("utf-8"))


def result_digest(value, length: int = 16) -> str:
    """A stable fingerprint of a result payload.

    The default 16 hex chars suffice for trajectory fingerprints; callers
    that treat digest equality as *identity* (the content-addressed
    problem store) pass a larger ``length`` — up to the full sha256.
    """
    encoded = canonical_dumps(value).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:length]
