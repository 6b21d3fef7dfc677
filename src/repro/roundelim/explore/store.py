"""The content-addressed problem store.

Problems are *interned* to their canonical form
(:mod:`repro.formalism.normalize`) and addressed by the canonical
digest, so every label-renaming of a problem shares one identity, one
node record and one memoized result per operator.  Two tiers:

* an **in-memory LRU** of operator results, bounded by ``capacity``;
* an optional **on-disk tier** (canonical JSON under ``root/``),
  written through on every record and consulted on every memory miss —
  a store reopened on the same directory resumes with every previously
  computed step available, which is what makes exploration runs
  kill-and-resume safe.

Layout of the disk tier, whose home is ``root/r<RESULTS_VERSION>/``
(:data:`~repro.reliability.atomic.RESULTS_VERSION`)::

    home/nodes/<digest>.json               canonical problem payload
    home/ops/<digest>.<op>.<budget>.json   operator outcome
    home/links/<strict>.<relaxed>.json     relaxation-witness outcome

An operator outcome records ``status`` (``"ok"`` or
``"budget_exhausted"``) and the child digest; results are stored as
canonical payloads, so everything the store returns is byte-identical
no matter which engine computed it, in which process, or in which run.
The memo key deliberately includes the *budget* (exhaustion depends on
it) and excludes the *engine* (the operator contract makes results
engine-independent — the ``explore`` differential oracle enforces it).

Relaxation-witness queries ("does problem A relax onto problem B?") are
memoized the same way: witness existence is a property of the two
canonical forms only, and the searches behind it (label-map and ordered
configuration-map backtracking) dominate warm exploration wall-clock if
recomputed, so they are first-class store entries alongside R / R̄ / RE.

The disk tier is crash-safe (:mod:`repro.reliability.atomic`, whose
:class:`~repro.reliability.atomic.MemoTier` this store owns, as the
service's report cache does): atomic checksummed writes,
quarantine-and-recompute for entries that are corrupt or that the store
cannot decode (an op entry whose child node was lost is quarantined too
— recomputing brings the payload back; a node entry must be the
normalize payload its digest names), and a manifest graceful-shutdown
marker (:meth:`ProblemStore.flush`) that decides between lazy and eager
validation on reopen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.formalism.normalize import (
    DIGEST_LENGTH,
    NormalForm,
    normal_form,
    problem_from_payload,
)
from repro.formalism.problems import Problem
from repro.reliability.atomic import MemoTier, TierStats
from repro.reliability.faults import FaultClock
from repro.roundelim.operators import (
    DEFAULT_ENGINE,
    apply_R,
    apply_R_bar,
    round_elimination,
)
from repro.utils import InvalidParameterError, SolverLimitError
from repro.utils.serialization import result_digest

OP_SCHEMA = "repro.explore/op-v1"
LINK_SCHEMA = "repro.explore/link-v1"
STORE_MANIFEST_SCHEMA = "repro.explore/manifest-v1"

#: The disk-tier subdirectories a rooted store owns.
STORE_SUBDIRS = ("nodes", "ops", "links")

#: The operators the store can memoize.
OPERATORS = ("R", "R_bar", "RE")

_OPERATOR_FNS = {
    "R": apply_R,
    "R_bar": apply_R_bar,
    "RE": round_elimination,
}

STATUS_OK = "ok"
STATUS_BUDGET = "budget_exhausted"

#: Relaxation-witness kinds a memoized link query can resolve to.
WITNESS_LABEL_MAP = "label_map"
WITNESS_CONFIG_MAP = "config_map"
WITNESS_NONE = "none"

#: The ordered-configuration-map search permutes target configurations
#: per source configuration; past this many source white configurations
#: it is skipped and the query resolves against label maps only.  Part
#: of the memoized query's semantics, so a module constant, not policy.
CONFIG_MAP_WHITE_CAP = 8


def compute_relaxation(strict_payload: dict, relaxed_payload: dict) -> dict:
    """Search for a relaxation witness between two canonical problems.

    Label maps first (the common case), then the paper's general ordered
    configuration maps (capped, see :data:`CONFIG_MAP_WHITE_CAP`).  A
    ``"none"`` answer means *no witness found under these semantics* —
    callers must treat it as inconclusive beyond the cap, never as a
    refutation.
    """
    from repro.formalism.relaxations import (
        find_config_map_relaxation,
        find_label_relaxation,
    )

    strict = problem_from_payload(strict_payload)
    relaxed = problem_from_payload(relaxed_payload)
    if (
        strict.white_arity != relaxed.white_arity
        or strict.black_arity != relaxed.black_arity
    ):
        return {"witness": WITNESS_NONE}
    if find_label_relaxation(strict, relaxed) is not None:
        return {"witness": WITNESS_LABEL_MAP}
    if (
        len(strict.white) <= CONFIG_MAP_WHITE_CAP
        and find_config_map_relaxation(strict, relaxed) is not None
    ):
        return {"witness": WITNESS_CONFIG_MAP}
    return {"witness": WITNESS_NONE}


def compute_step(payload: dict, op: str, budget: int, engine: str) -> dict:
    """Apply one operator to a canonical payload — the pure worker body.

    Stateless and picklable-argument-only so the frontier can ship it to
    :mod:`multiprocessing` workers; the result is a plain dict merged
    into the store by the parent.  Budget exhaustion is an *outcome*,
    not an error: a search must record it and move on.
    """
    if op not in _OPERATOR_FNS:
        raise InvalidParameterError(
            f"unknown store operator {op!r}; known: {list(OPERATORS)}"
        )
    problem = problem_from_payload(payload)
    try:
        result = _OPERATOR_FNS[op](problem, budget=budget, engine=engine)
    except SolverLimitError:
        return {"status": STATUS_BUDGET, "child": None, "child_payload": None}
    child = normal_form(result)
    return {
        "status": STATUS_OK,
        "child": child.digest,
        "child_payload": child.payload,
    }


def _compute_task(task: tuple[dict, str, int, str]) -> dict:
    """Tuple adapter for :func:`multiprocessing.Pool.map`."""
    payload, op, budget, engine = task
    return compute_step(payload, op, budget, engine)


@dataclass
class StoreStats(TierStats):
    """Where answers came from during a store's lifetime."""

    computed: int = 0
    computed_links: int = 0


def _op_name(digest: str, op: str, budget: int) -> str:
    return f"ops/{digest}.{op}.{budget}.json"


def _decode_link(loaded: dict) -> dict:
    return {"witness": loaded["witness"]}


@dataclass
class ProblemStore:
    """Content-addressed, two-tier memo store for operator results."""

    capacity: int = 4096
    root: Path | None = None
    fault_clock: FaultClock | None = None

    def __post_init__(self) -> None:
        self.stats = StoreStats()
        self._tier = MemoTier(
            self.capacity, self.root, STORE_SUBDIRS, self.stats,
            fault_clock=self.fault_clock, sites=("store.write", "store.write"),
        )
        self.root = self._tier.root
        self.recovery = self._tier.recovery
        self._payloads: dict[str, dict] = {}

    def flush(self) -> Path | None:
        """Write the shutdown manifest; its presence marks a graceful stop.

        A reopened store with a valid manifest trusts its entries and
        validates them lazily; without one it sweeps eagerly (see
        :mod:`repro.reliability.atomic`).  No-op off disk; a failed
        manifest write is counted and swallowed.
        """
        if self.root is None:
            return None
        return self._tier.flush({
            "schema": STORE_MANIFEST_SCHEMA,
            "entries": self._tier.census(),
            "stats": self.stats.as_dict(),
        })

    # -- interning ---------------------------------------------------------

    def intern(self, problem: Problem) -> NormalForm:
        """Canonicalize a problem and register its payload."""
        form = normal_form(problem)
        self.register_payload(form.digest, form.payload)
        return form

    def register_payload(self, digest: str, payload: dict) -> None:
        """Record a canonical payload under its digest (both tiers)."""
        if digest not in self._payloads:
            self._payloads[digest] = payload
            name = f"nodes/{digest}.json"
            if self.root is not None and not (self._tier.home / name).exists():
                self._tier.write(name, payload)

    def payload_of(self, digest: str) -> dict:
        """The canonical payload of an interned digest (memory, then disk).

        A node entry is served as-is when it is the normalize payload
        its digest names; any other node entry is quarantined and the
        digest reported as unknown — callers that got the digest from an
        op entry treat that as a cache miss and recompute (the outcome
        carries the payload back).
        """
        payload = self._payloads.get(digest)
        if payload is None:
            payload = self._tier.read(
                f"nodes/{digest}.json",
                lambda loaded: (
                    loaded
                    if result_digest(loaded, length=DIGEST_LENGTH) == digest
                    else None
                ),
            )
            if payload is None:
                raise InvalidParameterError(f"unknown problem digest {digest!r}")
            self._payloads[digest] = payload
        return payload

    def has_payload(self, digest: str) -> bool:
        """True when :meth:`payload_of` can answer for ``digest``."""
        try:
            self.payload_of(digest)
            return True
        except InvalidParameterError:
            return False

    def problem_of(self, digest: str, name: str | None = None) -> Problem:
        """Rebuild the canonical problem behind a digest."""
        return problem_from_payload(self.payload_of(digest), name=name or digest[:8])

    # -- memoized operator results ----------------------------------------

    def lookup(self, digest: str, op: str, budget: int) -> dict | None:
        """A previously recorded outcome, or None (counts a miss)."""
        return self._tier.get(
            (digest, op, budget), _op_name(digest, op, budget), self._decode_op
        )

    def _decode_op(self, loaded: dict) -> dict | None:
        """An op entry's outcome; None when its child node was lost.

        The op entry may be intact while its child node is gone
        (quarantined or never persisted): a hit would leave an
        unresolvable digest in the graph, so the entry is rejected —
        quarantined too — and recomputed; compute_step's outcome
        carries the child payload back.
        """
        child = loaded["child"]
        if child is not None and not self.has_payload(child):
            return None
        return {"status": loaded["status"], "child": child}

    def record(self, digest: str, op: str, budget: int, outcome: dict) -> dict:
        """Merge one computed outcome into both tiers; returns the entry."""
        entry = {"status": outcome["status"], "child": outcome.get("child")}
        if outcome.get("child_payload") is not None:
            self.register_payload(outcome["child"], outcome["child_payload"])
        self._tier.put((digest, op, budget), entry)
        self._tier.write(
            _op_name(digest, op, budget),
            {"schema": OP_SCHEMA, "digest": digest, "op": op, "budget": budget, **entry},
        )
        return entry

    def apply(
        self,
        digest: str,
        op: str,
        budget: int,
        engine: str = DEFAULT_ENGINE,
    ) -> dict:
        """Memoized operator application on an interned problem.

        Returns ``{"status": ..., "child": digest|None}``; computes (and
        records) only on a two-tier miss.
        """
        entry = self.lookup(digest, op, budget)
        if entry is not None:
            return entry
        outcome = compute_step(self.payload_of(digest), op, budget, engine)
        self.stats.computed += 1
        return self.record(digest, op, budget, outcome)

    # -- memoized relaxation witnesses ------------------------------------

    def relaxation(self, strict_digest: str, relaxed_digest: str) -> dict:
        """Memoized relaxation-witness query between interned problems.

        Returns ``{"witness": "label_map"|"config_map"|"none"}``; the
        answer depends only on the two canonical forms, so it is cached
        under the digest pair in both tiers.
        """
        key = (strict_digest, f"relax>{relaxed_digest}", 0)
        name = f"links/{strict_digest}.{relaxed_digest}.json"
        entry = self._tier.get(key, name, _decode_link)
        if entry is None:
            entry = compute_relaxation(
                self.payload_of(strict_digest), self.payload_of(relaxed_digest)
            )
            self.stats.computed_links += 1
            self._tier.put(key, entry)
            self._tier.write(
                name,
                {"schema": LINK_SCHEMA, "strict": strict_digest,
                 "relaxed": relaxed_digest, **entry},
            )
        return entry
