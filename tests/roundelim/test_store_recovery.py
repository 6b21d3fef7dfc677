"""ProblemStore crash-safety: corrupt nodes/ops/links, quarantine, resume parity.

Extends the kill-and-resume property from the frontier tests: not only
may a run stop at any point, the directory it left behind may also be
*damaged* — truncated, zeroed, tampered — and a reopened store must
quarantine the rot, recompute exactly the lost steps, and hand back
byte-identical results.
"""

import json

import pytest

from repro.api import ProblemSpec
from repro.problems.matching import pi_matching
from repro.reliability import atomic
from repro.reliability.atomic import (
    QUARANTINE_DIR,
    RESULTS_VERSION,
    write_checked_json,
)
from repro.reliability.faults import FaultClock, FaultPlan
from repro.roundelim.explore import (
    ExplorationLimits,
    ExplorationPolicy,
    ProblemStore,
    explore,
)
from repro.utils.serialization import canonical_dumps


def _home(root):
    """The versioned directory a store rooted at ``root`` writes into."""
    return root / f"r{RESULTS_VERSION}"


@pytest.fixture
def problem():
    return ProblemSpec.parse("sinkless-orientation:delta=3").build()


CORRUPTIONS = {
    "truncated": lambda p: p.write_text(p.read_text()[: len(p.read_text()) // 2]),
    "zero-byte": lambda p: p.write_text(""),
    "bad-json": lambda p: p.write_text("{]not json"),
    "bad-checksum": lambda p: p.write_text(
        json.dumps({**json.loads(p.read_text()), "status": "tampered"})
    ),
    # Parses, but carries no checksum footer, so the checksum layer
    # refuses it like the others.
    "shapeless": lambda p: p.write_text("{}"),
    # Passes its checksum but lacks every field: only the owner's
    # decoding can reject it.
    "undecodable": lambda p: write_checked_json(p, {}),
}


def seeded_store(root, problem):
    """A flushed store holding one interned problem and one RE step."""
    store = ProblemStore(root=root)
    form = store.intern(problem)
    outcome = store.apply(form.digest, "RE", 20_000)
    store.flush()
    return form.digest, outcome


class TestOpEntryCorruption:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS), ids=str)
    def test_corrupt_op_entry_recomputes_identically(
        self, tmp_path, problem, corruption
    ):
        digest, outcome = seeded_store(tmp_path, problem)
        (op_entry,) = (_home(tmp_path) / "ops").glob("*.json")
        CORRUPTIONS[corruption](op_entry)
        store = ProblemStore(root=tmp_path)
        store.intern(problem)
        assert store.lookup(digest, "RE", 20_000) is None
        recomputed = store.apply(digest, "RE", 20_000)
        assert recomputed == {
            "status": outcome["status"], "child": outcome["child"],
        }
        assert store.stats.computed == 1
        assert list((_home(tmp_path) / QUARANTINE_DIR).iterdir())


class TestNodeEntryCorruption:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS), ids=str)
    def test_corrupt_child_node_quarantines_the_op_entry_too(
        self, tmp_path, problem, corruption
    ):
        """An intact op entry pointing at an unloadable child node must
        not count as a hit — both entries are quarantined and the
        recompute brings the payload back."""
        digest, outcome = seeded_store(tmp_path, problem)
        child = outcome["child"]
        CORRUPTIONS[corruption](_home(tmp_path) / "nodes" / f"{child}.json")
        store = ProblemStore(root=tmp_path)
        store.intern(problem)
        assert store.lookup(digest, "RE", 20_000) is None
        recomputed = store.apply(digest, "RE", 20_000)
        assert recomputed["child"] == child
        assert store.payload_of(child)  # the payload is back on disk
        assert len(list((_home(tmp_path) / QUARANTINE_DIR).iterdir())) == 2

    def test_recovered_payload_bytes_match_the_original(self, tmp_path, problem):
        digest, outcome = seeded_store(tmp_path, problem)
        child = outcome["child"]
        original = canonical_dumps(
            ProblemStore(root=tmp_path).payload_of(child)
        )
        CORRUPTIONS["truncated"](_home(tmp_path) / "nodes" / f"{child}.json")
        store = ProblemStore(root=tmp_path)
        store.intern(problem)
        store.apply(digest, "RE", 20_000)
        # Compare through the same (disk) tier: the rewritten node entry
        # must serve the exact bytes the original one did.
        recovered = ProblemStore(root=tmp_path).payload_of(child)
        assert canonical_dumps(recovered) == original


class TestLinkEntryCorruption:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS), ids=str)
    def test_corrupt_link_entry_recomputes_identically(self, tmp_path, corruption):
        roots = [pi_matching(3, 0, 1)]
        limits = ExplorationLimits(max_depth=1, max_nodes=2)
        first = explore(roots, limits=limits, store=ProblemStore(root=tmp_path))
        (link_entry,) = (_home(tmp_path) / "links").glob("*.json")
        CORRUPTIONS[corruption](link_entry)
        store = ProblemStore(root=tmp_path)
        second = explore(roots, limits=limits, store=store)
        assert second.canonical_json() == first.canonical_json()
        assert store.stats.quarantined == 1
        assert store.stats.computed_links == 1


class TestResultsVersion:
    def test_a_store_under_the_next_version_recomputes_every_step(
        self, tmp_path, problem, monkeypatch
    ):
        """An outcome recorded under another results version (say, a
        budget that counted other pops) is never served."""
        digest, outcome = seeded_store(tmp_path, problem)
        monkeypatch.setattr(atomic, "RESULTS_VERSION", RESULTS_VERSION + 1)
        store = ProblemStore(root=tmp_path)
        store.intern(problem)
        assert store.apply(digest, "RE", 20_000) == outcome
        assert store.stats.computed == 1
        assert store.stats.disk_hits == 0
        assert store.stats.quarantined == 0


class TestManifestLifecycle:
    def test_flush_marks_graceful_and_writes_census(self, tmp_path, problem):
        seeded_store(tmp_path, problem)
        store = ProblemStore(root=tmp_path)
        assert store.recovery["graceful"] is True
        manifest = json.loads((_home(tmp_path) / "manifest.json").read_text())
        assert manifest["entries"]["nodes"] == 2
        assert manifest["entries"]["ops"] == 1

    def test_first_write_drops_the_manifest(self, tmp_path, problem):
        digest, _outcome = seeded_store(tmp_path, problem)
        store = ProblemStore(root=tmp_path)
        store.intern(problem)
        store.apply(digest, "R", 20_000)  # a fresh step: first mutation
        assert not (_home(tmp_path) / "manifest.json").exists()
        store.flush()
        assert (_home(tmp_path) / "manifest.json").exists()

    def test_missing_manifest_triggers_the_eager_sweep(self, tmp_path, problem):
        seeded_store(tmp_path, problem)
        (_home(tmp_path) / "manifest.json").unlink()
        (_home(tmp_path) / "ops" / "stray.json.1.tmp").write_text("half a write")
        store = ProblemStore(root=tmp_path)
        assert store.recovery["graceful"] is False
        assert store.recovery["tmp_removed"] == 1
        assert store.recovery["checked"] == 3  # 2 nodes + 1 op


class TestFaultedWrites:
    def test_write_faults_degrade_durability_not_answers(self, tmp_path, problem):
        clock = FaultClock(
            FaultPlan.from_faults([("store.write", 2, "torn_write")])
        )
        store = ProblemStore(root=tmp_path, fault_clock=clock)
        form = store.intern(problem)
        outcome = store.apply(form.digest, "RE", 20_000)
        assert outcome["status"] == "ok"
        assert store.stats.write_failures == 1
        # The same answer still comes back from the memory tier.
        assert store.apply(form.digest, "RE", 20_000) == outcome


class TestResumeParity:
    def test_exploration_resume_over_a_damaged_store(self, tmp_path, problem):
        """The satellite end-to-end: explore, damage the store, resume —
        report payloads byte-identical, recompute bounded by the damage."""
        policy = ExplorationPolicy(moves=("RE",))
        limits = ExplorationLimits(max_depth=2, max_nodes=6)
        first = explore(
            [problem], policy=policy, limits=limits,
            store=ProblemStore(root=tmp_path),
        )
        damaged = sorted((_home(tmp_path) / "ops").glob("*.json"))[:1]
        for entry in damaged:
            CORRUPTIONS["bad-checksum"](entry)
        resumed_store = ProblemStore(root=tmp_path)
        second = explore(
            [problem], policy=policy, limits=limits, store=resumed_store,
        )
        assert second.canonical_json() == first.canonical_json()
        assert resumed_store.stats.computed <= len(damaged)
