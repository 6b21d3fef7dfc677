"""The exploration engine: store semantics, search behaviour, parallel
determinism, kill-and-resume, and the Δ=3 matching acceptance criterion
(rediscovering the Corollary 4.6 chain and the family fixed point)."""

import json

import pytest

from repro.formalism.normalize import canonical_digest, normal_form
from repro.problems import pi_arbdefective, pi_matching
from repro.roundelim.explore import (
    ExplorationLimits,
    ExplorationPolicy,
    ProblemStore,
    STATUS_BUDGET,
    STATUS_OK,
    compute_step,
    explore,
    frontier,
    reports_identical,
    uniform_zero_round,
)
from repro.utils import InvalidParameterError
from repro.utils.serialization import canonical_dumps


MATCHING_ROOTS = [pi_matching(3, x, 1) for x in (0, 1, 2)]
MATCHING_LIMITS = ExplorationLimits(max_depth=1, max_nodes=8)


@pytest.fixture(scope="module")
def matching_report():
    return explore(MATCHING_ROOTS, limits=MATCHING_LIMITS)


class TestProblemStore:
    def test_intern_shares_identity_across_renamings(self):
        store = ProblemStore()
        problem = pi_matching(3, 0, 1)
        renamed = problem.rename(
            {label: f"Q{index}" for index, label in enumerate(sorted(problem.alphabet))}
        )
        assert store.intern(problem).digest == store.intern(renamed).digest

    def test_apply_memoizes_in_memory(self):
        store = ProblemStore()
        form = store.intern(pi_matching(3, 1, 1))
        first = store.apply(form.digest, "RE", 200_000)
        computed = store.stats.computed
        second = store.apply(form.digest, "RE", 200_000)
        assert first == second
        assert store.stats.computed == computed
        assert store.stats.memory_hits >= 1

    def test_memo_key_includes_budget(self):
        store = ProblemStore()
        form = store.intern(pi_matching(3, 0, 1))
        generous = store.apply(form.digest, "RE", 200_000)
        starved = store.apply(form.digest, "RE", 10)
        assert generous["status"] == STATUS_OK
        assert starved["status"] == STATUS_BUDGET
        # Both outcomes coexist under their own keys.
        assert store.apply(form.digest, "RE", 200_000) == generous
        assert store.apply(form.digest, "RE", 10) == starved

    def test_lru_capacity_evicts_but_disk_tier_retains(self, tmp_path):
        store = ProblemStore(capacity=1, root=tmp_path)
        form = store.intern(pi_matching(3, 1, 1))
        store.apply(form.digest, "R", 200_000)
        store.apply(form.digest, "R_bar", 200_000)  # evicts the R entry
        assert store.stats.evictions >= 1
        computed = store.stats.computed
        store.apply(form.digest, "R", 200_000)  # comes back from disk
        assert store.stats.computed == computed
        assert store.stats.disk_hits >= 1

    def test_disk_tier_resumes_across_store_instances(self, tmp_path):
        first = ProblemStore(root=tmp_path)
        form = first.intern(pi_matching(3, 1, 1))
        entry = first.apply(form.digest, "RE", 200_000)
        second = ProblemStore(root=tmp_path)
        assert second.lookup(form.digest, "RE", 200_000) == entry
        assert second.stats.disk_hits == 1
        assert second.stats.computed == 0
        # The child problem payload is also recoverable from disk.
        rebuilt = second.problem_of(entry["child"])
        assert canonical_digest(rebuilt) == entry["child"]

    def test_compute_step_budget_exhaustion_is_an_outcome(self):
        payload = normal_form(pi_matching(3, 0, 1)).payload
        outcome = compute_step(payload, "RE", 10, "kernel")
        assert outcome == {
            "status": STATUS_BUDGET,
            "child": None,
            "child_payload": None,
        }

    def test_compute_step_engines_agree_byte_for_byte(self):
        payload = normal_form(pi_matching(3, 1, 1)).payload
        kernel = compute_step(payload, "RE", 200_000, "kernel")
        reference = compute_step(payload, "RE", 200_000, "reference")
        assert canonical_dumps(kernel) == canonical_dumps(reference)

    def test_unknown_operator_rejected(self):
        payload = normal_form(pi_matching(3, 2, 1)).payload
        with pytest.raises(InvalidParameterError):
            compute_step(payload, "RE2", 100, "kernel")

    def test_unknown_digest_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProblemStore().payload_of("no-such-digest")


class TestAcceptanceCriterion:
    """Exploration of the Δ=3 matching family."""

    def test_rediscovers_a_verified_lower_bound_sequence(self, matching_report):
        verified = matching_report.verified_sequences
        assert verified, "no verified sequences discovered"
        assert matching_report.best_sequence_length >= 2
        # The paper's chain appears as a verified path: the three family
        # problems in x-order.
        family_digests = [canonical_digest(problem) for problem in MATCHING_ROOTS]
        assert any(
            entry["kind"] == "path"
            and entry["digests"][: len(family_digests)] == family_digests
            for entry in verified
        ), "the Corollary 4.6 chain was not rediscovered"

    def test_classifies_the_family_fixed_point(self, matching_report):
        endpoint = canonical_digest(pi_matching(3, 2, 1))
        assert endpoint in matching_report.relaxation_fixed_points
        constant = [
            entry
            for entry in matching_report.verified_sequences
            if entry["kind"] == "constant" and entry["digests"][0] == endpoint
        ]
        assert constant and constant[0]["length"] >= 2

    def test_classifies_zero_round_nodes(self, matching_report):
        # RE(Π_3(2,1)) collapses to a single-label, trivially solvable
        # problem — the chain's natural endpoint.
        assert matching_report.zero_round_nodes
        for digest in matching_report.zero_round_nodes:
            assert matching_report.nodes[digest]["alphabet_size"] >= 1

    def test_arbdefective_exact_fixed_point(self):
        report = explore(
            [pi_arbdefective(3, 2)],
            limits=ExplorationLimits(max_depth=2, max_nodes=4),
        )
        assert report.visited == 1  # RE(Π) collapses onto Π itself
        assert report.fixed_points == [canonical_digest(pi_arbdefective(3, 2))]
        constant = [e for e in report.sequences if e["kind"] == "constant"]
        assert constant and constant[0]["verified"]


class TestDeterminism:
    def test_jobs_4_report_is_byte_identical_to_serial(self):
        serial = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS, jobs=1)
        parallel = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS, jobs=4)
        assert reports_identical(serial, parallel)
        assert serial.canonical_json() == parallel.canonical_json()

    def test_root_order_and_spelling_do_not_change_node_identity(self):
        forward = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS)
        renamed_roots = [
            problem.rename(
                {
                    label: f"Y{index}"
                    for index, label in enumerate(sorted(problem.alphabet))
                }
            )
            for problem in MATCHING_ROOTS
        ]
        respelled = explore(renamed_roots, limits=MATCHING_LIMITS)
        # Node names track the given problems, but digests, edges, steps
        # and sequences are identity-level and must match exactly.
        assert set(forward.nodes) == set(respelled.nodes)
        assert forward.edges == respelled.edges
        assert forward.steps == respelled.steps
        assert [s["digests"] for s in forward.sequences] == [
            s["digests"] for s in respelled.sequences
        ]

    def test_report_does_not_depend_on_store_capacity(self):
        """Regression: a capacity-1 LRU evicts RE memo entries mid-search;
        classification must recompute (store.apply), not silently skip
        (store.lookup), so the report stays byte-identical."""
        default = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS)
        tiny = explore(
            MATCHING_ROOTS, limits=MATCHING_LIMITS, store=ProblemStore(capacity=1)
        )
        assert reports_identical(default, tiny)
        assert tiny.relaxation_fixed_points == default.relaxation_fixed_points

    def test_best_first_order_is_deterministic(self, monkeypatch):
        monkeypatch.setattr(frontier, "BATCH_SIZE", 2)
        policy = ExplorationPolicy(order="min-alphabet")
        first = explore(MATCHING_ROOTS, policy=policy, limits=MATCHING_LIMITS)
        second = explore(MATCHING_ROOTS, policy=policy, limits=MATCHING_LIMITS)
        assert reports_identical(first, second)

    def test_payload_is_canonical_json(self, matching_report):
        payload = matching_report.payload()
        assert json.loads(canonical_dumps(payload)) == json.loads(
            canonical_dumps(json.loads(canonical_dumps(payload)))
        )
        assert payload["schema"] == "repro.explore/report-v1"
        assert payload["digest"]


class TestResumability:
    def test_kill_and_resume_revisits_zero_expanded_nodes(self, tmp_path):
        # Cold full run on a disk store.
        cold_store = ProblemStore(root=tmp_path)
        cold = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS, store=cold_store)
        assert cold_store.stats.computed > 0

        # "Kill": a fresh process would reopen the same directory.  The
        # resumed run must recompute nothing and reproduce the report
        # byte for byte.
        warm_store = ProblemStore(root=tmp_path)
        warm = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS, store=warm_store)
        assert warm_store.stats.computed == 0
        assert warm_store.stats.disk_hits > 0
        assert reports_identical(cold, warm)

    def test_partial_run_resumes_into_a_larger_budget(self, tmp_path):
        # Interrupted run: only one expansion allowed.
        small = ExplorationLimits(max_depth=1, max_nodes=1)
        first_store = ProblemStore(root=tmp_path)
        explore(MATCHING_ROOTS, limits=small, store=first_store)
        already = first_store.stats.computed
        assert already >= 1

        # Resume with the full budget: only the *new* nodes compute.
        second_store = ProblemStore(root=tmp_path)
        full = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS, store=second_store)
        assert second_store.stats.computed == full.expanded - already
        # And the resumed report equals a from-scratch full run.
        scratch = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS)
        assert reports_identical(full, scratch)


class TestPolicyBlock:
    """The report's ``policy`` block is hashed into every report digest
    (the golden exploration records, perfbench's explore pins), so a
    changed default or constant must show up here as a declared change."""

    def test_default_policy_block(self):
        assert ExplorationPolicy().describe() == {
            "order": "bfs",
            "moves": ["RE"],
            "batch_size": 4,
            "step_budget": 200_000,
            "merge_alphabet_cap": 5,
            "link_alphabet_cap": 12,
            "zero_round": "uniform",
            "max_sequences": 3,
            "verify_sequences": True,
        }

    def test_zero_round_is_the_uniform_test(self):
        store = ProblemStore()
        report = explore(MATCHING_ROOTS, limits=MATCHING_LIMITS, store=store)
        assert report.zero_round_nodes  # the single-label RE endpoint
        for digest, node in report.nodes.items():
            assert node["zero_round"] is uniform_zero_round(store.problem_of(digest))


class TestPolicyValidation:
    def test_unknown_order_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExplorationPolicy(order="dfs")

    def test_unknown_move_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExplorationPolicy(moves=("RE", "teleport"))

    def test_limits_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            ExplorationLimits(max_depth=0)

    def test_empty_roots_rejected(self):
        with pytest.raises(InvalidParameterError):
            explore([])

    def test_merge_moves_grow_the_frontier(self, monkeypatch):
        monkeypatch.setattr(frontier, "MERGE_ALPHABET_CAP", 3)
        policy = ExplorationPolicy(moves=("RE", "merge"))
        problem = pi_matching(3, 2, 1)
        report = explore(
            [problem],
            policy=policy,
            limits=ExplorationLimits(max_depth=2, max_nodes=6),
        )
        merges = [e for e in report.edges if e["move"].startswith("merge:")]
        # Π_3(2,1) has 5 labels (over the cap); its single-label RE child
        # has none to merge — so merges appear only below nodes small
        # enough, and every merge target is a visited node.
        for edge in merges:
            assert edge["target"] in report.nodes
        # Unordered quotients only: no (source, move) pair may repeat,
        # and moves are tagged i+j with i < j.
        tags = [(e["source"], e["move"]) for e in merges]
        assert len(tags) == len(set(tags))
        for _source, move in tags:
            i, j = move.removeprefix("merge:").split("+")
            assert int(i) < int(j)

    def test_budget_exhaustion_is_recorded_not_raised(self):
        policy = ExplorationPolicy(step_budget=10)
        report = explore(
            [pi_matching(3, 0, 1)],
            policy=policy,
            limits=ExplorationLimits(max_depth=1, max_nodes=2),
        )
        assert report.counts["budget_exhausted_ops"] == 1
        assert report.visited == 1
        (edge,) = report.edges
        assert edge["status"] == STATUS_BUDGET and edge["target"] is None
