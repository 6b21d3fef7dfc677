"""Named scenario suites covering the paper's experiment families.

Suites group scenarios by paper section: ``matching`` (Theorem 4.1,
Lemma 4.5, §4.2, Figures 1 and 3), ``ruling_sets`` (Theorem 6.1,
Figure 2), ``arbdefective`` (Theorem 5.1), ``mis`` ([AAPR23], §1.1) and
``round_elimination`` (Appendix B, Theorem 3.2, Appendix C); README's
claims table names the record field that carries each claim's verdict.
The ``smoke`` suite is the CI gate: a fast cross-section of every family
sized to finish well under a minute.
"""

from __future__ import annotations

from repro.experiments.scenarios import Scenario
from repro.utils import InvalidParameterError

SUITES: dict[str, tuple[Scenario, ...]] = {
    "matching": (
        Scenario.create(
            "thm41-proposal-sweep",
            pipeline="matching_proposal_sweep",
            family="double_cover:tutte_coxeter",
            sizes=(1, 2, 3),
        ),
        Scenario.create(
            "fig1-black-diagram",
            pipeline="matching_black_diagram",
            delta=5,
            y=1,
        ),
        Scenario.create(
            "fig3-formalism-labels",
            pipeline="matching_labels_example",
            family="double_cover:heawood",
        ),
        Scenario.create(
            "lem45-steps-x0",
            pipeline="matching_sequence_steps",
            sizes=(3, 4),
            x=0,
            y=1,
        ),
        Scenario.create(
            "lem45-steps-x1",
            pipeline="matching_sequence_steps",
            sizes=(4,),
            x=1,
            y=1,
        ),
        # Same Lemma 4.5 step on the reference engine: the records must
        # match lem45-steps-x0's first entry byte-for-byte (the RE
        # engine contract, asserted by
        # tests/experiments/test_re_engine_dimension.py).
        Scenario.create(
            "lem45-steps-reference-engine",
            pipeline="matching_sequence_steps",
            sizes=(3,),
            x=0,
            y=1,
            re_engine="reference",
        ),
        Scenario.create(
            "cor46-full-sequence",
            pipeline="matching_full_sequence",
            sizes=(2,),
            delta=4,
            x=0,
            y=1,
        ),
        Scenario.create(
            "thm41-contradiction-region",
            pipeline="matching_contradiction_region",
            family="marked_cycle:8",
            sizes=(2, 4, 8, 16),
            ratios=(2, 3, 5, 8),
            c=5,
            y=1,
        ),
    ),
    "ruling_sets": (
        Scenario.create(
            "fig2-black-diagram",
            pipeline="ruling_black_diagram",
            delta=3,
            colors=3,
            beta=2,
        ),
        Scenario.create(
            "thm61-bound-series",
            pipeline="ruling_bound_series",
            sizes=(1, 2, 3, 4),
        ),
        Scenario.create(
            "thm61-peeling",
            pipeline="ruling_peeling",
            family="cage:tutte_coxeter",
            beta=2,
            delta=3,
        ),
        # Engine twin for the newly ported ruling-set kernel: the same
        # peeling scenario through the vectorized engine must produce a
        # byte-identical run (CI diffs the two suite outputs).
        Scenario.create(
            "thm61-peeling-vectorized",
            pipeline="ruling_peeling",
            family="cage:tutte_coxeter",
            beta=2,
            delta=3,
            engine="vectorized",
        ),
    ),
    "arbdefective": (
        Scenario.create(
            "thm51-fixed-points-k2",
            pipeline="arbdefective_fixed_points",
            sizes=(2, 3, 4),
            k=2,
        ),
        Scenario.create(
            "thm51-fixed-points-k3",
            pipeline="arbdefective_fixed_points",
            sizes=(3,),
            k=3,
        ),
        Scenario.create(
            "thm51-lift-refutation",
            pipeline="arbdefective_lift_refutation",
            family="cage:petersen",
            k=1,
            delta=3,
        ),
        Scenario.create(
            "thm51-extraction",
            pipeline="arbdefective_extraction",
            family="cage:petersen",
            delta=3,
        ),
    ),
    "mis": (
        *(
            Scenario.create(
                f"aapr23-{name}",
                pipeline="mis_supported",
                family=f"cage:{name}",
            )
            for name in ("petersen", "heawood", "pappus", "mcgee", "tutte_coxeter")
        ),
        Scenario.create(
            "luby-petersen",
            pipeline="mis_luby",
            family="cage:petersen",
            trials=3,
        ),
        Scenario.create(
            "luby-random-regular",
            pipeline="mis_luby",
            family="random_regular:3:4:16",
            trials=2,
        ),
        Scenario.create(
            "aapr23-parameters",
            pipeline="mis_parameters",
            sizes=(16, 24, 32, 48),
        ),
    ),
    "round_elimination": (
        Scenario.create(
            "re-step-census",
            pipeline="re_step_census",
            sizes=(2, 3),
        ),
        # The kernel-vs-reference dimension: identical records from both
        # engines on the same census sweep.
        Scenario.create(
            "re-step-census-reference-engine",
            pipeline="re_step_census",
            sizes=(2, 3),
            re_engine="reference",
        ),
        Scenario.create(
            "thmb2-speedup",
            pipeline="speedup_b2",
            family="marked_cycle:8",
            edge_limit=8,
        ),
        Scenario.create(
            "thmb2-speedup-reference-engine",
            pipeline="speedup_b2",
            family="marked_cycle:8",
            edge_limit=8,
            re_engine="reference",
        ),
        Scenario.create(
            "thm32-lift-equivalence",
            pipeline="lift_equivalence",
            edge_limit=10,
        ),
        Scenario.create(
            "thmc2-instance-counts",
            pipeline="instance_counts",
            sizes=(1, 2, 3, 4, 5),
        ),
        Scenario.create(
            "thmc2-union-bound",
            pipeline="union_bound_derandomization",
            instances=12,
            seeds=256,
            failure=1 / 16,
        ),
    ),
    # Differential fuzzing (repro.verification) as first-class scenarios:
    # the oracle registry runs under the same seeded, jobs-parallel,
    # byte-deterministic contract as every other suite.
    "verification": (
        Scenario.create(
            "fuzz-all-oracles",
            pipeline="verification_fuzz",
            cases=15,
        ),
        Scenario.create(
            "fuzz-roundelim-deep",
            pipeline="verification_fuzz",
            cases=8,
            oracles=("roundelim",),
        ),
        Scenario.create(
            "fuzz-solver-views",
            pipeline="verification_fuzz",
            cases=10,
            oracles=("solver", "views"),
        ),
    ),
    # Round elimination exploration (repro.roundelim.explore): frontier
    # search over the paper families.  The matching Δ=3 scenario is the
    # acceptance criterion — it must *rediscover* the Corollary 4.6
    # chain Π_3(0,1) → Π_3(1,1) → Π_3(2,1) as a verified lower bound
    # sequence and classify Π_3(2,1) as the family's fixed point; its
    # -jobs4 and -reference-engine twins pin the worker- and
    # engine-independence of the records.
    "exploration": (
        Scenario.create(
            "explore-matching-d3",
            pipeline="exploration_search",
            sizes=(0, 1, 2),
            family="matching",
            delta=3,
            max_depth=1,
            max_nodes=8,
            expect_sequence_length=2,
            expect_fixed_point="relaxation",
        ),
        Scenario.create(
            "explore-matching-d3-jobs4",
            pipeline="exploration_search",
            sizes=(0, 1, 2),
            family="matching",
            delta=3,
            max_depth=1,
            max_nodes=8,
            expect_sequence_length=2,
            expect_fixed_point="relaxation",
            jobs=4,
        ),
        Scenario.create(
            "explore-matching-d3-reference-engine",
            pipeline="exploration_search",
            sizes=(0, 1, 2),
            family="matching",
            delta=3,
            max_depth=1,
            max_nodes=8,
            expect_sequence_length=2,
            expect_fixed_point="relaxation",
            re_engine="reference",
        ),
        Scenario.create(
            "explore-arbdefective-fixed-point",
            pipeline="exploration_search",
            family="arbdefective",
            delta=3,
            k=2,
            max_depth=2,
            max_nodes=4,
            expect_sequence_length=2,
            expect_fixed_point="exact",
        ),
        Scenario.create(
            "explore-ruling-d3",
            pipeline="exploration_search",
            family="ruling",
            delta=3,
            colors=1,
            beta=2,
            max_depth=1,
            max_nodes=2,
        ),
        Scenario.create(
            "explore-merge-best-first",
            pipeline="exploration_search",
            sizes=(2,),
            family="matching",
            delta=3,
            order="min-alphabet",
            moves=("RE", "merge"),
            max_depth=2,
            max_nodes=6,
        ),
    ),
    # Solver backends (repro.solvers): the Theorem 3.2 zero-round gate
    # decided through both decision procedures.  The -sat-solver twin
    # must serialize byte-identically to the csp scenario (the backend,
    # like the engine, never reaches the records) — CI diffs the two
    # record files.
    "solvers": (
        Scenario.create(
            "zero-round-gates",
            pipeline="zero_round_gates",
            family="marked_cycle:8",
            sizes=(0, 1),
            delta=2,
        ),
        Scenario.create(
            "zero-round-gates-sat-solver",
            pipeline="zero_round_gates",
            family="marked_cycle:8",
            sizes=(0, 1),
            delta=2,
            solver="sat",
        ),
    ),
    # The solve service (repro.service): cold/warm/duplicate cycles over
    # an in-process daemon, gating byte parity with the direct façade,
    # engine-invariant request digests and exactly-one-solve dedup.  The
    # -vectorized twin runs the same cycle from the other engine side.
    "service": (
        Scenario.create(
            "service-roundtrip",
            pipeline="service_roundtrip",
            duplicates=4,
        ),
        Scenario.create(
            "service-roundtrip-vectorized",
            pipeline="service_roundtrip",
            duplicates=4,
            engine="vectorized",
        ),
    ),
    # The CI gate: one fast scenario per family, sized for < 60 s total.
    "smoke": (
        Scenario.create(
            "smoke-exploration",
            pipeline="exploration_search",
            sizes=(1, 2),
            family="matching",
            delta=3,
            max_depth=1,
            max_nodes=4,
            expect_sequence_length=2,
            expect_fixed_point="relaxation",
        ),
        Scenario.create(
            "smoke-verification-fuzz",
            pipeline="verification_fuzz",
            cases=5,
        ),
        Scenario.create(
            "smoke-matching-proposal",
            pipeline="matching_proposal_sweep",
            family="double_cover:heawood",
            sizes=(1, 2),
        ),
        Scenario.create(
            "smoke-matching-step",
            pipeline="matching_sequence_steps",
            sizes=(3,),
            x=0,
            y=1,
        ),
        Scenario.create(
            "smoke-ruling-bounds",
            pipeline="ruling_bound_series",
            sizes=(1, 2),
        ),
        Scenario.create(
            "smoke-arbdefective-fixed-point",
            pipeline="arbdefective_fixed_points",
            sizes=(2, 3),
            k=2,
        ),
        Scenario.create(
            "smoke-mis-petersen",
            pipeline="mis_supported",
            family="cage:petersen",
        ),
        Scenario.create(
            "smoke-luby",
            pipeline="mis_luby",
            family="cage:petersen",
            trials=1,
        ),
        Scenario.create(
            "smoke-re-census",
            pipeline="re_step_census",
            sizes=(2,),
        ),
        Scenario.create(
            "smoke-re-census-reference-engine",
            pipeline="re_step_census",
            sizes=(2,),
            re_engine="reference",
        ),
        Scenario.create(
            "smoke-service",
            pipeline="service_roundtrip",
            duplicates=2,
        ),
    ),
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def get_suite(name: str) -> tuple[Scenario, ...]:
    try:
        return SUITES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown suite {name!r}; known: {suite_names()}"
        ) from None


def get_scenario(suite: str, name: str) -> Scenario:
    for scenario in get_suite(suite):
        if scenario.name == name:
            return scenario
    raise InvalidParameterError(
        f"suite {suite!r} has no scenario {name!r}; "
        f"known: {[s.name for s in get_suite(suite)]}"
    )
