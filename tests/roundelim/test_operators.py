"""Unit tests for R, R̄ and RE (Appendix B)."""

import pytest

from repro.formalism.configurations import Configuration
from repro.formalism.labels import set_label_members
from repro.formalism.parsing import parse_constraint
from repro.formalism.problems import problem_from_lines
from repro.problems import pi_matching, sinkless_orientation_problem
from repro.roundelim.operators import (
    apply_R,
    apply_R_bar,
    compress_labels,
    maximal_set_configurations,
    round_elimination,
)
from repro.utils import SolverLimitError


class TestMaximalSetConfigurations:
    def test_sinkless_orientation_black(self):
        """The only maximal pair with all choices = {O,I} is ({O},{I})."""
        so = sinkless_orientation_problem(3)
        maximal = maximal_set_configurations(so.black, so.alphabet)
        assert maximal == frozenset(
            {tuple(sorted([frozenset("I"), frozenset("O")], key=sorted))}
        )

    def test_full_constraint_gives_full_sets(self):
        """If every configuration is allowed, the unique maximal config is
        all-slots-full."""
        problem = problem_from_lines(
            ["A A"], ["A A", "A B", "B B"]
        )
        maximal = maximal_set_configurations(problem.black, frozenset("AB"))
        assert maximal == frozenset({(frozenset("AB"), frozenset("AB"))})

    def test_downward_closure_reachability(self):
        """Every maximal configuration dominates some seed configuration."""
        so = sinkless_orientation_problem(4)
        maximal = maximal_set_configurations(so.black, so.alphabet)
        for config in maximal:
            # Some choice across the config is an allowed base config.
            from itertools import product

            assert any(
                so.black.allows_multiset(choice)
                for choice in product(*config)
            )

    def test_budget_enforced(self):
        """Π_3(0,1)'s black side pops 27 configurations; budget 26 is
        exceeded."""
        problem = pi_matching(3, 0, 1)
        with pytest.raises(SolverLimitError):
            maximal_set_configurations(problem.black, problem.alphabet, budget=26)

    def test_budget_counts_every_popped_configuration(self):
        """The budget bounds *pops*, and push-time dedup means the pop
        count equals the number of distinct closed configurations the
        search reaches — so a tight budget raises on both engines at
        exactly the same value.

        Π_3(0,1)'s black side reaches 27 configurations whose slots are
        all right-closed: budget 26 must raise, budget 27 suffice.
        """
        problem = pi_matching(3, 0, 1)
        results = []
        for engine in ("reference", "kernel"):
            with pytest.raises(SolverLimitError):
                maximal_set_configurations(
                    problem.black, problem.alphabet, budget=26, engine=engine
                )
            results.append(
                maximal_set_configurations(
                    problem.black, problem.alphabet, budget=27, engine=engine
                )
            )
        assert results[0] == results[1]
        assert results[0] == maximal_set_configurations(
            problem.black, problem.alphabet
        )

    def test_budget_threshold_is_hash_seed_independent(self):
        """The seed ordering is explicitly sorted, so the step at which
        a tight budget raises cannot depend on hash randomization."""
        import os
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "from repro.problems import pi_matching\n"
            "from repro.roundelim.operators import maximal_set_configurations\n"
            "from repro.utils import SolverLimitError\n"
            "problem = pi_matching(3, 0, 1)\n"
            "outcomes = []\n"
            "for engine in ('reference', 'kernel'):\n"
            "    for budget in range(20, 34):\n"
            "        try:\n"
            "            maximal_set_configurations(\n"
            "                problem.black, problem.alphabet,\n"
            "                budget=budget, engine=engine)\n"
            "            outcomes.append('ok')\n"
            "        except SolverLimitError:\n"
            "            outcomes.append('limit')\n"
            "print(','.join(outcomes))\n"
        )
        transcripts = []
        for hash_seed in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hash_seed,
                    "PYTHONPATH": src_dir,
                },
                check=True,
            )
            transcripts.append(completed.stdout.strip())
        assert transcripts[0] == transcripts[1]
        # Budgets 20..26 raise and 27..33 suffice, on both engines.
        per_engine = ["limit"] * 7 + ["ok"] * 7
        assert transcripts[0] == ",".join(per_engine * 2)

    def test_no_config_dominates_another(self):
        """Maximality: no output config is component-wise below another."""
        so = sinkless_orientation_problem(3)
        maximal = list(maximal_set_configurations(so.black, so.alphabet))
        for first in maximal:
            for second in maximal:
                if first is second:
                    continue
                from itertools import permutations

                for perm in permutations(range(len(second))):
                    if all(
                        first[i] <= second[perm[i]] for i in range(len(first))
                    ):
                        assert first == tuple(second[p] for p in perm)


class TestApplyR:
    def test_arities_preserved(self):
        so = sinkless_orientation_problem(3)
        result = apply_R(so)
        assert result.white_arity == so.white_arity
        assert result.black_arity == so.black_arity

    def test_R_of_sinkless_orientation(self):
        """R(SO_3): black {({O},{I})}; white = triples of the two
        singletons containing at least one {O}."""
        so = sinkless_orientation_problem(3)
        result = apply_R(so)
        assert len(result.black) == 1
        assert len(result.white) == 3
        decoded = {label: set_label_members(label) for label in result.alphabet}
        assert set(decoded.values()) == {frozenset("O"), frozenset("I")}

    def test_white_configs_have_choice_in_base(self):
        so = sinkless_orientation_problem(3)
        result = apply_R(so)
        decoded = {label: set_label_members(label) for label in result.alphabet}
        from itertools import product

        for config in result.white:
            slots = [decoded[label] for label in config]
            assert any(
                so.white.allows_multiset(choice) for choice in product(*slots)
            )


class TestApplyRBar:
    def test_is_R_with_roles_swapped(self):
        so = sinkless_orientation_problem(3)
        direct = apply_R_bar(so)
        via_swap = apply_R(so.swap_sides()).swap_sides()
        assert direct.white == via_swap.white
        assert direct.black == via_swap.black


class TestRoundElimination:
    def test_arities_preserved(self):
        so = sinkless_orientation_problem(4)
        result = round_elimination(so)
        assert result.white_arity == 4
        assert result.black_arity == 2

    def test_RE_of_sinkless_orientation_structure(self):
        """RE(SO_3): white a0²a1 with a1 = {{O}}, a0 = {{O},{I}};
        black {a0², a0a1} (computed in the development log and stable)."""
        so = sinkless_orientation_problem(3)
        result, _mapping = compress_labels(round_elimination(so))
        assert len(result.alphabet) == 2
        assert len(result.white) == 1
        assert len(result.black) == 2

    def test_compress_labels_round_trip(self):
        so = sinkless_orientation_problem(3)
        eliminated = round_elimination(so)
        compressed, mapping = compress_labels(eliminated)
        assert compressed.is_isomorphic_to(eliminated)
        assert set(mapping) == set(eliminated.alphabet)
