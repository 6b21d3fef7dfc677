"""Clause database: canonical ordering, DIMACS export, digests."""

import pytest

from repro.solvers.sat.cnf import CnfFormula
from repro.utils import InvalidParameterError


class TestInterning:
    def test_vars_are_one_based_and_stable(self):
        formula = CnfFormula()
        x = formula.var(("x", 0, 0))
        y = formula.var(("x", 0, 1))
        assert (x, y) == (1, 2)
        assert formula.var(("x", 0, 0)) == x  # re-intern is a lookup
        assert formula.num_vars == 2

    def test_clause_literals_must_name_interned_vars(self):
        formula = CnfFormula()
        formula.var("a")
        with pytest.raises(InvalidParameterError):
            formula.add_clause([2])
        with pytest.raises(InvalidParameterError):
            formula.add_clause([0])


class TestCanonicalForm:
    def test_clause_canonicalization_sorts_and_dedups(self):
        formula = CnfFormula()
        a, b = formula.var("a"), formula.var("b")
        formula.add_clause([-b, a, a])
        assert formula.canonical_clauses() == [(a, -b)]

    def test_tautologies_are_dropped(self):
        formula = CnfFormula()
        a = formula.var("a")
        formula.add_clause([a, -a])
        assert formula.canonical_clauses() == []
        assert not formula.has_empty_clause

    def test_duplicate_clauses_collapse(self):
        formula = CnfFormula()
        a, b = formula.var("a"), formula.var("b")
        formula.add_clause([a, b])
        formula.add_clause([b, a])
        assert len(formula.canonical_clauses()) == 1

    def test_empty_clause_is_recorded(self):
        formula = CnfFormula()
        formula.add_clause([])
        assert formula.has_empty_clause

    def test_digest_ignores_insertion_order(self):
        first = CnfFormula()
        a, b = first.var("a"), first.var("b")
        first.add_clause([a, b])
        first.add_clause([-a])
        second = CnfFormula()
        a2, b2 = second.var("a"), second.var("b")
        second.add_clause([-a2])
        second.add_clause([b2, a2])
        assert first.digest() == second.digest()

    def test_digest_sees_clause_changes(self):
        first = CnfFormula()
        first.add_clause([first.var("a")])
        second = CnfFormula()
        second.add_clause([-second.var("a")])
        assert first.digest() != second.digest()


class TestDimacs:
    def test_export_is_byte_deterministic(self):
        def build():
            formula = CnfFormula()
            x, y = formula.var("x"), formula.var("y")
            formula.add_clause([y, x])
            formula.add_clause([-x])
            return formula.to_dimacs(comments=("note",))

        assert build() == build()
