"""CNF subsystem: clause database, CSP-to-SAT encoder, CDCL solver.

The third independent implementation of the central decision procedure
(after the backtracking CSP and the product-space brute force): existence
and enumeration questions on 2-colored graphs are compiled to CNF with
one-hot edge-label variables and lex-leader symmetry breaking, then
decided by a pure-python CDCL solver under the shared
:class:`~repro.solvers.budget.SolverBudget` contract.
"""

from repro.solvers.sat.cnf import CnfFormula
from repro.solvers.sat.encode import LabelingEncoding, encode_csp
from repro.solvers.sat.labeling import (
    SatLabelingSolver,
    expand_orbit,
)
from repro.solvers.sat.solver import (
    DEFAULT_PROPAGATION_BUDGET,
    SAT_BUDGET_UNIT,
    CdclSolver,
    check_rup_proof,
)

__all__ = [
    "DEFAULT_PROPAGATION_BUDGET",
    "SAT_BUDGET_UNIT",
    "CdclSolver",
    "CnfFormula",
    "LabelingEncoding",
    "SatLabelingSolver",
    "check_rup_proof",
    "encode_csp",
    "expand_orbit",
]
