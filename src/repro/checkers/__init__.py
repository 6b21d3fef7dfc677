"""Validity checkers: formalism solutions and concrete graph problems."""

from repro.checkers.graph_problems import (
    CheckResult,
    check_arbdefective_colored_ruling_set,
    check_arbdefective_coloring,
    check_maximal_matching,
    check_proper_coloring,
    check_ruling_set,
    check_sinkless_orientation,
    check_x_maximal_y_matching,
)
from repro.checkers.solutions import (
    check_bipartite_solution,
    check_half_edge_labeling,
)

__all__ = [
    "CheckResult",
    "check_arbdefective_colored_ruling_set",
    "check_arbdefective_coloring",
    "check_bipartite_solution",
    "check_half_edge_labeling",
    "check_maximal_matching",
    "check_proper_coloring",
    "check_ruling_set",
    "check_sinkless_orientation",
    "check_x_maximal_y_matching",
]
