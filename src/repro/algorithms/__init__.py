"""Distributed upper-bound algorithms bracketing the paper's lower bounds.

Importing a module registers its algorithms with :mod:`repro.api`, so
every module is imported here, including ``mis``, which exports nothing.
"""

from repro.algorithms import mis  # noqa: F401
from repro.algorithms.arbdefective_dist import (
    class_sweep_arbdefective_coloring,
    verify_class_sweep_construction,
)
from repro.algorithms.coloring_dist import (
    class_sweep_coloring,
    coloring_from_ids,
)
from repro.algorithms.matching_dist import greedy_maximal_matching
from repro.algorithms.orientation import global_sinkless_orientation
from repro.algorithms.ruling_dist import ruling_set_by_class_sweep

__all__ = [
    "class_sweep_arbdefective_coloring",
    "class_sweep_coloring",
    "coloring_from_ids",
    "global_sinkless_orientation",
    "greedy_maximal_matching",
    "ruling_set_by_class_sweep",
    "verify_class_sweep_construction",
]
