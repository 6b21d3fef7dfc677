"""Distributed upper-bound algorithms bracketing the paper's lower bounds.

Importing a module registers its algorithms with :mod:`repro.api`, so
every module is imported here.  Each registered algorithm is a node
program (the object engine's oracle) plus a numpy kernel; only
``orientation`` also exports a function, the global orientation its
program hands out.
"""

from repro.algorithms import arbdefective_dist  # noqa: F401
from repro.algorithms import coloring_dist  # noqa: F401
from repro.algorithms import matching_dist  # noqa: F401
from repro.algorithms import mis  # noqa: F401
from repro.algorithms import ruling_dist  # noqa: F401
from repro.algorithms.orientation import global_sinkless_orientation

__all__ = ["global_sinkless_orientation"]
