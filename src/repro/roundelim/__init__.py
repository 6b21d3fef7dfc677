"""Round elimination (paper Appendix B): R, R̄, RE, fixed points, sequences."""

from repro.roundelim.fixed_points import (
    FixedPointReport,
    analyze_fixed_point,
    is_fixed_point,
    is_fixed_point_up_to_relaxation,
)
from repro.roundelim.operators import (
    DEFAULT_ENGINE,
    ENGINES,
    apply_R,
    apply_R_bar,
    compress_labels,
    maximal_set_configurations,
    round_elimination,
)
from repro.roundelim.sequences import (
    LowerBoundSequence,
    SequenceStepWitness,
    constant_sequence,
    sequence_from_family,
)
from repro.roundelim.explore import (
    ExplorationLimits,
    ExplorationPolicy,
    ExplorationReport,
    ProblemStore,
    explore,
)

__all__ = [
    "ExplorationLimits",
    "ExplorationPolicy",
    "ExplorationReport",
    "ProblemStore",
    "explore",
    "DEFAULT_ENGINE",
    "ENGINES",
    "FixedPointReport",
    "LowerBoundSequence",
    "SequenceStepWitness",
    "analyze_fixed_point",
    "apply_R",
    "apply_R_bar",
    "compress_labels",
    "constant_sequence",
    "is_fixed_point",
    "is_fixed_point_up_to_relaxation",
    "maximal_set_configurations",
    "round_elimination",
    "sequence_from_family",
]
