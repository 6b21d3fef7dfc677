"""The black-white formalism (paper §2).

Public surface: configurations, constraints, problems, parsing, strength
diagrams, right-closed sets, relaxation checking and rendering.
"""

from repro.formalism.configurations import (
    CondensedConfiguration,
    Configuration,
    Label,
    condensed,
    render_configuration,
)
from repro.formalism.constraints import Constraint
from repro.formalism.diagrams import (
    black_diagram,
    diagram,
    diagram_edges,
    diagram_reduction,
    is_at_least_as_strong,
    is_right_closed,
    right_closed_subsets,
    right_closure,
    successors_closure,
)
from repro.formalism.encoding import (
    ConstraintTable,
    LabelEncoding,
    ProblemEncoding,
    bits_of,
    mask_sort_key,
)
from repro.formalism.labels import (
    color_label,
    color_label_members,
    is_set_label,
    set_label,
    set_label_members,
)
from repro.formalism.normalize import (
    NormalForm,
    canonical_digest,
    normal_form,
    problem_from_payload,
)
from repro.formalism.parsing import (
    parse_condensed,
    parse_configuration,
    parse_constraint,
)
from repro.formalism.problems import Problem, problem_from_lines
from repro.formalism.relaxations import (
    find_config_map_relaxation,
    find_label_relaxation,
    is_relaxation_via_config_map,
    is_relaxation_via_label_map,
)
from repro.formalism.rendering import render_diagram, render_problem

__all__ = [
    "CondensedConfiguration",
    "Configuration",
    "Constraint",
    "ConstraintTable",
    "Label",
    "LabelEncoding",
    "NormalForm",
    "Problem",
    "ProblemEncoding",
    "bits_of",
    "black_diagram",
    "canonical_digest",
    "color_label",
    "color_label_members",
    "condensed",
    "diagram",
    "diagram_edges",
    "diagram_reduction",
    "find_config_map_relaxation",
    "find_label_relaxation",
    "is_at_least_as_strong",
    "is_relaxation_via_config_map",
    "is_relaxation_via_label_map",
    "is_right_closed",
    "is_set_label",
    "mask_sort_key",
    "normal_form",
    "parse_condensed",
    "parse_configuration",
    "parse_constraint",
    "problem_from_lines",
    "problem_from_payload",
    "render_configuration",
    "render_diagram",
    "render_problem",
    "right_closed_subsets",
    "right_closure",
    "set_label",
    "set_label_members",
    "successors_closure",
]
