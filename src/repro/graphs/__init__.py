"""Graph substrates: certified high-girth graphs, covers, hypergraphs.

:mod:`repro.graphs.regular` (random regular graphs as numpy edge arrays)
is imported from its module, not re-exported here: the round-elimination
path imports this package but never numpy.
"""

from repro.graphs.analysis import SupportGraphReport, analyze_support_graph
from repro.graphs.cages import (
    available_cages,
    cage,
    cycle,
)
from repro.graphs.chromatic import (
    chromatic_lower_bound_from_independence,
    exact_chromatic_number,
    greedy_coloring,
    max_clique_lower_bound,
)
from repro.graphs.double_cover import bipartite_double_cover, mark_bipartition
from repro.graphs.generators import (
    CertifiedGraph,
    biregular_tree,
    lemma21_graph,
    padded_support_graph,
    random_regular_with_girth,
)
from repro.graphs.girth import exact_girth, hypergraph_girth
from repro.graphs.hypergraphs import Hypergraph, linear_uniform_hypergraph
from repro.graphs.independence import (
    exact_independence_number,
    greedy_independent_set,
    is_independent_set,
)

__all__ = [
    "CertifiedGraph",
    "Hypergraph",
    "SupportGraphReport",
    "analyze_support_graph",
    "available_cages",
    "bipartite_double_cover",
    "biregular_tree",
    "cage",
    "chromatic_lower_bound_from_independence",
    "cycle",
    "exact_chromatic_number",
    "exact_girth",
    "exact_independence_number",
    "greedy_coloring",
    "greedy_independent_set",
    "hypergraph_girth",
    "is_independent_set",
    "lemma21_graph",
    "linear_uniform_hypergraph",
    "mark_bipartition",
    "max_clique_lower_bound",
    "padded_support_graph",
    "random_regular_with_girth",
]
