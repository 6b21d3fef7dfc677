"""Compile an :class:`EdgeLabelingCSP` instance to CNF.

The propositional view of an edge labeling:

* **Variables.**  One-hot edge-label selectors ``("x", i, j)`` — edge
  ``i`` (in the CSP's BFS edge order) carries alphabet label ``j`` (in
  sorted-label order, matching :class:`~repro.formalism.encoding.LabelEncoding`
  bit indices).  Exactly-one clauses pin each edge to a single label.
* **Node constraints.**  For every *active* node (the CSP's
  ``white_active`` / ``black_active`` predicates, which is how
  S-solutions and lifted problems arrive here), a DFS over its incident
  edges' label choices walks the
  :class:`~repro.formalism.encoding.ConstraintTable` partial-extension
  table and emits one blocking clause per maximal failing prefix — the
  CNF mirror of the CSP's ``allows_partial`` pruning.  Complete because
  any assignment violating the node constraint hits a first failing
  prefix; an active node whose degree differs from its arity yields the
  empty clause (no configuration of the wrong size is ever allowed),
  matching the CSP's semantics exactly.
* **Symmetry breaking.**  For each non-identity label automorphism π
  (from :func:`~repro.formalism.normalize.label_automorphisms` —
  automorphisms map solutions to solutions because they preserve both
  constraints and never touch the activity predicates), lex-leader
  clauses force the edge-label vector to be lexicographically minimal
  within its π-chain, using a prefix-equality auxiliary chain
  ``("p", k, i)``.  Any subset of group elements is sound for existence
  (the lex-minimal member of each orbit survives every π's constraint);
  enumeration re-expands survivors along the full group (see
  :mod:`repro.solvers.sat.labeling`).

Encoding work (one tick per DFS visit) is metered on the same
:class:`~repro.solvers.budget.SolverBudget` the CDCL search spends, so a
pathological instance exhausts the budget during encoding rather than
stalling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.formalism.configurations import Label
from repro.formalism.encoding import ConstraintTable, ProblemEncoding
from repro.formalism.normalize import label_automorphisms
from repro.solvers.budget import SolverBudget
from repro.solvers.csp import EdgeLabelingCSP
from repro.solvers.sat.cnf import CnfFormula
from repro.solvers.sat.solver import DEFAULT_PROPAGATION_BUDGET, SAT_BUDGET_UNIT


@dataclass
class LabelingEncoding:
    """A compiled instance: formula plus the var ↔ (edge, label) maps."""

    formula: CnfFormula
    edges: list[tuple]
    alphabet: list[Label]
    automorphisms: list[dict[Label, Label]]
    symmetry_broken: bool
    _var: dict[tuple[int, int], int] = field(default_factory=dict)

    def var(self, edge_index: int, label_index: int) -> int:
        return self._var[(edge_index, label_index)]

    def decode(self, model: dict[int, bool]) -> dict[frozenset, Label]:
        """A model of the formula → the edge labeling it selects."""
        labeling: dict[frozenset, Label] = {}
        for edge_index, edge in enumerate(self.edges):
            for label_index, label in enumerate(self.alphabet):
                if model[self.var(edge_index, label_index)]:
                    labeling[frozenset(edge)] = label
                    break
        return labeling

    def blocking_clause(self, model: dict[int, bool]) -> list[int]:
        """The clause excluding exactly this edge labeling.

        Mentions only the selector variables, never the symmetry
        auxiliaries — aux values are functionally determined by the
        selectors, so blocking on selectors alone excludes one labeling
        per clause.
        """
        clause = []
        for edge_index in range(len(self.edges)):
            for label_index in range(len(self.alphabet)):
                var = self.var(edge_index, label_index)
                clause.append(-var if model[var] else var)
        return clause


def _encode_node_constraint(
    encoding: LabelingEncoding,
    table: ConstraintTable,
    incident: list[int],
    budget: SolverBudget,
) -> None:
    """Blocking clauses for one active node's configuration constraint.

    ``incident`` pairs each incident edge's global index with which
    alphabet index range to explore; the DFS keeps the chosen label codes
    as a sorted tuple (configurations are multisets) and emits a clause
    at the first prefix the partial-extension table rejects.
    """
    formula = encoding.formula
    alphabet_size = len(encoding.alphabet)
    degree = len(incident)
    if degree != table.arity:
        formula.add_clause([])
        return
    chosen: list[int] = []

    def visit(depth: int) -> None:
        budget.spend()
        partial = tuple(sorted(chosen))
        if not table.extends(partial):
            formula.add_clause(
                [
                    -encoding.var(incident[position], chosen[position])
                    for position in range(depth)
                ]
            )
            return
        if depth == degree:
            return  # full tuple in partials ⇒ in allowed
        for code in range(alphabet_size):
            chosen.append(code)
            visit(depth + 1)
            chosen.pop()

    visit(0)


def _encode_lex_leader(
    encoding: LabelingEncoding, pi_index: int, pi: dict[Label, Label]
) -> None:
    """Lex-leader clauses for one non-identity automorphism π.

    With ``V_i`` the label index on edge ``i``, requires ``V ≤lex π∘V``:
    aux ``P_i`` ⇔ "edges 0..i-1 all carry π-fixed labels"; under ``P_i``
    the decreasing labels (idx(π(l)) < idx(l)) are forbidden on edge i.
    """
    formula = encoding.formula
    alphabet = encoding.alphabet
    index_of = {label: position for position, label in enumerate(alphabet)}
    decreasing = [
        position
        for position, label in enumerate(alphabet)
        if index_of[pi[label]] < position
    ]
    fixed = [
        position
        for position, label in enumerate(alphabet)
        if pi[label] == label
    ]
    prefix_var: int | None = None  # None ⇒ P_i is constant true (i == 0)
    for edge_index in range(len(encoding.edges)):
        guard = [] if prefix_var is None else [-prefix_var]
        for code in decreasing:
            formula.add_clause(guard + [-encoding.var(edge_index, code)])
        if edge_index == len(encoding.edges) - 1:
            break
        if not fixed:
            break  # the prefix can never stay π-fixed past this edge
        next_var = formula.var(("p", pi_index, edge_index + 1))
        # P_{i+1} → P_i, and P_{i+1} → (edge i carries a fixed label).
        if prefix_var is not None:
            formula.add_clause([-next_var, prefix_var])
        formula.add_clause(
            [-next_var] + [encoding.var(edge_index, code) for code in fixed]
        )
        # P_i ∧ fixed(edge i) → P_{i+1}.
        for code in fixed:
            formula.add_clause(
                guard + [-encoding.var(edge_index, code), next_var]
            )
        prefix_var = next_var


def encode_csp(
    csp: EdgeLabelingCSP,
    *,
    symmetry_breaking: bool = True,
    budget: int | SolverBudget | None = None,
) -> LabelingEncoding:
    """Compile a CSP instance into a :class:`LabelingEncoding`."""
    if budget is None:
        budget = DEFAULT_PROPAGATION_BUDGET
    budget = SolverBudget.coerce(budget, SAT_BUDGET_UNIT)
    formula = CnfFormula()
    edges = list(csp._edges)
    alphabet = list(csp._alphabet)
    problem = csp.problem

    group = label_automorphisms(problem)
    if group is None:
        group = [{label: label for label in problem.alphabet}]
    encoding = LabelingEncoding(
        formula=formula,
        edges=edges,
        alphabet=alphabet,
        automorphisms=group,
        symmetry_broken=symmetry_breaking and len(group) > 1 and bool(edges),
    )

    # Selector variables first (stable 1..m·k numbering), then one-hot.
    for edge_index in range(len(edges)):
        for label_index in range(len(alphabet)):
            encoding._var[(edge_index, label_index)] = formula.var(
                ("x", edge_index, label_index)
            )
    for edge_index in range(len(edges)):
        selectors = [
            encoding.var(edge_index, label_index)
            for label_index in range(len(alphabet))
        ]
        formula.add_clause(selectors)
        for first in range(len(selectors)):
            for second in range(first + 1, len(selectors)):
                formula.add_clause([-selectors[first], -selectors[second]])

    # Node constraints over the problem's integer tables.
    problem_encoding = ProblemEncoding.compile(problem)
    edge_positions: dict = {}
    for position, (u, v) in enumerate(edges):
        edge_positions.setdefault(u, []).append(position)
        edge_positions.setdefault(v, []).append(position)
    for node in sorted(csp.graph.nodes, key=str):
        if not csp._is_active(node):
            continue
        table = (
            problem_encoding.white
            if csp._colors[node] == "white"
            else problem_encoding.black
        )
        _encode_node_constraint(
            encoding, table, edge_positions.get(node, []), budget
        )

    if encoding.symmetry_broken:
        for pi_index, pi in enumerate(group[1:], start=1):
            _encode_lex_leader(encoding, pi_index, pi)
    return encoding
