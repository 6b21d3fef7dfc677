"""Clause database with variable interning and byte-deterministic DIMACS.

Variables are interned under hashable *keys* (the encoder uses
``("x", edge, label)`` tuples), numbered 1..n in first-intern order —
the encoder visits edges and labels in a deterministic order, so the
numbering is reproducible.  Clauses are stored in insertion order (the
order CDCL sees them) but rendered in a canonical order for export and
digesting, so two semantically identical encodings produced by different
emission orders serialize to identical bytes.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
import hashlib

from repro.utils import InvalidParameterError

Literal = int
Clause = tuple[Literal, ...]

DIMACS_SCHEMA = "repro.sat/dimacs-v1"


def _canonical_clause(literals: Iterable[Literal]) -> Clause | None:
    """Sorted, deduplicated clause — or ``None`` for a tautology.

    Literals sort by variable then polarity (positive first), so the
    rendered form of a clause never depends on emission order.
    """
    seen: set[Literal] = set()
    for lit in literals:
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise InvalidParameterError(
                f"a CNF literal must be a nonzero int, got {lit!r}"
            )
        if -lit in seen:
            return None
        seen.add(lit)
    return tuple(sorted(seen, key=lambda lit: (abs(lit), lit < 0)))


class CnfFormula:
    """A growable CNF: interned variables + deduplicated clauses."""

    def __init__(self) -> None:
        self._var_ids: dict[object, int] = {}
        self._var_keys: list[object] = []
        self.clauses: list[Clause] = []
        self._clause_set: set[Clause] = set()
        self.has_empty_clause = False

    @property
    def num_vars(self) -> int:
        return len(self._var_keys)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def var(self, key: object) -> int:
        """Intern ``key`` and return its 1-based DIMACS variable number."""
        var_id = self._var_ids.get(key)
        if var_id is None:
            var_id = len(self._var_keys) + 1
            self._var_ids[key] = var_id
            self._var_keys.append(key)
        return var_id

    def add_clause(self, literals: Iterable[Literal]) -> bool:
        """Add a clause; returns True if it changed the formula.

        Tautologies and exact duplicates are dropped.  An empty clause is
        recorded (the formula is trivially UNSAT) rather than raising, so
        encoders can emit degree-mismatch contradictions uniformly.
        """
        clause = _canonical_clause(literals)
        if clause is None or clause in self._clause_set:
            return False
        for lit in clause:
            if abs(lit) > self.num_vars:
                raise InvalidParameterError(
                    f"literal {lit} references variable {abs(lit)} but only "
                    f"{self.num_vars} variables are interned"
                )
        if not clause:
            self.has_empty_clause = True
        self.clauses.append(clause)
        self._clause_set.add(clause)
        return True

    def canonical_clauses(self) -> list[Clause]:
        """Clauses sorted by (length, literal tuple) — the export order."""
        return sorted(self.clauses, key=lambda clause: (len(clause), clause))

    def to_dimacs(self, *, comments: Sequence[str] = ()) -> str:
        """Render the formula in canonical DIMACS CNF.

        Variable-key comments come first (``c var <id> <key>``), so the
        file alone documents what each variable means.
        """
        lines = [f"c {DIMACS_SCHEMA}"]
        for comment in comments:
            lines.append(f"c {comment}")
        for index, key in enumerate(self._var_keys, start=1):
            lines.append(f"c var {index} {key!r}")
        lines.append(f"p cnf {self.num_vars} {self.num_clauses}")
        for clause in self.canonical_clauses():
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Content digest of the canonical clause matrix (comments excluded)."""
        hasher = hashlib.sha256()
        hasher.update(f"p cnf {self.num_vars} {self.num_clauses}\n".encode())
        for clause in self.canonical_clauses():
            hasher.update(" ".join(str(lit) for lit in clause).encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CnfFormula(vars={self.num_vars}, clauses={self.num_clauses})"
