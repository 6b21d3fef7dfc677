"""The lean audit, kept closed: every public top-level function and class
in ``src/`` has a caller outside the tests, or a recorded reason to stay.

The scan reads ``src/``, ``benchmarks/``, ``examples/`` and
``perfbench/`` with :mod:`ast`.  A definition counts as called when some
module there names it in code: as an ``ast.Name``, a ``from … import``,
or an ``ast.Attribute`` whose chain starts at a name the module imported
from ``repro`` (``api.solve``, ``repro.api.solve``).  Attributes of
anything else (``self.describe``, ``nx.complete_graph``) name methods
and third-party code, so they would hide a dead function of the same
name.  Re-exports in ``__init__.py`` files and mentions in docstrings do
not count.  Decorated definitions (dataclasses and the like) and methods
are out of scope.

A name that only tests reach either goes, or is entered in :data:`KEPT`
with the reason it stays.  An entry that gains a caller, or whose
definition is gone, must leave :data:`KEPT`, so the list stays exact.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The trees whose code counts as a caller.
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")

#: Public names that only tests reach, each with the reason it stays.
KEPT = {
    # Statements of the paper's quantities, constructions and lemmas.
    "theorem_34_bound": "Theorem 3.4's finite lower bound (bipartite case)",
    "corollary_35_bound": "Corollary 3.5's hypergraph form of that bound",
    "supported_local_lower_bound": "Theorem 3.4's pipeline on a support graph",
    "lemma21_graph": "a concrete stand-in for Lemma 2.1's graph family",
    "xy_relaxation_config_map": "Observation 4.3's relaxation witness",
    "matching_counting_certificate": "Lemmas 4.7–4.9 evaluated on a label-set assignment",
    "classify_matching_nodes": "Lemma 4.8's split of white nodes into M- and P-nodes",
    "check_arbdefective_colored_ruling_set": "§6.1's combined problem, checked",
    "check_half_edge_labeling": "a solution of Π on a plain graph, checked (§2)",
    "count_labeled_graphs": "Appendix C's instance count, exact for tiny n",
    "deterministic_bound_to_randomized": "Lemma C.2's bound transform",
    "sequence_from_family": "a round-elimination sequence from a parametric family",
    "is_fixed_point_up_to_relaxation": "Corollary 5.5's fixed-point requirement",
    "solve_s_solution": "Definition 5.6's S-solutions",
    "bipartite_solvable": "does Π have a bipartite solution on a 2-colored graph",
    "non_bipartite_solvable": "the same question on a hypergraph",
    "is_right_closed": "right-closed label sets of a diagram",
    "collect_view": "the radius-T view of the LOCAL model, the form the proofs use",
    # Test substrates and brute-force oracles.
    "biregular_tree": "substrate: finite (Δ,r)-biregular tree fragments",
    "padded_support_graph": "substrate: Theorem 3.4's padded support graph",
    "linear_uniform_hypergraph": "substrate: linear uniform hypergraphs",
    "greedy_independent_set": "oracle: a greedy maximal independent set",
    "is_independent_set": "oracle: independence, checked directly",
    "sub_multiset_closure": "oracle: the brute-force sub-multiset closure",
    # Public API.
    "simulate": "public API: the façade's raw (result, measurement) entry point",
    "condensed": "public API: shorthand for condensed configurations",
    "parse_configuration": "public API: parses one plain configuration",
    "canonical_digest": "public API: a problem's content address",
    "describe": "public API: everything the façade knows about one spec",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions() -> dict[str, str]:
    """Undecorated public top-level functions and classes of ``src/``:
    name → the first module defining it."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in _parse(path).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not node.decorator_list
            ):
                found.setdefault(node.name, path.relative_to(ROOT).as_posix())
    return found


def _from_repro(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "repro"


def _repro_bindings(module: ast.Module) -> set[str]:
    """The names a module binds by importing from ``repro``."""
    bound: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            bound.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if _from_repro(alias.name)
            )
        elif isinstance(node, ast.ImportFrom) and _from_repro(node.module):
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound


def _chain_root(node: ast.Attribute) -> ast.expr:
    root = node.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return root


def _references() -> set[str]:
    """Every name the code of :data:`CALLER_TREES` mentions."""
    names: set[str] = set()
    for tree in CALLER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            reexports = path.name == "__init__.py"
            module = _parse(path)
            imported = _repro_bindings(module)
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    root = _chain_root(node)
                    if isinstance(root, ast.Name) and root.id in imported:
                        names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(alias.name for alias in node.names)
    return names


@pytest.fixture(scope="module")
def scan() -> tuple[dict[str, str], set[str]]:
    return _definitions(), _references()


def test_every_test_only_name_is_kept_with_a_reason(scan):
    definitions, references = scan
    unexplained = sorted(
        f"{name} ({module})"
        for name, module in definitions.items()
        if name not in references and name not in KEPT
    )
    assert not unexplained, (
        "public names that only tests reach: delete them, or enter them in "
        f"KEPT with the reason they stay: {unexplained}"
    )


def test_kept_names_exist_and_have_no_caller(scan):
    definitions, references = scan
    gone = sorted(name for name in KEPT if name not in definitions)
    called = sorted(name for name in KEPT if name in references)
    assert not gone, f"KEPT names no public top-level definition: {gone}"
    assert not called, f"KEPT entries now have callers; drop them: {called}"
