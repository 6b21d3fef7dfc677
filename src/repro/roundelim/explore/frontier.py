"""Frontier search over the round elimination problem graph.

Nodes are canonical problems (content-addressed through the
:class:`~repro.roundelim.explore.store.ProblemStore`); moves are the
operators R / R̄ / RE plus bounded *merge* relaxations (quotienting two
labels — every quotient is a label-map relaxation of its source, so
merge children extend lower bound chains soundly).  The search is
breadth-first or best-first (smallest alphabet first), with per-path
depth and total expansion budgets, and classifies every node as it goes
(zero-round solvability, exact / relaxation fixed points).

Determinism contract — the pillar everything else leans on:

* expansion *batches* are chosen by the policy only (whole BFS layer, or
  a fixed-size best-first slice), never by worker count;
* workers run the pure :func:`~repro.roundelim.explore.store.compute_step`
  and return plain dicts; the parent merges results into the store in
  task order, so the visited set, the edge list and the report are
  byte-identical for any ``jobs``;
* a store rooted on disk short-circuits every previously computed step,
  which makes a killed run resumable: re-running expands zero
  already-expanded nodes and reproduces the cold report byte for byte.

After the search, a *linking pass* turns the raw move graph into lower
bound evidence: for every RE edge Π → RE(Π), it searches the visited set
for problems that RE(Π) relaxes onto (label maps first, ordered
configuration maps as the general fallback — the §2 notion) and chains
the resulting steps into candidate :class:`LowerBoundSequence`s, each
re-verified mechanically by :meth:`LowerBoundSequence.verify`.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.formalism.problems import Problem
from repro.roundelim.explore.classify import uniform_zero_round
from repro.roundelim.explore.report import ExplorationReport
from repro.roundelim.explore.store import (
    OPERATORS,
    STATUS_OK,
    WITNESS_NONE,
    ProblemStore,
    _compute_task,
)
from repro.roundelim.operators import DEFAULT_ENGINE
from repro.roundelim.sequences import LowerBoundSequence
from repro.utils import InvalidParameterError, SolverLimitError
from repro.utils.serialization import canonical_dumps

#: Operator budget exploration uses by default: small enough that one
#: blown-up RE step cannot stall a whole search (exhaustion is recorded
#: as a terminal edge, not raised).
DEFAULT_STEP_BUDGET = 200_000

MOVES = OPERATORS + ("merge",)

ORDERS = ("bfs", "min-alphabet")

#: Path-enumeration guard: maximal simple paths can be exponential in a
#: dense step graph, so the DFS stops (deterministically) after this
#: many recorded paths.
MAX_ENUMERATED_PATHS = 512

#: Best-first slice size, fixed so the expansion order does not depend
#: on ``jobs``.
BATCH_SIZE = 4

#: Largest alphabet the quadratic merge move quotients.
MERGE_ALPHABET_CAP = 5

#: Largest alphabet the relaxation-linking pass, the relaxation
#: fixed-point test and sequence verification search over.
LINK_ALPHABET_CAP = 12

#: Longest-path candidates re-verified per search (constant sequences of
#: relaxation fixed points come on top).
MAX_SEQUENCES = 3


@dataclass(frozen=True)
class ExplorationLimits:
    """Hard budgets of one search."""

    max_depth: int = 2
    max_nodes: int = 32

    def __post_init__(self) -> None:
        if self.max_depth < 1 or self.max_nodes < 1:
            raise InvalidParameterError("exploration limits must be >= 1")

    def describe(self) -> dict:
        return {"max_depth": self.max_depth, "max_nodes": self.max_nodes}


@dataclass(frozen=True)
class ExplorationPolicy:
    """Pluggable expansion behaviour.

    ``order`` picks the frontier discipline; ``moves`` the edge kinds;
    ``step_budget`` bounds every operator application; ``engine`` picks
    the RE operators; ``verify_sequences`` re-verifies the extracted
    sequences.  The batch size, the two alphabet caps and the sequence
    count are the module constants above, and zero-round classification
    is always the uniform test; :meth:`describe` writes them all into
    the report's policy block, so a report states every knob it ran
    under.
    """

    order: str = "bfs"
    moves: tuple[str, ...] = ("RE",)
    step_budget: int = DEFAULT_STEP_BUDGET
    engine: str = DEFAULT_ENGINE
    verify_sequences: bool = True

    def __post_init__(self) -> None:
        if self.order not in ORDERS:
            raise InvalidParameterError(
                f"unknown frontier order {self.order!r}; known: {list(ORDERS)}"
            )
        unknown = [move for move in self.moves if move not in MOVES]
        if unknown:
            raise InvalidParameterError(
                f"unknown moves {unknown}; known: {list(MOVES)}"
            )

    def describe(self) -> dict:
        return {
            "order": self.order,
            "moves": list(self.moves),
            "batch_size": BATCH_SIZE,
            "step_budget": self.step_budget,
            "merge_alphabet_cap": MERGE_ALPHABET_CAP,
            "link_alphabet_cap": LINK_ALPHABET_CAP,
            "zero_round": "uniform",
            "max_sequences": MAX_SEQUENCES,
            "verify_sequences": self.verify_sequences,
        }


@dataclass
class _Search:
    """Mutable state of one exploration run (parent process only)."""

    store: ProblemStore
    policy: ExplorationPolicy
    limits: ExplorationLimits
    jobs: int
    nodes: dict[str, dict] = field(default_factory=dict)
    edges: list[dict] = field(default_factory=list)
    expanded: int = 0
    dedup_hits: int = 0
    budget_exhausted_ops: int = 0
    _problem_cache: dict[str, Problem] = field(default_factory=dict)

    def ensure_node(self, digest: str, depth: int, name: str | None = None) -> bool:
        """Register a visited node; True when it is new."""
        node = self.nodes.get(digest)
        if node is not None:
            self.dedup_hits += 1
            return False
        payload = self.store.payload_of(digest)
        self.nodes[digest] = {
            "name": name or digest[:10],
            "depth": depth,
            "alphabet_size": payload["alphabet_size"],
            "white_configs": len(payload["white"]),
            "black_configs": len(payload["black"]),
            "expanded": False,
        }
        return True

    def problem(self, digest: str) -> Problem:
        cached = self._problem_cache.get(digest)
        if cached is None:
            cached = self.store.problem_of(digest, name=self.nodes[digest]["name"])
            self._problem_cache[digest] = cached
        return cached


def _select_batch(search: _Search) -> list[str]:
    """The next expansion batch — a pure function of search state."""
    eligible = [
        digest
        for digest, node in search.nodes.items()
        if not node["expanded"] and node["depth"] < search.limits.max_depth
    ]
    if not eligible:
        return []
    quota = search.limits.max_nodes - search.expanded
    if quota <= 0:
        return []
    if search.policy.order == "bfs":
        layer = min(search.nodes[digest]["depth"] for digest in eligible)
        batch = sorted(
            digest for digest in eligible if search.nodes[digest]["depth"] == layer
        )
    else:  # min-alphabet best-first
        batch = sorted(
            eligible,
            key=lambda digest: (
                search.nodes[digest]["alphabet_size"],
                digest,
            ),
        )[:BATCH_SIZE]
    return batch[:quota]


def _operator_moves(policy: ExplorationPolicy) -> list[str]:
    return [move for move in policy.moves if move in OPERATORS]


def _compute_missing(search: _Search, batch: Sequence[str]) -> None:
    """Fill the store with every operator result the batch needs.

    Cache misses are shipped to a worker pool (when ``jobs > 1``); the
    parent records results in task order, so the store contents after
    this call do not depend on worker scheduling.
    """
    tasks = []
    for digest in batch:
        for op in _operator_moves(search.policy):
            if search.store.lookup(digest, op, search.policy.step_budget) is None:
                tasks.append((digest, op))
    if not tasks:
        return
    arguments = [
        (
            search.store.payload_of(digest),
            op,
            search.policy.step_budget,
            search.policy.engine,
        )
        for digest, op in tasks
    ]
    # Daemonic workers (e.g. the experiments runner's own pool) cannot
    # fork children; computing serially there changes wall-clock only —
    # outcomes, merge order and the report are identical by contract.
    use_pool = (
        search.jobs > 1
        and len(arguments) > 1
        and not multiprocessing.current_process().daemon
    )
    if use_pool:
        with multiprocessing.Pool(
            processes=min(search.jobs, len(arguments))
        ) as pool:
            outcomes = pool.map(_compute_task, arguments)
    else:
        outcomes = [_compute_task(argument) for argument in arguments]
    for (digest, op), outcome in zip(tasks, outcomes):
        search.store.stats.computed += 1
        search.store.record(digest, op, search.policy.step_budget, outcome)


def _merge_children(problem: Problem) -> list[tuple[str, Problem]]:
    """All single-pair label quotients, tagged by canonical indices.

    Mapping label ``xi`` onto ``xj`` yields a problem every solution of
    the original rewrites into — a label-map relaxation by construction.
    Only unordered pairs are generated: the ``j → i`` quotient is the
    ``i → j`` one with the surviving label respelled, so both intern to
    the same digest.
    """
    labels = sorted(problem.alphabet, key=lambda lab: (len(lab), lab))
    children = []
    for i, source in enumerate(labels):
        for j in range(i + 1, len(labels)):
            target = labels[j]
            quotient = Problem.from_constraints(
                white=problem.white.map_labels({source: target}),
                black=problem.black.map_labels({source: target}),
                name=f"merge({problem.name})",
            )
            children.append((f"merge:{i}+{j}", quotient))
    return children


def _expand(search: _Search, digest: str) -> None:
    """Apply every enabled move to one node, recording edges and children."""
    node = search.nodes[digest]
    depth = node["depth"]
    for op in _operator_moves(search.policy):
        entry = search.store.apply(
            digest, op, search.policy.step_budget, engine=search.policy.engine
        )
        edge = {"source": digest, "move": op, "status": entry["status"],
                "target": entry["child"]}
        search.edges.append(edge)
        if entry["status"] != STATUS_OK:
            search.budget_exhausted_ops += 1
            continue
        search.ensure_node(entry["child"], depth + 1)
    if "merge" in search.policy.moves and node["alphabet_size"] <= MERGE_ALPHABET_CAP:
        problem = search.problem(digest)
        for move, quotient in _merge_children(problem):
            child = search.store.intern(quotient)
            search.edges.append(
                {"source": digest, "move": move, "status": STATUS_OK,
                 "target": child.digest}
            )
            search.ensure_node(child.digest, depth + 1)
    node["expanded"] = True
    search.expanded += 1


def _classify(search: _Search) -> None:
    """Zero-round and fixed-point classification of every visited node."""
    for digest in sorted(search.nodes):
        node = search.nodes[digest]
        node["zero_round"] = uniform_zero_round(search.problem(digest))
        # apply(), not lookup(): a tiny LRU may have evicted the RE memo
        # entry by now, and classification must not degrade with store
        # capacity (the report depends only on roots/policy/limits).
        re_entry = (
            search.store.apply(
                digest, "RE", search.policy.step_budget,
                engine=search.policy.engine,
            )
            if node["expanded"] and "RE" in search.policy.moves
            else None
        )
        if re_entry is None or re_entry["status"] != STATUS_OK:
            node["exact_fixed_point"] = None
            node["relaxation_fixed_point"] = None
            continue
        node["exact_fixed_point"] = re_entry["child"] == digest
        eliminated_size = search.store.payload_of(re_entry["child"])["alphabet_size"]
        if node["exact_fixed_point"]:
            node["relaxation_fixed_point"] = True
        elif (
            # The label-map search branches over the *eliminated*
            # problem's labels, so both alphabets gate it.
            node["alphabet_size"] <= LINK_ALPHABET_CAP
            and eliminated_size <= LINK_ALPHABET_CAP
        ):
            witness = search.store.relaxation(re_entry["child"], digest)["witness"]
            node["relaxation_fixed_point"] = witness != WITNESS_NONE
        else:
            node["relaxation_fixed_point"] = None


def _merge_adjacency(search: _Search) -> dict[str, list[str]]:
    """source digest → merge-child digests, built once per linking pass."""
    adjacency: dict[str, list[str]] = {}
    for edge in search.edges:
        if edge["move"].startswith("merge:") and edge["target"] is not None:
            adjacency.setdefault(edge["source"], []).append(edge["target"])
    return adjacency


def _merge_reachable(adjacency: dict[str, list[str]], start: str) -> list[str]:
    """Digests reachable from ``start`` through merge edges only."""
    reached: list[str] = []
    seen = {start}
    queue = [start]
    while queue:
        current = queue.pop(0)
        for child in adjacency.get(current, ()):
            if child not in seen:
                seen.add(child)
                reached.append(child)
                queue.append(child)
    return reached


def _link_steps(search: _Search) -> list[dict]:
    """Turn RE edges into lower-bound *steps* via relaxation witnesses.

    A step Π → Π′ certifies that Π′ is a relaxation of RE(Π).  Witness
    kinds, cheapest first: RE(Π) itself (identity), a merge quotient of
    it (label map by construction), a searched label map onto another
    visited problem, or a searched ordered-configuration map (the
    paper's general §2 notion — required e.g. for the Lemma 4.5
    matching steps).  The witness searches run through the store's
    memoized relaxation queries, so a warm run answers them from cache.
    """
    steps: list[dict] = []
    recorded: set[tuple[str, str]] = set()

    def add(source: str, target: str, witness: str) -> None:
        if (source, target) not in recorded:
            recorded.add((source, target))
            steps.append({"source": source, "target": target, "witness": witness})

    merge_adjacency = _merge_adjacency(search)
    for edge in search.edges:
        if edge["move"] != "RE" or edge["status"] != STATUS_OK:
            continue
        source, child = edge["source"], edge["target"]
        add(source, child, "identity")
        for quotient in _merge_reachable(merge_adjacency, child):
            add(source, quotient, "merge")
        if search.nodes[child]["alphabet_size"] > LINK_ALPHABET_CAP:
            continue
        child_payload = search.store.payload_of(child)
        for target in sorted(search.nodes):
            if target == child or (source, target) in recorded:
                continue
            other = search.nodes[target]
            if other["alphabet_size"] > LINK_ALPHABET_CAP:
                continue
            target_payload = search.store.payload_of(target)
            if (
                target_payload["white_arity"] != child_payload["white_arity"]
                or target_payload["black_arity"] != child_payload["black_arity"]
            ):
                continue
            witness = search.store.relaxation(child, target)["witness"]
            if witness != WITNESS_NONE:
                add(source, target, witness)
    return steps


def _longest_paths(steps: Iterable[dict], nodes: Iterable[str]) -> list[list[str]]:
    """Maximal simple paths through the step graph, best first.

    Exhaustive DFS — visited sets are small by construction (the node
    budget), and self-loops (fixed points) are excluded here because
    they are reported as constant sequences instead.
    """
    adjacency: dict[str, list[str]] = {}
    for step in steps:
        if step["source"] != step["target"]:
            adjacency.setdefault(step["source"], []).append(step["target"])
    for targets in adjacency.values():
        targets.sort()
    paths: list[list[str]] = []

    def walk(path: list[str], seen: set[str]) -> None:
        if len(paths) >= MAX_ENUMERATED_PATHS:
            return
        extended = False
        for nxt in adjacency.get(path[-1], ()):
            if nxt not in seen:
                extended = True
                walk(path + [nxt], seen | {nxt})
        if not extended and len(path) > 1:
            paths.append(path)

    for start in sorted(nodes):
        walk([start], {start})
    paths.sort(key=lambda path: (-len(path), path))
    return paths


def _extract_sequences(search: _Search, steps: list[dict]) -> list[dict]:
    """Candidate lower bound sequences, re-verified mechanically."""
    candidates: list[tuple[str, list[str]]] = []
    for path in _longest_paths(steps, search.nodes):
        candidates.append(("path", path))
        if len(candidates) >= MAX_SEQUENCES:
            break
    for digest in sorted(search.nodes):
        if search.nodes[digest].get("relaxation_fixed_point"):
            candidates.append(("constant", [digest, digest, digest]))
    entries = []
    for kind, digests in candidates:
        problems = tuple(search.problem(digest) for digest in digests)
        entry = {
            "kind": kind,
            "digests": list(digests),
            "length": len(digests) - 1,
            "verified": False,
            "verify_skipped": False,
            "witnesses": 0,
        }
        # The witness search of ``verify`` branches over the eliminated
        # problems' labels; past the linking cap it can dwarf the whole
        # search, so oversized chains are reported unverified-by-policy.
        oversized = any(
            len(problem.alphabet) > LINK_ALPHABET_CAP for problem in problems
        )
        if search.policy.verify_sequences and not oversized:
            try:
                witnesses = LowerBoundSequence(problems=problems).verify(
                    budget=search.policy.step_budget, engine=search.policy.engine
                )
                entry["verified"] = True
                entry["witnesses"] = len(witnesses)
            except (ValueError, SolverLimitError):
                entry["verified"] = False
        else:
            entry["verify_skipped"] = True
        entries.append(entry)
    return entries


def explore(
    roots: Sequence[Problem],
    policy: ExplorationPolicy | None = None,
    limits: ExplorationLimits | None = None,
    store: ProblemStore | None = None,
    jobs: int = 1,
) -> ExplorationReport:
    """Search the problem graph reachable from ``roots``.

    ``store`` may be shared across calls (warm memoization) or rooted on
    disk (resumable); ``jobs`` adds worker processes without changing a
    byte of the report.
    """
    if not roots:
        raise InvalidParameterError("exploration needs at least one root problem")
    if jobs < 1:
        raise InvalidParameterError("jobs must be >= 1")
    policy = policy or ExplorationPolicy()
    limits = limits or ExplorationLimits()
    store = store or ProblemStore()
    search = _Search(store=store, policy=policy, limits=limits, jobs=jobs)

    root_digests: list[str] = []
    for problem in roots:
        form = store.intern(problem)
        search.ensure_node(form.digest, depth=0, name=problem.name)
        if form.digest not in root_digests:
            root_digests.append(form.digest)

    while True:
        batch = _select_batch(search)
        if not batch:
            break
        _compute_missing(search, batch)
        for digest in batch:
            _expand(search, digest)

    _classify(search)
    steps = _link_steps(search)
    sequences = _extract_sequences(search, steps)
    # A completed search is a graceful "shutdown" of the store: leave the
    # manifest marker so the next run resumes without an eager sweep.
    store.flush()

    counts = {
        "visited": len(search.nodes),
        "expanded": search.expanded,
        "dedup_hits": search.dedup_hits,
        "budget_exhausted_ops": search.budget_exhausted_ops,
        "edges": len(search.edges),
        "steps": len(steps),
    }
    return ExplorationReport(
        roots=tuple(root_digests),
        policy=policy.describe(),
        limits=limits.describe(),
        nodes=search.nodes,
        edges=tuple(search.edges),
        steps=tuple(steps),
        sequences=tuple(sequences),
        counts=counts,
        store_stats=store.stats.as_dict(),
    )


def reports_identical(first: ExplorationReport, second: ExplorationReport) -> bool:
    """Byte-level equality of two reports' canonical JSON."""
    return canonical_dumps(first.payload()) == canonical_dumps(second.payload())
