"""Core value types of the :mod:`repro.api` façade.

Three small, dependency-light types shared by the registries, the engines
and the façade functions:

* :class:`ProblemSpec` — a parsed problem specification (family +
  normalized parameters), resolvable to a formalism
  :class:`~repro.formalism.problems.Problem` via the family registry;
* :class:`MessagePassingProgram` — a fully-bound message-passing
  computation (node factory, kernel name, declared knowledge, optional
  randomness), the unit an :class:`~repro.api.engines.Engine` executes;
* :class:`SolveReport` — the unified result of a façade
  :func:`~repro.api.solve` call: rounds, outputs, check result, message
  counters and timing, with a canonical JSON rendering.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.api.errors import SpecError
from repro.checkers import CheckResult
from repro.formalism.problems import Problem
from repro.local.mersenne import RandomStreams
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm, NodeContext
from repro.problems.registry import build_problem, normalize_parameters, parse_spec
from repro.utils import InvalidParameterError
from repro.utils.serialization import canonical_dumps

#: Schema tag stamped into every serialized :class:`SolveReport` record.
#: Version the *payload*, not the class: consumers (the solve service's
#: report cache, the differential oracles, archived BENCH files) must be
#: able to reject records from a future incompatible shape.
REPORT_SCHEMA = "repro.api/report-v1"


@dataclass(frozen=True)
class ProblemSpec:
    """A problem family plus normalized constructor parameters.

    Construct via :meth:`parse` (spec strings like
    ``"matching:Δ=4,x=0,y=1"``) or :meth:`create` (keyword parameters).
    Parameters are stored alias-resolved (``Δ`` → ``delta``) and sorted,
    so equal specs compare and render equal.
    """

    family: str
    params: tuple[tuple[str, int], ...] = ()

    @classmethod
    def parse(cls, problem: "ProblemSpec | str") -> "ProblemSpec":
        """Coerce a spec string (or pass through a ProblemSpec)."""
        if isinstance(problem, ProblemSpec):
            return problem
        if not isinstance(problem, str):
            raise SpecError(
                f"expected a problem spec string or ProblemSpec, "
                f"got {type(problem).__name__}"
            )
        try:
            family, parameters = parse_spec(problem)
        except InvalidParameterError as error:
            raise SpecError(str(error)) from None
        return cls(family=family, params=tuple(sorted(parameters.items())))

    @classmethod
    def create(cls, family: str, **parameters: int) -> "ProblemSpec":
        """Build a spec from a family name and (possibly aliased) keywords."""
        try:
            normalized = normalize_parameters(family, parameters)
        except InvalidParameterError as error:
            raise SpecError(str(error)) from None
        return cls(family=family, params=tuple(sorted(normalized.items())))

    @property
    def parameters(self) -> dict[str, int]:
        return dict(self.params)

    def param(self, name: str, default: int | None = None) -> int | None:
        return self.parameters.get(name, default)

    @property
    def spec(self) -> str:
        """The canonical spec string (sorted, alias-free)."""
        if not self.params:
            return self.family
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.family}:{rendered}"

    def build(self) -> Problem:
        """The formalism problem this spec names (validates parameters)."""
        return build_problem(self.family, **self.parameters)


@dataclass(frozen=True)
class MessagePassingProgram:
    """A bound message-passing computation, ready for any engine.

    ``factory`` builds one :class:`NodeAlgorithm` per node, and
    ``kernel`` names the program's batch form in
    :data:`repro.local.vectorized.KERNELS` (``None``: object engine
    only).  The initial knowledge is declared once, under keys both
    forms read: ``per_node`` maps each key to a node → value map (what
    a node is told about itself) and ``shared`` maps each key to a value
    every node knows.  The object engine hands node ``v``
    ``{**shared, **{key: values[v] for key, values in per_node.items()}}``
    as ``ctx.extra``; kernels read the maps whole.  ``rng_streams`` (for
    randomized algorithms) maps ``(network, seed)`` to the one
    :class:`~repro.local.mersenne.RandomStreams` both engines read: the
    object engine calls it for each node's ``random.Random``, and the
    kernel draws the same values as arrays.  It depends only on the
    network and seed — never on the engine — so every backend draws
    identical randomness.
    """

    factory: Callable[[NodeContext], NodeAlgorithm]
    kernel: str | None = None
    per_node: dict[str, dict] = field(default_factory=dict)
    shared: dict[str, object] = field(default_factory=dict)
    rng_streams: Callable[[Network, int], RandomStreams] | None = None


@dataclass(frozen=True)
class SolveReport:
    """Everything one :func:`repro.api.solve` call observed.

    ``outputs`` is the algorithm's finalized solution (a matching set, a
    color dict, ...), not raw per-node engine outputs.  ``valid`` is the
    check verdict (``None`` when checking was skipped).  ``engine`` and
    ``wall_seconds`` describe *how* the run executed and are excluded
    from :meth:`as_record`, whose canonical JSON must be byte-identical
    across engine backends.
    """

    problem: str
    family: str
    algorithm: str
    engine: str
    seed: int
    n: int
    rounds: int
    outputs: object
    check: CheckResult | None
    messages_delivered: int
    messages_dropped: int
    peak_live_nodes: int
    wall_seconds: float = field(compare=False, default=0.0)

    @property
    def valid(self) -> bool | None:
        """Check verdict: True/False, or None when checking was skipped."""
        return None if self.check is None else bool(self.check)

    def as_record(self) -> dict:
        """The deterministic JSON-ready dict (engine and wall clock excluded)."""
        return {
            "schema": REPORT_SCHEMA,
            "problem": self.problem,
            "family": self.family,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "n": self.n,
            "rounds": self.rounds,
            "outputs": self.outputs,
            "valid": self.valid,
            "check_reason": "" if self.check is None else self.check.reason,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "peak_live_nodes": self.peak_live_nodes,
        }

    def canonical_json(self) -> str:
        """Canonical serialization of :meth:`as_record` (engine-parity key)."""
        return canonical_dumps(self.as_record())

    @classmethod
    def from_record(cls, record: dict) -> "SolveReport":
        """Rebuild a report from a serialized :meth:`as_record` dict.

        The inverse direction of the wire format: encode → decode →
        encode must be byte-stable (``from_record(json.loads(
        report.canonical_json())).canonical_json() ==
        report.canonical_json()`` — the serialization differential
        oracle's property).  ``engine`` and ``wall_seconds`` are
        execution details excluded from records, so they come back as
        ``""``/``0.0``; ``outputs`` come back in their JSON spelling
        (sets as sorted lists), which canonical serialization maps to
        the same bytes.
        """
        if not isinstance(record, dict):
            raise SpecError(
                f"expected a SolveReport record dict, got {type(record).__name__}"
            )
        schema = record.get("schema")
        if schema != REPORT_SCHEMA:
            raise SpecError(
                f"unsupported report schema {schema!r}; expected {REPORT_SCHEMA!r}"
            )
        missing = [
            key
            for key in (
                "problem", "family", "algorithm", "seed", "n", "rounds",
                "outputs", "valid", "check_reason", "messages_delivered",
                "messages_dropped", "peak_live_nodes",
            )
            if key not in record
        ]
        if missing:
            raise SpecError(f"report record is missing fields: {missing}")
        valid = record["valid"]
        check = (
            None
            if valid is None
            else CheckResult(valid=bool(valid), reason=record["check_reason"])
        )
        return cls(
            problem=record["problem"],
            family=record["family"],
            algorithm=record["algorithm"],
            engine="",
            seed=record["seed"],
            n=record["n"],
            rounds=record["rounds"],
            outputs=record["outputs"],
            check=check,
            messages_delivered=record["messages_delivered"],
            messages_dropped=record["messages_dropped"],
            peak_live_nodes=record["peak_live_nodes"],
        )
