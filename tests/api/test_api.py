"""The repro.api façade: spec parsing, registries, solve/check/simulate."""

import networkx as nx
import pytest

from repro import api
from repro.checkers import CheckResult
from repro.graphs import bipartite_double_cover, cage, mark_bipartition
from repro.local import Network, RunResult
from repro.problems.registry import (
    available_families,
    build_problem,
    family_parameters,
    parse_spec,
)
from repro.utils import InvalidParameterError, SimulationError


class TestSpecParsing:
    def test_aliases_resolve_to_constructor_names(self):
        family, params = parse_spec("matching:Δ=4,x=0,y=1")
        assert family == "matching"
        assert params == {"delta": 4, "x": 0, "y": 1}

    def test_plain_names_accepted(self):
        family, params = parse_spec("ruling-set:delta=3,colors=1,beta=2")
        assert (family, params) == ("ruling-set", {"delta": 3, "colors": 1, "beta": 2})

    def test_parameterless_spec(self):
        assert parse_spec("mis") == ("mis", {})

    def test_unknown_family_lists_available(self):
        with pytest.raises(InvalidParameterError) as exc:
            parse_spec("matchings:Δ=4")
        message = str(exc.value)
        for family in available_families():
            assert family in message

    def test_unknown_parameter_lists_expected_names(self):
        with pytest.raises(InvalidParameterError) as exc:
            parse_spec("matching:Δ=4,z=1")
        message = str(exc.value)
        assert "z" in message
        for name in family_parameters("matching"):
            assert name in message

    def test_malformed_item_rejected(self):
        with pytest.raises(InvalidParameterError, match="malformed"):
            parse_spec("matching:Δ4")

    def test_non_integer_value_rejected(self):
        with pytest.raises(InvalidParameterError, match="non-integer"):
            parse_spec("matching:Δ=four")

    def test_duplicate_after_aliasing_rejected(self):
        with pytest.raises(InvalidParameterError, match="twice"):
            parse_spec("matching:Δ=4,delta=5,x=0,y=1")

    def test_build_problem_missing_parameters_lists_expected(self):
        with pytest.raises(InvalidParameterError) as exc:
            build_problem("coloring", delta=3)
        message = str(exc.value)
        assert "delta" in message and "colors" in message

    def test_build_problem_accepts_aliases(self):
        problem = build_problem("arbdefective", **{"Δ": 3, "c": 2})
        assert problem.name.startswith("Π")


class TestProblemSpec:
    def test_parse_and_canonical_render(self):
        spec = api.ProblemSpec.parse("matching:y=1,x=0,Δ=4")
        assert spec.spec == "matching:delta=4,x=0,y=1"
        assert spec.param("delta") == 4
        assert api.ProblemSpec.parse(spec) is spec

    def test_create_with_alias_keywords(self):
        spec = api.ProblemSpec.create("ruling-set", **{"Δ": 3, "c": 1, "β": 2})
        assert spec.parameters == {"delta": 3, "colors": 1, "beta": 2}

    def test_out_of_range_parameters_rejected_at_parse(self):
        """Range violations are caught without building the (exponentially
        expanding) formalism problem."""
        with pytest.raises(InvalidParameterError, match="x \\+ y"):
            api.ProblemSpec.parse("matching:Δ=2,x=2,y=2")
        with pytest.raises(InvalidParameterError, match="out of range"):
            api.ProblemSpec.parse("coloring:Δ=1,c=2")
        with pytest.raises(InvalidParameterError, match="out of range"):
            api.ProblemSpec.parse("ruling-set:Δ=3,c=0,β=1")

    def test_non_string_rejected(self):
        with pytest.raises(InvalidParameterError, match="spec"):
            api.ProblemSpec.parse(42)


class TestRegistries:
    def test_all_six_algorithm_modules_registered(self):
        names = api.available_algorithms()
        assert {
            "matching:proposal",
            "mis:aapr23",
            "mis:luby",
            "coloring:class-sweep",
            "ruling-set:class-sweep",
            "arbdefective:class-sweep",
            "sinkless-orientation:global",
        } <= set(names)

    def test_family_filter(self):
        assert "matching:proposal" in api.available_algorithms("matching")
        assert "matching:proposal" not in api.available_algorithms("mis")
        assert "ruling-set:class-sweep" in api.available_algorithms("mis")

    def test_unknown_algorithm_lists_registered(self):
        with pytest.raises(InvalidParameterError, match="matching:proposal"):
            api.resolve_algorithm("matching:nope")

    def test_register_algorithm_validates(self):
        class Nameless(api.Algorithm):
            name = "no-colon"
            families = ("mis",)

        with pytest.raises(InvalidParameterError, match="family.*variant"):
            api.register_algorithm(Nameless())

        class NoFamilies(api.Algorithm):
            name = "x:y"
            families = ()

        with pytest.raises(InvalidParameterError, match="families"):
            api.register_algorithm(NoFamilies())

    def test_engines_registered(self):
        assert api.available_engines() == ["object", "vectorized"]
        assert api.resolve_engine("object").name == "object"

    def test_unknown_engine_rejected(self):
        with pytest.raises(InvalidParameterError, match="vectorized"):
            api.resolve_engine("gpu")


class TestSolve:
    def test_acceptance_call(self):
        report = api.solve(
            "matching:Δ=4,x=0,y=1",
            algorithm="matching:proposal",
            engine="vectorized",
            seed=0,
        )
        assert isinstance(report, api.SolveReport)
        assert report.valid is True
        assert report.rounds > 0
        assert report.engine == "vectorized"
        assert report.n > 0
        assert report.messages_delivered > 0

    def test_family_algorithm_mismatch_names_compatible(self):
        with pytest.raises(InvalidParameterError) as exc:
            api.solve("mis:Δ=3", algorithm="matching:proposal")
        assert "mis:aapr23" in str(exc.value)

    def test_graph_and_network_are_exclusive(self):
        graph, _d, _g = cage("petersen")
        with pytest.raises(InvalidParameterError, match="not both"):
            api.solve(
                "mis:Δ=3",
                algorithm="mis:aapr23",
                graph=graph,
                network=Network(graph=graph),
            )

    def test_check_false_skips_validation(self):
        report = api.solve(
            "mis:Δ=3", algorithm="mis:aapr23", n=16, check=False
        )
        assert report.valid is None
        assert report.check is None
        assert report.as_record()["valid"] is None

    def test_explicit_graph_used(self):
        graph, _d, _g = cage("petersen")
        report = api.solve("mis:Δ=3", algorithm="mis:aapr23", graph=graph)
        assert report.n == 10
        assert report.valid is True

    def test_options_forwarded(self):
        graph, _d, _g = cage("heawood")
        cover = bipartite_double_cover(graph)
        u, v = next(iter(graph.edges))
        single = frozenset({frozenset(((u, 0), (v, 1)))})
        report = api.solve(
            "maximal-matching:Δ=3",
            algorithm="matching:proposal",
            graph=cover,
            check=False,
            input_edges=single,
        )
        assert report.rounds == 2  # Δ' = 1: one phase of two rounds
        assert report.outputs == single  # the lone input edge gets matched

    @pytest.mark.parametrize(
        "problem,algorithm,options",
        [
            ("arbdefective:Δ=4,c=2", "arbdefective:class-sweep", {"colors": 1}),
            ("ruling-set:Δ=3,c=1,β=1", "ruling-set:class-sweep", {"beta": 3}),
            ("maximal-matching:Δ=3", "matching:proposal", {"input_edge": []}),
        ],
        ids=["colors", "beta", "typo"],
    )
    def test_undeclared_options_rejected(self, problem, algorithm, options):
        """β and c come from the spec only, and an option the algorithm
        does not read is an error, not silently ignored."""
        for entry in (api.solve, api.simulate):
            with pytest.raises(api.SpecError) as exc:
                entry(problem, algorithm=algorithm, n=16, **options)
            assert exc.value.code == "bad-spec"
            accepted = list(api.resolve_algorithm(algorithm).options)
            assert f"accepted options: {accepted}" in str(exc.value)

    def test_input_edges_outside_the_support_graph_rejected(self):
        """The model requires G′ ⊆ G: white–white non-edges of a bipartite
        cover used to count into Δ′ on both engines; now the first
        foreign edge in ``str`` order is named, unhashable ones too."""
        graph, _d, _g = cage("petersen")
        cover = mark_bipartition(bipartite_double_cover(graph))
        whites = sorted(
            (node for node, color in cover.nodes(data="color") if color == "white"),
            key=str,
        )
        foreign = [frozenset(pair) for pair in zip(whites[0:8:2], whites[1:8:2])]
        edges = [frozenset(edge) for edge in sorted(cover.edges, key=str)[:10]]
        for engine in api.available_engines():
            for input_edges, named in (
                (edges + foreign, min(foreign, key=str)),
                ([[[0, 0], [1, 1]]], [[0, 0], [1, 1]]),
            ):
                with pytest.raises(InvalidParameterError) as exc:
                    api.solve(
                        "maximal-matching:Δ=3",
                        algorithm="matching:proposal",
                        engine=engine,
                        graph=cover,
                        input_edges=input_edges,
                    )
                assert api.error_code(exc.value) == "bad-parameter"
                assert f"input edge {named!r} is not an edge" in str(exc.value)

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    @pytest.mark.parametrize(
        "problem,algorithm,options,graph,message",
        [
            (
                "coloring:Δ=2", "coloring:class-sweep",
                {"initial_coloring": {0: 0}}, nx.cycle_graph(4),
                "option 'initial_coloring' has no class for node 1",
            ),
            (
                "ruling-set:Δ=2,β=2", "ruling-set:class-sweep",
                {"coloring": {0: 0}}, nx.cycle_graph(4),
                "option 'coloring' has no class for node 1",
            ),
            (
                "arbdefective:Δ=2,c=2", "arbdefective:class-sweep",
                {"proper_coloring": {0: 0}}, nx.cycle_graph(4),
                "option 'proper_coloring' has no class for node 1",
            ),
            (
                "coloring:Δ=2", "coloring:class-sweep",
                {"initial_coloring": {0: 0, 1: "a", 2: 0, 3: 1}}, nx.cycle_graph(4),
                "gives node 1 the class 'a', which is not an integer",
            ),
            (
                "coloring:Δ=2", "coloring:class-sweep",
                {"initial_coloring": {0: 0, 1: 1.5, 2: 0, 3: 1}}, nx.cycle_graph(4),
                "gives node 1 the class 1.5, which is not an integer",
            ),
            (
                "ruling-set:Δ=2,β=2", "ruling-set:class-sweep",
                {"coloring": {0: 0, 1: 1.5, 2: 0, 3: 1}}, nx.cycle_graph(4),
                "gives node 1 the class 1.5, which is not an integer",
            ),
            (
                "coloring:Δ=2", "coloring:class-sweep",
                {"initial_coloring": [0, 1, 0, 1]}, nx.cycle_graph(4),
                "option 'initial_coloring' must map nodes to classes, got list",
            ),
            (
                "arbdefective:Δ=2,c=2", "arbdefective:class-sweep",
                {"proper_coloring": {0: [0], 1: [1], 2: [0], 3: [1]}},
                nx.cycle_graph(4),
                "option 'proper_coloring' gives node 0 the class [0], "
                "which is not hashable",
            ),
            (
                "coloring:Δ=2", "coloring:class-sweep",
                {"initial_coloring": {0: 0, 1: 2**70, 2: 0, 3: 1}},
                nx.cycle_graph(4),
                f"gives node 1 the class {2**70}, which is outside the int64 range",
            ),
            (
                "ruling-set:Δ=2,β=2", "ruling-set:class-sweep",
                {"coloring": {0: 0, 1: 2**70, 2: 0, 3: 1}}, nx.cycle_graph(4),
                f"gives node 1 the class {2**70}, which is outside the int64 range",
            ),
            (
                "maximal-matching:Δ=2", "matching:proposal",
                {}, nx.cycle_graph(3),
                "graph is not bipartite",
            ),
        ],
        ids=[
            "initial-coloring-missing-node", "coloring-missing-node",
            "proper-coloring-missing-node", "str-class", "fractional-class",
            "fractional-ruling-class", "list-not-map", "unhashable-class",
            "int64-overflow-class", "int64-overflow-ruling-class",
            "odd-cycle-matching",
        ],
    )
    def test_caller_input_refused_before_any_engine_runs(
        self, engine, problem, algorithm, options, graph, message
    ):
        """A caller's coloring must give every node a hashable class, an
        int64 one where the sweep counts rounds by it, and the proposal
        matching needs a 2-colorable graph.  These used to escape as
        ``KeyError``, ``TypeError``, ``AttributeError``, ``OverflowError``
        or networkx's ``NetworkXError`` (all ``internal``), or split the
        engines: a class of 1.5 ran 3 rounds on the object engine and 2 on
        the vectorized one, and a class of 2**70 never halted on the
        object engine."""
        with pytest.raises(InvalidParameterError) as exc:
            api.solve(problem, algorithm=algorithm, engine=engine, graph=graph, **options)
        assert api.error_code(exc.value) == "bad-parameter"
        assert message in str(exc.value)

    def test_proper_coloring_classes_need_not_be_integers(self):
        """The arbdefective sweep only compares and ranks its base classes."""
        proper = {0: "a", 1: "b", 2: "a", 3: "b"}
        reports = [
            api.solve(
                "arbdefective:Δ=2,c=2", algorithm="arbdefective:class-sweep",
                engine=engine, graph=nx.cycle_graph(4), proper_coloring=proper,
            )
            for engine in ("object", "vectorized")
        ]
        assert reports[0].valid is True
        assert reports[0].canonical_json() == reports[1].canonical_json()

    def test_global_algorithm_zero_rounds(self):
        report = api.solve(
            "sinkless-orientation:Δ=3",
            algorithm="sinkless-orientation:global",
            n=16,
        )
        assert report.rounds == 0
        assert report.valid is True
        assert report.messages_delivered == 0

    def test_as_record_excludes_execution_details(self):
        report = api.solve(
            "mis:Δ=3", algorithm="mis:aapr23", n=16
        )
        record = report.as_record()
        assert "engine" not in record
        assert "wall_seconds" not in record
        assert record["rounds"] == report.rounds


def _cycle_with_self_loop():
    graph = nx.cycle_graph(4)
    graph.add_edge(0, 0)
    return graph


class TestNetworkValidation:
    """A network is refused at construction, before either engine runs,
    so both engines report the same text."""

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    def test_self_loop_refused(self, engine):
        with pytest.raises(SimulationError) as error:
            api.solve(
                "mis", algorithm="mis:luby", engine=engine, graph=_cycle_with_self_loop()
            )
        assert str(error.value) == (
            "node 0 has a self-loop; LOCAL networks are simple graphs"
        )

    @pytest.mark.parametrize("engine", ["object", "vectorized"])
    def test_ids_of_other_nodes_refused(self, engine):
        with pytest.raises(SimulationError) as error:
            api.solve(
                "mis",
                algorithm="mis:luby",
                engine=engine,
                network=Network(graph=nx.path_graph(3), ids={"a": 1, "b": 2, "c": 3}),
            )
        assert str(error.value) == "node 0 has no ID"

    def test_check_accepts_bare_graphs_with_self_loops(self):
        graph = _cycle_with_self_loop()
        assert api.check("mis", graph, {0, 2})
        assert api.check("maximal-matching", graph, {frozenset((0, 1)), frozenset((2, 3))})
        verdict = api.check("maximal-matching", graph, {frozenset((1, 2))})
        assert verdict == CheckResult(
            valid=False,
            reason="unmatched node 0 has 1 matched neighbors < min{deg, Δ−x} = 4",
        )


class TestCheck:
    def test_valid_and_invalid_matching(self):
        graph, _d, _g = cage("heawood")
        cover = bipartite_double_cover(graph)
        report = api.solve(
            "maximal-matching:Δ=3", algorithm="matching:proposal", graph=cover
        )
        assert bool(api.check("maximal-matching:Δ=3", cover, report.outputs))
        verdict = api.check("maximal-matching:Δ=3", cover, set())
        assert isinstance(verdict, CheckResult)
        assert not verdict
        assert verdict.reason

    def test_accepts_network(self):
        graph, _d, _g = cage("petersen")
        network = Network(graph=graph)
        mis = api.solve("mis:Δ=3", algorithm="mis:aapr23", network=network)
        assert bool(api.check("mis", network, mis.outputs))

    def test_foreign_member_is_a_failed_check(self):
        graph, _d, _g = cage("petersen")
        mis = api.solve("mis:Δ=3", algorithm="mis:aapr23", graph=graph)
        verdict = api.check("mis", graph, set(mis.outputs) | {"ghost"})
        assert verdict == CheckResult(
            valid=False, reason="S member 'ghost' is not a graph node"
        )

    def test_uncheckable_family_lists_checkable(self):
        with pytest.raises(InvalidParameterError, match="checkable"):
            api.check("outdegree-dominating:Δ=3,α=1", None, set())


class TestSimulate:
    def test_returns_raw_result_and_measurement(self):
        result, measurement = api.simulate(
            "mis:Δ=3", algorithm="mis:aapr23", n=16, seed=3
        )
        assert isinstance(result, RunResult)
        assert measurement.rounds == result.rounds
        assert measurement.messages_delivered > 0

    def test_probe_observer_is_chained(self):
        seen = []
        result, measurement = api.simulate(
            "mis:Δ=3",
            algorithm="mis:aapr23",
            n=16,
            probe=seen.append,
        )
        assert len(seen) == result.rounds
        assert measurement.rounds == result.rounds

    def test_engine_validated(self):
        with pytest.raises(InvalidParameterError, match="unknown engine"):
            api.simulate("mis:Δ=3", algorithm="mis:aapr23", engine="warp", n=16)
