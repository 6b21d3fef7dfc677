"""Array-backed node maps and solution sets.

The oracle is the plain Python object each view stands for: a dict, a
set of nodes, a set of frozenset pairs.  Views must compare and
serialize equal to it (the report-bytes grid is
``tests/checkers/test_checkers.py::TestArrayEncoderBytes``).
"""

import gc
import weakref

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.api.types import ProblemSpec
from repro.local import Network
from repro.local.dense import NodeSet, NodeValues, PairSet, dense_values
from repro.utils.serialization import canonical_dumps, to_jsonable


def _path_network(labels) -> Network:
    graph = nx.path_graph(len(labels))
    return Network(graph=nx.relabel_nodes(graph, dict(enumerate(labels))))


class TestNodeValues:
    def test_equals_the_dict_it_stands_for(self):
        network = _path_network(["b", "a", "c"])
        values = NodeValues(network, np.array([3, -1, 5]), lambda v: v if v >= 0 else None)
        expected = {"b": 3, "a": None, "c": 5}
        assert values == expected and expected == values
        assert list(values) == ["b", "a", "c"]
        assert list(values.items()) == list(expected.items())
        assert list(values.values()) == [3, None, 5]
        assert values["c"] == 5 and len(values) == 3
        with pytest.raises(KeyError):
            values["x"]

    def test_builds_no_index_until_looked_up(self):
        network = api.family_network(ProblemSpec.parse("mis:delta=3"), n=20, seed=0)
        values = NodeValues(network, np.arange(network.n))
        assert list(values.values()) == list(range(network.n))
        assert network._index is None
        assert values[5] == 5 and network._index is not None

    def test_dense_values_decodes_each_distinct_entry_once(self):
        network = _path_network([0, 1, 2, 3])
        calls = []

        def decode(code):
            calls.append(code)
            return "white" if code == 0 else "black"

        values = NodeValues(network, np.array([0, 1, 1, 0]), decode)
        assert dense_values(values, network.nodes).tolist() == [
            "white", "black", "black", "white"
        ]
        assert sorted(calls) == [0, 1]
        plain = dict(values.items())
        assert dense_values(plain, network.nodes).tolist() == list(plain.values())

    def test_serializes_as_the_dict(self):
        network = _path_network([(1, 0), (0, 1)])
        values = NodeValues(network, [True, False])
        assert canonical_dumps(values) == canonical_dumps({(1, 0): True, (0, 1): False})
        assert to_jsonable(values) == {"[1,0]": True, "[0,1]": False}

    def test_vectorized_engine_outputs(self):
        kwargs = dict(algorithm="mis:luby", n=40, seed=3)
        vectorized, _ = api.simulate("mis:delta=3", engine="vectorized", **kwargs)
        reference, _ = api.simulate("mis:delta=3", engine="object", **kwargs)
        assert isinstance(vectorized.outputs, NodeValues)
        assert vectorized.outputs == reference.outputs
        assert list(vectorized.outputs.items()) == list(reference.outputs.items())


class TestDenseSets:
    def test_node_set_is_a_set(self):
        network = _path_network(["x", "y", "z", "w"])
        members = NodeSet(network, np.array([2, 0]))
        assert members == {"z", "x"} and {"x", "z"} == members
        assert list(members) == ["z", "x"]
        assert "x" in members and "y" not in members and len(members) == 2
        assert members | {"w"} == frozenset("xzw")
        assert members != {"x"}

    def test_pair_set_is_a_set_of_frozensets(self):
        network = _path_network([5, 6, 7, 8])
        pairs = PairSet(network, np.array([[1, 0], [2, 3]]))
        expected = {frozenset((5, 6)), frozenset((7, 8))}
        assert pairs == expected and expected == pairs
        assert pairs._frozen is None
        assert frozenset((6, 5)) in pairs and frozenset((6, 7)) not in pairs
        assert set(pairs) == expected

    def test_a_kept_report_does_not_keep_the_network(self):
        # A daemon keeps records while it solves the next request; a set
        # holding the network would pin the graph and fragment the heap.
        spec = ProblemSpec.parse("matching:delta=3,x=0,y=1")
        network = api.family_network(spec, n=40, seed=0)
        report = api.solve(spec, algorithm="matching:proposal", network=network)
        alive = weakref.ref(network)
        del network
        gc.collect()
        assert alive() is None and len(report.outputs) > 0

    def test_solve_outputs_are_array_backed_on_both_engines(self):
        for engine in ("object", "vectorized"):
            report = api.solve(
                "matching:delta=3,x=0,y=1", algorithm="matching:proposal",
                engine=engine, n=60, seed=1,
            )
            assert isinstance(report.outputs, PairSet), engine
            mis = api.solve("mis:delta=3", algorithm="mis:luby", engine=engine, n=60)
            assert isinstance(mis.outputs, NodeSet), engine


class TestLabelArrays:
    def test_labels_take_the_arithmetic_path(self):
        cover = api.family_network(
            ProblemSpec.parse("matching:delta=3,x=0,y=1"), n=30, seed=0
        )
        values, sides = cover.label_arrays()
        assert list(zip(values.tolist(), sides.tolist())) == list(cover.nodes)
        report = api.solve(
            "matching:delta=3,x=0,y=1", algorithm="matching:proposal", network=cover
        )
        assert report.outputs.labels is cover.label_arrays()
        regular = api.family_network(ProblemSpec.parse("mis:delta=3"), n=30, seed=0)
        values, sides = regular.label_arrays()
        assert values.tolist() == list(regular.nodes) and sides is None
        assert _path_network(["a", "b"]).label_arrays() is None
        assert _path_network([(1, 10), (2, 0)]).label_arrays() is None
        assert _path_network([True, 2]).label_arrays() is None
        assert _path_network([-1, 2]).label_arrays() is None


class TestSplicing:
    def test_nested_and_reordered_placeholders(self):
        network = _path_network([3, 12, 1, 20])
        first = NodeSet(network, np.array([0, 1]))
        second = PairSet(network, np.array([[2, 1], [3, 0]]))
        plain = {"z": [set(first), {"k": set(second)}], "a": set(second)}
        dense = {"z": [first, {"k": second}], "a": second}
        assert canonical_dumps(dense) == canonical_dumps(plain)
        assert canonical_dumps(dense, indent=2) == canonical_dumps(plain, indent=2)

    def test_a_string_spelling_a_placeholder(self):
        network = _path_network([3, 12, 1])
        dense = NodeSet(network, np.array([2, 0]))
        for decoy in ("\0" + "0" + "\0", "\0" + "7" + "\0"):
            plain_text = canonical_dumps({"s": decoy, "m": {1, 3}})
            assert canonical_dumps({"s": decoy, "m": dense}) == plain_text
