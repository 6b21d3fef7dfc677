"""The numpy replay of CPython's Mersenne Twister.

The oracle is ``random.Random`` itself: replayed states equal
``getstate()``, replayed draws equal ``random()`` and the replayed master
stream equals ``randrange(2**63)``, bit for bit.
"""

import random
import warnings

import networkx as nx
import numpy as np
import pytest

from repro import api
from repro.algorithms.mis import luby_rng_streams
from repro.local import Network, mersenne
from repro.local.mersenne import random_draws, randrange63, seed_states

#: Key lengths 1 and 2 at their edges, then random 63-bit seeds.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
SEEDS = EDGE_SEEDS + [random.Random(5).getrandbits(63) for _ in range(1000)]


@pytest.fixture(autouse=True)
def _no_overflow_warnings():
    # A Python int operand or an overflowing numpy scalar would warn (or
    # promote differently under NumPy 1.x); every operand is a uint32.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _reference(seed: int, count: int) -> list[float]:
    rng = random.Random(seed)
    return [rng.random() for _ in range(count)]


class TestSeedStates:
    def test_equal_getstate(self):
        states = seed_states(np.array(SEEDS, dtype=np.uint64))
        assert states.dtype == np.uint32 and states.shape == (624, len(SEEDS))
        expected = np.array(
            [random.Random(seed).getstate()[1][:624] for seed in SEEDS], dtype=np.uint32
        )
        np.testing.assert_array_equal(states.T, expected)

    def test_temper_keeps_uint32(self):
        words = seed_states(np.array(EDGE_SEEDS, dtype=np.uint64))
        assert mersenne.temper(words).dtype == np.uint32


class TestRandomDraws:
    #: Draws 0-15, both sides of the twist's first block boundary (draw
    #: 113 reads words 226 and 227) and of the second twist (draw 312).
    WINDOWS = [(0, 16), (112, 2), (311, 2)]

    @pytest.mark.parametrize("first,count", WINDOWS)
    def test_equal_random(self, first, count, monkeypatch):
        # 97-lane chunks: the 1,005 seeds span 11 of them, the last short.
        monkeypatch.setattr(mersenne, "CHUNK_LANES", 97)
        draws = random_draws(np.array(SEEDS, dtype=np.uint64), first, count)
        assert draws.shape == (len(SEEDS), count)
        for seed, row in zip(SEEDS, draws.tolist()):
            assert row == _reference(seed, first + count)[first:], seed

    def test_across_real_chunks(self):
        rng = random.Random(6)
        seeds = [rng.getrandbits(63) for _ in range(2 * mersenne.CHUNK_LANES + 5)]
        draws = random_draws(np.array(seeds, dtype=np.uint64), 0, 1)
        assert draws[:, 0].tolist() == [random.Random(seed).random() for seed in seeds]

    def test_empty(self):
        assert random_draws(np.array([], dtype=np.uint64), 0, 3).shape == (0, 3)
        assert random_draws(np.array(EDGE_SEEDS, dtype=np.uint64), 5, 0).shape == (5, 0)


class TestRandrange63:
    @pytest.mark.parametrize("seed", [0, 1, -7, 2**70 + 3, 123456789])
    @pytest.mark.parametrize("count", [0, 1, 2, 1000])
    def test_equal_randrange(self, seed, count):
        rng = random.Random(seed)
        expected = [rng.randrange(2**63) for _ in range(count)]
        replayed = randrange63(seed, count)
        assert replayed.dtype == np.int64
        assert replayed.tolist() == expected


class TestRandomStreams:
    @pytest.mark.parametrize("spec", ["mis:delta=3", "matching:delta=3,x=0,y=1"])
    def test_per_node_generators_follow_str_order(self, spec):
        # Int labels and (int, side) labels: str order is not numeric.
        network = api.family_network(api.ProblemSpec.parse(spec), n=40, seed=1)
        streams = luby_rng_streams(network, 3)
        master = random.Random(3)
        for node in sorted(network.nodes, key=str):
            expected = random.Random(master.randrange(2**63))
            assert streams(node).getstate() == expected.getstate()

    def test_labels_without_arrays_rank_by_str(self):
        network = Network(graph=nx.relabel_nodes(nx.cycle_graph(12), lambda v: f"v{v}"))
        assert network.label_arrays() is None
        streams = luby_rng_streams(network, -9)
        master = random.Random(-9)
        for node in sorted(network.nodes, key=str):
            expected = random.Random(master.randrange(2**63))
            assert streams(node).getstate() == expected.getstate()

    def test_draws_equal_per_node_generators_in_any_order(self):
        network = api.family_network(api.ProblemSpec.parse("mis:delta=3"), n=40, seed=1)
        streams = luby_rng_streams(network, 3)
        generators = [streams(node) for node in network.nodes]
        expected = np.array([[g.random() for _ in range(12)] for g in generators])
        lanes = np.arange(network.n)
        # Phase order with shrinking lanes, a later phase past the table
        # (a refill), a phase before the refill and a repeat.
        for index, chosen in [
            (0, lanes), (1, lanes[::2]), (2, lanes[::4]), (9, lanes[::8]),
            (3, lanes[::3]), (10, lanes[::8]), (0, lanes[5:9]), (11, lanes[:0]),
        ]:
            drawn = streams.draw(index, chosen)
            assert drawn.tolist() == expected[chosen, index].tolist(), index

    def test_engines_agree_across_chunks(self, monkeypatch):
        monkeypatch.setattr(mersenne, "CHUNK_LANES", 7)
        reports = [
            api.solve("mis:delta=4", algorithm="mis:luby", engine=engine, n=300, seed=seed)
            for seed in (0, 5)
            for engine in ("object", "vectorized")
        ]
        assert reports[0].canonical_json() == reports[1].canonical_json()
        assert reports[2].canonical_json() == reports[3].canonical_json()


@pytest.mark.fuzz
class TestReplayOracle:
    def test_draws_up_to_index_700(self):
        rng = random.Random(20)
        seeds = [rng.getrandbits(63) for _ in range(10_000)]
        # Windows across the first twist (311/312), the second (623/624)
        # and up to draw 700.
        windows = [(0, 4), (305, 15), (618, 83)]
        replayed = [
            random_draws(np.array(seeds, dtype=np.uint64), first, count).tolist()
            for first, count in windows
        ]
        for lane, seed in enumerate(seeds):
            expected = _reference(seed, 701)
            for (first, count), draws in zip(windows, replayed):
                assert draws[lane] == expected[first : first + count], (seed, first)

    def test_master_stream(self):
        rng = random.Random(21)
        seeds = [rng.randrange(-(2**40), 2**40) for _ in range(8)]
        seeds += [rng.getrandbits(200) - 2**199 for _ in range(8)]
        for seed in seeds:
            count = int(10 ** rng.uniform(0, 5))
            master = random.Random(seed)
            expected = [master.randrange(2**63) for _ in range(count)]
            assert randrange63(seed, count).tolist() == expected, (seed, count)
