"""The array replay of ``nx.random_regular_graph`` against networkx itself."""

import networkx as nx
import pytest

from repro.graphs.regular import random_regular_edges


def _replayed(d, n, seed):
    graph = nx.empty_graph(n)
    graph.add_edges_from(map(tuple, random_regular_edges(d, n, seed).tolist()))
    return graph


def _adjacency(graph):
    """Every node's neighbors in adjacency order (dict equality alone
    would ignore the order)."""
    return [(node, list(neighbors)) for node, neighbors in graph.adjacency()]


def _assert_replays(d, n, seed):
    assert _adjacency(_replayed(d, n, seed)) == _adjacency(
        nx.random_regular_graph(d, n, seed=seed)
    )


class TestReplay:
    @pytest.mark.parametrize("d", range(7))
    def test_small_grid_matches_networkx(self, d):
        # Odd n·d and d ≥ n are the error cases, checked below.
        for n in range(d + 1, 30):
            if n * d % 2 == 0:
                for seed in range(4):
                    _assert_replays(d, n, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_retries_match_networkx(self, seed):
        # (3, 6) often fails to pair its leftover stubs: seed 0 takes 7
        # attempts, each drawing more bits from the same stream.
        _assert_replays(3, 6, seed)

    @pytest.mark.parametrize("d,n", [(3, 1000), (4, 2000), (5, 1200), (10, 300)])
    def test_larger_graphs_match_networkx(self, d, n):
        _assert_replays(d, n, seed=7)

    def test_rows_are_ordered_pairs(self):
        edges = random_regular_edges(4, 500, seed=1)
        assert edges.shape == (1000, 2)
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_degree_zero_is_edgeless(self):
        assert random_regular_edges(0, 5, seed=0).shape == (0, 2)
        _assert_replays(0, 5, seed=0)

    @pytest.mark.parametrize("d,n", [(3, 5), (1, 1), (4, 4), (5, 3), (-2, 4)])
    def test_errors_match_networkx(self, d, n):
        with pytest.raises(nx.NetworkXError) as expected:
            nx.random_regular_graph(d, n, seed=0)
        with pytest.raises(nx.NetworkXError) as replayed:
            random_regular_edges(d, n, seed=0)
        assert str(replayed.value) == str(expected.value)


@pytest.mark.fuzz
class TestReplayAtScale:
    """Records come from the replay, not from the installed networkx: a
    networkx release that changed its generator fails here instead of
    changing records silently."""

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_matches_networkx(self, d, n):
        for seed in range(3):
            _assert_replays(d, n, seed)
