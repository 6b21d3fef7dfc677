"""Random regular graphs as edge arrays, replaying networkx exactly.

:func:`random_regular_edges` returns the edges
``nx.random_regular_graph(d, n, seed)`` adds to its graph, in the order
it adds them, without building the graph.  It runs networkx's algorithm
(the pairing model of [Steger–Wormald 1999] with retries) on the same
``random.Random(seed)`` and the same stub list, so every random draw is
networkx's by construction; only the bookkeeping of the first pairing
pass, which touches every stub, runs in numpy.

Records depend on the edge order, not just the edge set: the adjacency
order of the graph built from these edges decides ``G.edges`` order, the
double cover's layout and every traversal that walks ``G.neighbors``.
The replay is therefore tested against networkx itself, and a networkx
release that changed its generator fails that test instead of silently
changing records.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import chain

import numpy as np


def _suitable(edges: set, potential_edges: dict) -> bool:
    """networkx's check that the leftover stubs can still pair up,
    statement for statement (its swap inside the inner loop included:
    the verdict decides whether a retry draws more random bits)."""
    if not potential_edges:
        return True
    for s1 in potential_edges:
        for s2 in potential_edges:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _pairing_pass(stubs: list, n: int, edges: set) -> dict:
    """Pair consecutive ``stubs``; add each new simple pair to ``edges``.

    Returns networkx's ``potential_edges``: stub → count over the
    rejected pairs (self-loops, pairs already in ``edges`` and repeats
    within the pass), keyed in first-seen order.  A pair is kept iff it
    is no self-loop, not in ``edges`` before the pass, and the first
    occurrence of its key in the pass, which is exactly the pairs
    networkx's one-at-a-time loop keeps, added in the same order.
    """
    pairs = np.array(stubs, dtype=np.int64).reshape(-1, 2)
    pairs.sort(axis=1)
    key = pairs[:, 0] * n + pairs[:, 1]
    key[pairs[:, 0] == pairs[:, 1]] = -1
    kept = np.zeros(key.shape[0], dtype=bool)
    kept[np.unique(key, return_index=True)[1]] = True
    kept &= key >= 0
    candidates = np.flatnonzero(kept)
    new = list(zip(pairs[candidates, 0].tolist(), pairs[candidates, 1].tolist()))
    if edges:
        # Only leftover passes get here, on a few stubs.
        fresh = [pair not in edges for pair in new]
        kept[candidates[~np.array(fresh, dtype=bool)]] = False
        new = [pair for pair, is_new in zip(new, fresh) if is_new]
    edges.update(new)
    potential_edges: dict = defaultdict(int)
    for stub in pairs[~kept].ravel().tolist():
        potential_edges[stub] += 1
    return potential_edges


def _try_creation(rng: random.Random, d: int, n: int) -> set | None:
    """One attempt of networkx's ``_try_creation``: the edge set, or
    ``None`` when the leftover stubs cannot pair up."""
    edges: set = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        potential_edges = _pairing_pass(stubs, n, edges)
        if not _suitable(edges, potential_edges):
            return None
        stubs = [
            node
            for node, potential in potential_edges.items()
            for _ in range(potential)
        ]
    return edges


def random_regular_edges(d: int, n: int, seed: int) -> np.ndarray:
    """The edges of ``nx.random_regular_graph(d, n, seed)`` as an
    ``(m, 2)`` int64 array, each row ``(u, v)`` with ``u < v``.

    Rows come in the order networkx's ``G.add_edges_from(edges)`` sees
    them: the iteration order of its edge set, reproduced by inserting
    the same pairs in the same order into a Python set.  Building a graph
    on nodes ``0..n-1`` in node order and then adding these rows in order
    gives networkx's graph, adjacency order included.  Raises
    networkx's :class:`~networkx.NetworkXError` for an odd ``n·d`` and
    for ``d`` outside ``0 ≤ d < n``.
    """
    if (n * d) % 2 != 0:
        from networkx import NetworkXError

        raise NetworkXError("n * d must be even")
    if not 0 <= d < n:
        from networkx import NetworkXError

        raise NetworkXError("the 0 <= d < n inequality must be satisfied")
    if d == 0:
        return np.empty((0, 2), dtype=np.int64)
    rng = random.Random(seed)
    edges = _try_creation(rng, d, n)
    while edges is None:
        edges = _try_creation(rng, d, n)
    return np.fromiter(
        chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
    ).reshape(-1, 2)
