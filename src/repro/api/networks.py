"""Default benchmark networks for each problem family.

:func:`repro.api.solve` can be called with just a problem spec — no graph
— and still return a meaningful report; this module supplies the network
it runs on.  Each family gets a seeded random substrate shaped like the
paper's experiments use it: matchings run on 2-colored bipartite double
covers, sinkless orientation on a min-degree-2 graph (a tree component
admits no sinkless orientation), everything else on a random Δ-regular
graph.

The networks are built as arrays, never through networkx, yet equal
``Network(graph=nx.random_regular_graph(Δ, n, seed))`` and its
``bipartite_double_cover`` to the adjacency order:

* the base graph's edges come from :func:`random_regular_edges`, which
  replays networkx's generator draw for draw;
* the double cover is index arithmetic: node ``(v, s)`` sits at dense
  index ``2v + s`` with color ``s``, and base edge ``{u, v}`` becomes
  ``(u,0)–(v,1)`` then ``(v,0)–(u,1)`` in base ``G.edges`` order;
* the IDs 1..n rank the labels in ``str`` order by arithmetic
  (:func:`str_rank`);
* the CSR, which fixes the ports, is built with the network.

The networkx graph and the port maps are built only if a consumer asks
(see :class:`~repro.local.network.Network`).
"""

from __future__ import annotations

import numpy as np

from repro.api.types import ProblemSpec
from repro.graphs.regular import random_regular_edges
from repro.local.dense import str_rank
from repro.local.network import Network

#: Node count used when the caller gives neither a graph nor ``n``.
DEFAULT_N = 64


def _feasible(n: int, degree: int) -> int:
    """``n`` raised to the nearest size a ``degree``-regular graph has
    (n > degree and n·degree even)."""
    n = max(n, degree + 1)
    return n + (n * degree) % 2


def _random_regular(n: int, degree: int, seed: int) -> Network:
    """A seeded random ``degree``-regular network on ~``n`` nodes."""
    n = _feasible(n, degree)
    values = np.arange(n, dtype=np.int64)
    return Network.from_arrays(
        tuple(range(n)),
        random_regular_edges(degree, n, seed),
        ids=str_rank(values) + 1,
        labels=(values, None),
    )


def _double_cover(n: int, degree: int, seed: int) -> Network:
    """The bipartite double cover of a random ``degree``-regular graph
    on ~``n`` base nodes."""
    n = _feasible(n, degree)
    edges = random_regular_edges(degree, n, seed)
    # Base G.edges visits each node's higher neighbors in adjacency
    # order, which is the edge order among edges sharing a lower end.
    u, v = edges[np.argsort(edges[:, 0], kind="stable")].T
    cover = np.empty((2 * u.shape[0], 2), dtype=np.int64)
    cover[0::2, 0], cover[0::2, 1] = 2 * u, 2 * v + 1
    cover[1::2, 0], cover[1::2, 1] = 2 * v, 2 * u + 1
    base = np.repeat(np.arange(n, dtype=np.int64), 2)
    sides = np.tile(np.array([0, 1], dtype=np.int64), n)
    return Network.from_arrays(
        tuple((node, side) for node in range(n) for side in (0, 1)),
        cover,
        ids=str_rank(base, sides) + 1,
        colors=sides,
        labels=(base, sides),
    )


def family_network(spec: ProblemSpec, *, n: int | None, seed: int) -> Network:
    """The default network for ``spec``'s family, on ~``n`` nodes."""
    n = DEFAULT_N if n is None else n
    delta = spec.param("delta", 3)
    if spec.family in ("matching", "maximal-matching"):
        # The §4 experiments run on 2-colored double covers; halve the
        # base graph so the cover lands on ~n nodes.
        return _double_cover(max(n // 2, delta + 1), delta, seed)
    if spec.family in ("sinkless-orientation", "sinkless-coloring"):
        return _random_regular(n, max(delta, 2), seed)
    return _random_regular(n, delta, seed)
