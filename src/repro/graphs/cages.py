"""Exact cage-style constructions with known girth.

Cages are the smallest Δ-regular graphs of a given girth; they are the
canonical concrete stand-ins for Lemma 2.1's probabilistic family when we
want exhaustive, certified checks.  Everything here is built from LCF
notation or networkx generators; girth and regularity are re-certified by
the tests rather than trusted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils import GraphConstructionError

if TYPE_CHECKING:
    import networkx as nx

# name → (degree, girth, networkx generator, its arguments).
_LCF_GRAPHS = {
    # (3, 5)-cage: Petersen graph, 10 nodes.
    "petersen": (3, 5, "petersen_graph", ()),
    # (3, 6)-cage: Heawood graph, 14 nodes.
    "heawood": (3, 6, "LCF_graph", (14, [5, -5], 7)),
    # (3, 7)-cage: McGee graph, 24 nodes.
    "mcgee": (3, 7, "LCF_graph", (24, [12, 7, -7], 8)),
    # (3, 8)-cage: Tutte–Coxeter graph, 30 nodes.
    "tutte_coxeter": (3, 8, "LCF_graph", (30, [-13, -9, 7, -7, 9, 13], 5)),
    # Girth-6 bipartite 3-regular alternative: Pappus graph, 18 nodes.
    "pappus": (3, 6, "LCF_graph", (18, [5, 7, -7, 7, -7, -5], 3)),
    # Desargues graph: 3-regular, girth 6, bipartite, 20 nodes.
    "desargues": (3, 6, "LCF_graph", (20, [5, -5, 9, -9], 5)),
    # Dodecahedral graph: 3-regular, girth 5, 20 nodes.
    "dodecahedron": (3, 5, "dodecahedral_graph", ()),
    # Möbius–Kantor graph: 3-regular, girth 6, bipartite, 16 nodes.
    "moebius_kantor": (3, 6, "LCF_graph", (16, [5, -5], 8)),
}


def available_cages() -> list[str]:
    """Names of the certified constructions."""
    return sorted(_LCF_GRAPHS)


def cage(name: str) -> tuple[nx.Graph, int, int]:
    """Return (graph, degree, girth) for a named construction."""
    import networkx as nx

    try:
        degree, girth, generator, arguments = _LCF_GRAPHS[name]
    except KeyError:
        raise GraphConstructionError(
            f"unknown cage {name!r}; available: {available_cages()}"
        ) from None
    return getattr(nx, generator)(*arguments), degree, girth


def cycle(n: int) -> nx.Graph:
    """C_n: the 2-regular graph of girth n — the simplest high-girth family."""
    import networkx as nx

    if n < 3:
        raise GraphConstructionError(f"a cycle needs ≥ 3 nodes, got {n}")
    return nx.cycle_graph(n)
