"""Certified graph generators — the Lemma 2.1 substrate.

Lemma 2.1 ([Alo10]) asserts the *existence* of Δ-regular n-node graphs
with girth ≥ ε·log_Δ n and independence number ≤ α·n·log Δ/Δ.  The paper
never needs to construct them — existence feeds a non-constructive
counting argument.  To run the arguments on concrete instances we replace
the existence proof by randomized search with certification: sample random
regular graphs, certify girth exactly, and (for small n) certify the
independence number exactly.  The downstream lemmas consume only the
certified interface, so the substitution preserves their behaviour
(see DESIGN.md, "Substitutions").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graphs.girth import exact_girth
from repro.graphs.independence import exact_independence_number
from repro.utils import GraphConstructionError

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class CertifiedGraph:
    """A graph with machine-checked girth / independence certificates."""

    graph: nx.Graph
    degree: int
    girth: float
    independence_number: int | None

    @property
    def n(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def independence_ratio(self) -> float | None:
        """α(G)/n, compared against Lemma 2.1's α·logΔ/Δ target."""
        if self.independence_number is None:
            return None
        return self.independence_number / self.n


def random_regular_with_girth(
    n: int,
    degree: int,
    min_girth: int,
    seed: int = 0,
    attempts: int = 400,
    certify_independence: bool = True,
    independence_node_limit: int = 64,
) -> CertifiedGraph:
    """Sample random Δ-regular graphs until one meets the girth target.

    Raises :class:`GraphConstructionError` when the budget runs out —
    callers must lower the target or raise n, never silently accept an
    uncertified graph.
    """
    import networkx as nx

    if n * degree % 2 != 0:
        raise GraphConstructionError(
            f"n·Δ must be even for a Δ-regular graph (n={n}, Δ={degree})"
        )
    if degree >= n:
        raise GraphConstructionError(f"need Δ < n (Δ={degree}, n={n})")
    rng = random.Random(seed)
    for _attempt in range(attempts):
        graph = nx.random_regular_graph(degree, n, seed=rng.randrange(2**31))
        if not nx.is_connected(graph):
            continue
        girth = exact_girth(graph)
        if girth >= min_girth:
            independence = None
            if certify_independence and n <= independence_node_limit:
                independence = exact_independence_number(
                    graph, node_limit=independence_node_limit
                )
            return CertifiedGraph(
                graph=graph,
                degree=degree,
                girth=girth,
                independence_number=independence,
            )
    raise GraphConstructionError(
        f"no connected {degree}-regular graph on {n} nodes with girth ≥ "
        f"{min_girth} found in {attempts} attempts (seed {seed})"
    )


def lemma21_graph(
    n: int, degree: int, seed: int = 0, epsilon: float = 0.5
) -> CertifiedGraph:
    """A concrete stand-in for Lemma 2.1's family.

    Targets girth ≥ max(5, ε·log_Δ n) (the asymptotic form, floored at 5
    so the certificate is non-trivial at small n).
    """
    if degree < 2:
        raise GraphConstructionError(f"Lemma 2.1 needs Δ ≥ 2, got {degree}")
    target = max(5, math.floor(epsilon * math.log(max(n, 2)) / math.log(max(degree, 2))))
    return random_regular_with_girth(n, degree, min_girth=target, seed=seed)


def biregular_tree(white_degree: int, black_degree: int, depth: int) -> nx.Graph:
    """A finite (Δ,r)-biregular tree fragment, 2-colored.

    Theorem 3.4 pads support graphs with such trees to hit an exact node
    count; interior nodes have full degree, leaves fewer.
    """
    import networkx as nx

    graph = nx.Graph()
    root = 0
    graph.add_node(root, color="white")
    next_id = 1
    frontier = [(root, "white", 0)]
    while frontier:
        node, color, level = frontier.pop()
        if level >= depth:
            continue
        if color == "white":
            wanted, child_color = white_degree, "black"
        else:
            wanted, child_color = black_degree, "white"
        existing = graph.degree(node)
        for _ in range(wanted - existing):
            child = next_id
            next_id += 1
            graph.add_node(child, color=child_color)
            graph.add_edge(node, child)
            frontier.append((child, child_color, level + 1))
    return graph


def padded_support_graph(core: nx.Graph, total_nodes: int) -> nx.Graph:
    """Theorem 3.4's padding: core ⊔ a tree filler with ``total_nodes`` nodes.

    The filler is a path (degrees ≤ 2 ≤ Δ, r), disjoint from the core; the
    lower bound only needs the core component's properties.
    """
    import networkx as nx

    n_core = core.number_of_nodes()
    if total_nodes < n_core:
        raise GraphConstructionError(
            f"cannot pad a {n_core}-node core down to {total_nodes} nodes"
        )
    graph = nx.Graph(core)
    filler = total_nodes - n_core
    previous = None
    for index in range(filler):
        node = ("pad", index)
        color = "white" if index % 2 == 0 else "black"
        graph.add_node(node, color=color)
        if previous is not None:
            graph.add_edge(previous, node)
        previous = node
    return graph
