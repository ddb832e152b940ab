"""Differential test of the exact oracles against networkx.

networkx runs its own flow code on its own auxiliary digraph, so it is
independent of the shared split network in streamvc.oracle. Its
`node_connectivity` takes the same Esfahanian-Hakimi shortcut as
`vertex_connectivity`, so the reference connectivity here is the
definition instead: the minimum local connectivity over all non-adjacent
pairs. The benchmark's exact verdict reference is `is_k_connected`
itself, which is why it needs an outside check.
"""
from __future__ import annotations

from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.connectivity import build_auxiliary_node_connectivity
from networkx.algorithms.flow import build_residual_network

from streamvc.graph import EdgeSet
from streamvc.instances import gen_named, gen_planted_cut
from streamvc.oracle import (
    find_vertex_cut,
    is_k_connected,
    max_vertex_disjoint_paths,
    removal_disconnects,
    vertex_connectivity,
)

from conftest import random_edge_set

NAMED = [
    "complete(2)",
    "complete(6)",
    "cycle(7)",
    "path(6)",
    "star(7)",
    "petersen",
    "hypercube(3)",
    "hypercube(4)",
    "complete_bipartite(3,5)",
    "complete_bipartite(4,4)",
]


def to_nx(g: EdgeSet) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def exhaustive_connectivity(h: nx.Graph) -> int:
    """Minimum local connectivity over all non-adjacent pairs; n-1 if complete."""
    aux = build_auxiliary_node_connectivity(h)
    kw = {"auxiliary": aux, "residual": build_residual_network(aux, "capacity")}
    return min(
        (
            nx.connectivity.local_node_connectivity(h, s, t, **kw)
            for s, t in combinations(h, 2)
            if not h.has_edge(s, t)
        ),
        default=len(h) - 1,
    )


def cut_through_min_degree_vertex(c: int, d: int = 2, m: int = 6) -> EdgeSet:
    """Graph whose minimum-degree vertex 0 lies in its only minimum cut.

    A clique cut S = {0, .., c-1} joins two m-cliques A and B. Vertices
    1..c-1 see all of A and B, vertex 0 only d vertices of each, so
    deg(0) = c - 1 + 2d is the unique minimum for m > 2d. S is the only
    cut of size c, and each non-neighbour of 0 has d + c - 1 > c disjoint
    paths to it: only the pairs of 0's neighbours on opposite sides
    expose kappa = c.
    """
    side_a = list(range(c, c + m))
    side_b = list(range(c + m, c + 2 * m))
    g = EdgeSet(c + 2 * m)
    for group in (list(range(c)), side_a, side_b):
        for i, u in enumerate(group):
            for v in group[i + 1 :]:
                g.add(u, v)
    for x in range(1, c):
        for v in side_a + side_b:
            g.add(x, v)
    for v in side_a[:d] + side_b[:d]:
        g.add(0, v)
    return g


def corpus() -> list[tuple[str, EdgeSet]]:
    graphs = [(name, gen_named(name)) for name in NAMED]
    rng = np.random.default_rng(1984)
    for density in (0.15, 0.3, 0.5, 0.7, 0.9):
        for i in range(12):
            n = int(rng.integers(2, 15))
            graphs.append((f"random p={density} #{i}", random_edge_set(n, density, rng)))
    for n, k, seed in [(10, 2, 1), (12, 3, 2), (13, 4, 3), (14, 3, 4)]:
        graphs.append((f"planted n={n} k={k}", gen_planted_cut(n, k, seed)[0]))
        g, _ = gen_planted_cut(n, k, seed, extra_st_edges=3)
        graphs.append((f"planted+st n={n} k={k}", g))
    for c in (1, 2):
        graphs.append((f"cut through min-degree vertex c={c}", cut_through_min_degree_vertex(c)))
    return graphs


CORPUS = corpus()
IDS = [name for name, _ in CORPUS]


@pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=IDS)
def test_connectivity_matches_networkx(g):
    h = to_nx(g)
    kappa = exhaustive_connectivity(h)
    assert vertex_connectivity(g) == kappa == nx.node_connectivity(h)
    for k in range(1, g.n + 1):
        assert is_k_connected(g, k) == (kappa >= k), k


@pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=IDS)
def test_find_vertex_cut_matches_networkx(g):
    h = to_nx(g)
    kappa = exhaustive_connectivity(h)
    if kappa >= 1:
        assert find_vertex_cut(g, kappa) is None
    cut = find_vertex_cut(g, kappa + 1)
    assert cut is not None and len(cut) == kappa
    rest = h.subgraph(set(h) - cut)
    assert len(rest) < 2 or not nx.is_connected(rest)


@pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=IDS)
def test_disjoint_paths_match_networkx(g):
    h = to_nx(g)
    rng = np.random.default_rng(g.n + len(g))
    pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
    for i in rng.permutation(len(pairs))[:12]:
        s, t = pairs[i]
        if h.has_edge(s, t):
            h.remove_edge(s, t)
            want = 1 + nx.connectivity.local_node_connectivity(h, s, t)
            h.add_edge(s, t)
        else:
            want = nx.connectivity.local_node_connectivity(h, s, t)
        assert max_vertex_disjoint_paths(g, s, t) == want, (s, t)


@pytest.mark.parametrize("g", [g for _, g in CORPUS], ids=IDS)
def test_removal_disconnects_matches_networkx(g):
    h = to_nx(g)
    rng = np.random.default_rng(7 * g.n + len(g))
    for _ in range(12):
        cut = {int(v) for v in rng.choice(g.n, size=int(rng.integers(0, g.n + 1)), replace=False)}
        rest = h.subgraph(set(h) - cut)
        assert removal_disconnects(g, cut) == (len(rest) < 2 or not nx.is_connected(rest)), cut

def test_min_degree_vertex_lies_in_every_minimum_cut():
    # the corpus case the neighbour pairs exist for: 0 is the unique
    # minimum-degree vertex and belongs to every minimum cut
    for c in (1, 2):
        g = cut_through_min_degree_vertex(c)
        deg = g.degrees()
        assert deg[0] < min(deg[1:])
        h = to_nx(g)
        cuts = list(nx.all_node_cuts(h))
        assert cuts and all(0 in cut and len(cut) == c for cut in cuts)
