from itertools import combinations

import numpy as np
import pytest

from streamvc.errors import InvalidVertexError
from streamvc.graph import EdgeSet, component_partition
from streamvc.instances import (
    complete,
    complete_bipartite,
    cycle,
    gen_planted_cut,
    hypercube,
    path_graph,
    petersen,
    star,
)
from streamvc.oracle import (
    _SplitNetwork,
    find_vertex_cut,
    has_k_connected_subgraph,
    is_k_connected,
    max_vertex_disjoint_paths,
    removal_disconnects,
    vertex_connectivity,
)

from conftest import (
    brute_max_disjoint_paths,
    brute_min_st_separator,
    brute_vertex_connectivity,
    random_edge_set,
)


def test_disjoint_paths_cycle():
    assert max_vertex_disjoint_paths(cycle(5), 0, 2) == 2


def test_disjoint_paths_k4_matches_path_packing():
    # independent oracle: enumerate simple paths and pack disjoint families
    assert brute_max_disjoint_paths(complete(4), 0, 1) == 3
    assert max_vertex_disjoint_paths(complete(4), 0, 1) == 3


def test_disjoint_paths_star_center_leaf():
    assert max_vertex_disjoint_paths(star(5), 0, 1) == 1


def test_disjoint_paths_validation():
    with pytest.raises(InvalidVertexError):
        max_vertex_disjoint_paths(complete(4), 0, 9)
    with pytest.raises(ValueError):
        max_vertex_disjoint_paths(complete(4), 1, 1)


def test_disjoint_paths_cap():
    assert max_vertex_disjoint_paths(complete(8), 0, 1, cap=3) == 3


def test_adjacent_pair_counts_direct_edge_once():
    # triangle with a pendant: paths between the adjacent pair 0,1 are the
    # edge itself plus the detour through 2
    g = EdgeSet(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert max_vertex_disjoint_paths(g, 0, 1) == 2
    assert brute_max_disjoint_paths(g, 0, 1) == 2


def test_kappa_named_values():
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(cycle(6)) == 2
    assert vertex_connectivity(path_graph(6)) == 1
    assert vertex_connectivity(star(6)) == 1
    assert vertex_connectivity(petersen()) == 3
    assert vertex_connectivity(hypercube(3)) == 3
    assert vertex_connectivity(complete_bipartite(3, 4)) == 3


def test_kappa_named_values_brute_confirmed():
    for g, want in [(petersen(), 3), (hypercube(3), 3), (complete_bipartite(3, 4), 3)]:
        assert brute_vertex_connectivity(g) == want


def test_kappa_requires_two_vertices():
    with pytest.raises(ValueError):
        vertex_connectivity(EdgeSet(1))


def test_kappa_disconnected_is_zero():
    assert vertex_connectivity(EdgeSet(4, [(0, 1), (2, 3)])) == 0


def test_kappa_matches_brute_force_random(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_edge_set(n, float(rng.random()), rng)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_is_k_connected_basic():
    assert is_k_connected(complete(5), 4)
    assert not is_k_connected(complete(5), 5)  # k > n-1
    assert not is_k_connected(path_graph(4), 2)
    assert not is_k_connected(EdgeSet(1), 1)


def test_k5_minus_edge_not_4_connected():
    g = complete(5)
    g.edges.discard((0, 1))
    assert brute_min_st_separator(g, 0, 1) == 3
    assert not is_k_connected(g, 4)
    assert is_k_connected(g, 3)


def test_is_k_connected_agrees_with_kappa(rng):
    # the pivot shortcut must match the exhaustive pairwise definition
    for _ in range(150):
        n = int(rng.integers(2, 10))
        g = random_edge_set(n, float(rng.random()), rng)
        kappa = vertex_connectivity(g)
        for k in range(1, n + 1):
            assert is_k_connected(g, k) == (kappa >= k)


def test_flow_matches_path_packing_random(rng):
    # cross-check the flow engine against explicit path-family packing
    for _ in range(10):
        n = int(rng.integers(3, 7))
        g = random_edge_set(n, 0.6, rng)
        for s in range(n):
            for t in range(s + 1, n):
                assert max_vertex_disjoint_paths(g, s, t) == (
                    brute_max_disjoint_paths(g, s, t)
                )


def test_split_network_reuse_leaks_no_state():
    # one network answers every ordered pair, in shuffled order and under a
    # random cap: each flow, and each cut read after a flow below its cap,
    # must be what a fresh network would give, so a capped query in between
    # leaves no stale search behind
    rng = np.random.default_rng(1975)
    graphs = [complete(5), cycle(6), star(5), complete_bipartite(2, 4), hypercube(3)]
    graphs += [random_edge_set(7, 0.5, rng) for _ in range(3)]
    for g in graphs:
        adj = g.adjacency()
        net = _SplitNetwork(adj)
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t]
        for i in rng.permutation(len(pairs)):
            s, t = pairs[i]
            cap = int(rng.integers(0, g.n + 1))
            flow = net.max_flow(s, t, cap)
            assert flow == min(brute_max_disjoint_paths(g, s, t), cap), (g, s, t, cap)
            if g.has(s, t) or flow == cap:
                continue
            cut = net.residual_cut()
            fresh = _SplitNetwork(adj)
            fresh.max_flow(s, t, cap)
            assert cut == fresh.residual_cut(), (g, s, t, cap)
            assert len(cut) == flow
            parts = component_partition(set(range(g.n)) - cut, g.edges)
            assert not any(s in part and t in part for part in parts)


def test_residual_cut_is_nearest_t_on_a_path():
    # every inner vertex of path(5) separates 0 from 4; the cut read off
    # the search back from the sink is the one next to t
    net = _SplitNetwork(path_graph(5).adjacency())
    assert net.max_flow(0, 4, 5) == 1
    assert net.residual_cut() == {3}


def _t_side(g, cut, t):
    return next(part for part in component_partition(set(range(g.n)) - cut, g.edges) if t in part)


def test_residual_cut_is_the_minimum_separator_nearest_t(rng):
    # brute force over every separator: the cut is a minimum s-t separator,
    # and t's side after removing it lies inside t's side for every other
    # minimum separator (the unique t-closest one)
    for _ in range(40):
        n = int(rng.integers(4, 9))
        g = random_edge_set(n, 0.45, rng)
        net = _SplitNetwork(g.adjacency())
        for s in range(n):
            for t in range(n):
                if s == t or g.has(s, t):
                    continue
                flow = net.max_flow(s, t, n)
                cut = net.residual_cut()
                assert len(cut) == flow == brute_min_st_separator(g, s, t)
                assert s not in cut and t not in cut
                side = _t_side(g, cut, t)
                assert s not in side
                others = [v for v in range(n) if v not in (s, t)]
                for sep in map(set, combinations(others, flow)):
                    other = _t_side(g, sep, t)
                    if s not in other:
                        assert side <= other, (g, s, t, cut, sep)


def test_menger_duality_brute(rng):
    # flow value equals the minimum separator size for non-adjacent pairs
    for _ in range(25):
        n = int(rng.integers(4, 9))
        g = random_edge_set(n, 0.45, rng)
        pairs = [
            (s, t) for s in range(n) for t in range(s + 1, n) if not g.has(s, t)
        ]
        for s, t in pairs[:4]:
            assert max_vertex_disjoint_paths(g, s, t) == brute_min_st_separator(
                g, s, t
            )


def test_monotone_under_edge_addition(rng):
    for _ in range(20):
        n = 7
        g = random_edge_set(n, 0.35, rng)
        before_kappa = vertex_connectivity(g)
        before_paths = max_vertex_disjoint_paths(g, 0, 1, cap=None)
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has(u, v)
        ]
        if not missing:
            continue
        u, v = missing[int(rng.integers(len(missing)))]
        g.add(u, v)
        assert vertex_connectivity(g) >= before_kappa
        assert max_vertex_disjoint_paths(g, 0, 1) >= before_paths


def test_kappa_at_most_min_degree(rng):
    for _ in range(30):
        g = random_edge_set(7, float(rng.random()), rng)
        assert vertex_connectivity(g) <= min(g.degrees())


def test_find_vertex_cut_path():
    assert find_vertex_cut(path_graph(3), 2) == {1}


def test_find_vertex_cut_k4_none():
    assert find_vertex_cut(complete(4), 2) is None


def test_find_vertex_cut_disconnected_empty():
    cut = find_vertex_cut(EdgeSet(4, [(0, 1), (2, 3)]), 2)
    assert cut == set()


def test_find_vertex_cut_complete_below_k():
    cut = find_vertex_cut(complete(4), 5)
    assert cut == {1, 2, 3}  # leaves a singleton


def test_find_vertex_cut_is_minimum(rng):
    for _ in range(25):
        n = int(rng.integers(3, 9))
        g = random_edge_set(n, 0.4, rng)
        kappa = brute_vertex_connectivity(g)
        k = kappa + 1
        cut = find_vertex_cut(g, k)
        assert cut is not None
        assert len(cut) == kappa
        assert removal_disconnects(g, cut)


def test_find_vertex_cut_planted():
    g, planted = gen_planted_cut(12, 3, seed=3)
    cut = find_vertex_cut(g, 3)
    assert cut is not None and len(cut) == 2
    assert removal_disconnects(g, cut)


def test_has_k_connected_subgraph_examples():
    assert has_k_connected_subgraph(complete(5), 3)
    assert not has_k_connected_subgraph(path_graph(8), 2)
    # clique on 2k-1 vertices for k=3 meets the tight edge count
    assert len(complete(5)) == 2 * 9 - 3 * 3 + 1
    assert has_k_connected_subgraph(complete(5), 3)


def test_has_k_connected_subgraph_guard():
    with pytest.raises(ValueError):
        has_k_connected_subgraph(complete(13), 2)


def test_has_k_connected_subgraph_buried_clique():
    # K4 hidden behind pendant trees
    g = EdgeSet(9, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    g.add(3, 4)
    g.add(4, 5)
    g.add(5, 6)
    g.add(6, 7)
    g.add(7, 8)
    assert has_k_connected_subgraph(g, 3)
    assert not has_k_connected_subgraph(g, 4)


def test_mader_edge_bound_sweep(rng):
    # any graph meeting the density bound contains a k-connected subgraph
    import itertools

    for k in (2, 3):
        for n in range(2 * k - 1, 9):
            pairs = list(itertools.combinations(range(n), 2))
            m0 = (2 * k - 3) * (n - k + 1) + 1
            for _ in range(20):
                sel = rng.choice(len(pairs), size=m0, replace=False)
                g = EdgeSet(n, [pairs[i] for i in sel])
                assert has_k_connected_subgraph(g, k)


def test_removal_disconnects():
    g = path_graph(4)
    assert removal_disconnects(g, {1})
    assert not removal_disconnects(g, set())
    assert removal_disconnects(EdgeSet(3, [(0, 1)]), set())
    assert removal_disconnects(g, {0, 1, 2})  # one vertex left
    assert not removal_disconnects(g, {0})  # 1-2-3 stays connected


def test_residual_cut_size_is_checked_without_asserts(monkeypatch):
    """A residual cut whose size is not the flow raises, also under -O."""
    monkeypatch.setattr(_SplitNetwork, "residual_cut", lambda self: set())
    with pytest.raises(RuntimeError, match="residual cut has 0 vertices, not the flow 1"):
        vertex_connectivity(path_graph(4))
