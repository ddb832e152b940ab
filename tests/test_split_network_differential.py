"""Differential tests of the split network's search and of its growth in place.

`_SplitNetwork._distances` stops as soon as it labels the source. The
reference below keeps the search that scans on until it pops the source,
so the source's whole level, and part of the next, is labelled. Flows,
cuts and connectivity must not tell the two apart. A network grown edge
by edge with add_edge must likewise answer every query as one built
from the whole graph does.
"""
from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from streamvc import oracle
from streamvc.graph import EdgeSet
from streamvc.instances import complete, cycle, hypercube, path_graph, petersen
from streamvc.oracle import _SplitNetwork, find_vertex_cut, vertex_connectivity

from conftest import random_edge_set


class _ScanOnNetwork(_SplitNetwork):
    """Split network whose search stops only when it pops the source."""

    def _distances(self) -> list[int] | None:
        self.dist = dist = [-1] * self.num_nodes
        dist[self.sink] = 0
        queue = deque([self.sink])
        to, cap, head = self.to, self.cap, self.head
        while queue:
            u = queue.popleft()
            if u == self.source:
                return dist
            for a in head[u]:
                v = to[a]
                if dist[v] < 0 and cap[a ^ 1] > 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return None


def _graphs(seed: int) -> list[EdgeSet]:
    rng = np.random.default_rng(seed)
    graphs = [complete(5), cycle(7), path_graph(6), petersen(), hypercube(3)]
    for _ in range(40):
        n = int(rng.integers(2, 11))
        graphs.append(random_edge_set(n, float(rng.uniform(0.15, 0.9)), rng))
    return graphs


def _same_answers(net: _SplitNetwork, ref: _SplitNetwork, n: int, context) -> None:
    """Every (s, t, cap): the same flow, and the same cut after a flow below its cap."""
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            for cap in range(n + 1):
                flow = net.max_flow(s, t, cap)
                assert flow == ref.max_flow(s, t, cap), (context, s, t, cap)
                if flow < cap:
                    assert net.residual_cut() == ref.residual_cut(), (context, s, t, cap)


@pytest.mark.parametrize("seed", [3, 17])
def test_search_stopping_at_the_source_changes_no_flow_or_cut(seed):
    for g in _graphs(seed):
        adj = g.adjacency()
        _same_answers(_SplitNetwork(adj), _ScanOnNetwork(adj), g.n, g)


@pytest.mark.parametrize("seed", [3, 17])
def test_search_stopping_at_the_source_changes_no_connectivity_or_cut(seed, monkeypatch):
    graphs = [g for g in _graphs(seed) if g.n >= 2]
    got = [
        (vertex_connectivity(g), [find_vertex_cut(g, k) for k in range(1, 5)]) for g in graphs
    ]
    monkeypatch.setattr(oracle, "_SplitNetwork", _ScanOnNetwork)
    want = [
        (vertex_connectivity(g), [find_vertex_cut(g, k) for k in range(1, 5)]) for g in graphs
    ]
    assert got == want


@pytest.mark.parametrize("seed", [5, 29])
def test_network_grown_edge_by_edge_answers_like_a_fresh_one(seed):
    rng = np.random.default_rng(seed)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        edges = random_edge_set(n, float(rng.uniform(0.3, 1.0)), rng).sorted_edges()
        order = [edges[i] for i in rng.permutation(len(edges))]
        grown = _SplitNetwork([()] * n)
        g = EdgeSet(n)
        _same_answers(grown, _SplitNetwork(g.adjacency()), n, g)
        for u, v in order:
            if rng.random() < 0.5:
                u, v = v, u
            grown.add_edge(u, v)
            g.add(u, v)
            _same_answers(grown, _SplitNetwork(g.adjacency()), n, g)
