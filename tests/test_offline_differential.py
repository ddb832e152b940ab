"""Differential test of the offline builder against per-forest Kruskal.

The reference is a builder of its own: for each subset in turn it scans
the induced edges in sorted order and keeps every edge that joins two
union-find classes. With an edge's weight its rank in sorted order, the
weights are distinct, so each subset's minimum spanning forest is unique
and the Boruvka pass of build_certificate_offline must keep the same
edges and write the same JSON.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvc.certificate import (
    FOREST_BLOCK,
    CertParams,
    Certificate,
    ForestMeta,
    build_certificate_offline,
)
from streamvc.graph import EdgeSet, UnionFind
from streamvc.instances import complete, gen_planted_cut, path_graph
from streamvc.seeds import subset_mask

from conftest import random_edge_set


def kruskal_certificate(g: EdgeSet, params: CertParams) -> Certificate:
    kept: set[tuple[int, int]] = set()
    metas = []
    edges = g.sorted_edges()
    for i in range(params.num_forests):
        mask = subset_mask(params.subset_seed(i), params.n, params.k)
        metas.append(ForestMeta(size=int(mask.sum()), failures=0))
        uf = UnionFind(params.n)
        for u, v in edges:
            if mask[u] and mask[v] and uf.union(u, v):
                kept.add((u, v))
    return Certificate(edges=EdgeSet(params.n, kept), params=params, forests=metas)


def assert_same_certificate(g: EdgeSet, params: CertParams) -> Certificate:
    cert, reference = build_certificate_offline(g, params), kruskal_certificate(g, params)
    assert cert.to_json() == reference.to_json()
    for c in (cert, reference):
        assert Certificate.from_json(c.to_json()).to_json() == c.to_json()
    return cert


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return EdgeSet(n, edges)


@settings(max_examples=150, deadline=None)
@given(
    g=graphs(),
    k=st.integers(1, 6),
    scale_c=st.sampled_from([0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32),
)
def test_offline_equals_kruskal_on_random_graphs(g, k, scale_c, seed):
    assert_same_certificate(g, CertParams(n=g.n, k=k, scale_c=scale_c, seed=seed))


@pytest.mark.parametrize(
    "g, k",
    [
        (EdgeSet(1), 1),
        (EdgeSet(1), 3),
        (EdgeSet(2), 2),
        (EdgeSet(2, [(0, 1)]), 1),
        (EdgeSet(2, [(0, 1)]), 2),
        (EdgeSet(9), 3),  # m = 0
        (path_graph(10), 1),
        (complete(7), 1),
    ],
)
def test_offline_equals_kruskal_edge_cases(g, k):
    assert_same_certificate(g, CertParams(n=g.n, k=k, scale_c=5.0, seed=11))


def test_offline_equals_kruskal_with_empty_and_singleton_subsets():
    g = complete(4)
    cert = assert_same_certificate(g, CertParams(n=4, k=5, scale_c=2.0, seed=3))
    sizes = {m.size for m in cert.forests}
    assert {0, 1} <= sizes and max(sizes) >= 2


@pytest.mark.parametrize("seed", [1, 2])
def test_offline_equals_kruskal_over_several_blocks(seed):
    rng = np.random.default_rng(seed)
    g = random_edge_set(40, 0.3, rng)
    params = CertParams(n=40, k=3, scale_c=5.0, seed=seed)
    assert params.num_forests > 2 * FOREST_BLOCK
    assert_same_certificate(g, params)


def test_offline_equals_kruskal_on_planted_cut():
    g, _ = gen_planted_cut(30, 3, seed=4)
    assert_same_certificate(g, CertParams(n=30, k=3, scale_c=3.0, seed=4))
