import time
import tracemalloc

import pytest

from streamvc.errors import InsertionOnlyViolationError, SelfLoopError
from streamvc.graph import EdgeSet, UpdateEvent
from streamvc.insertion import InsertionCertifier
from streamvc.instances import complete, gen_planted_cut, path_graph
from streamvc.oracle import (
    has_k_connected_subgraph,
    is_k_connected,
    max_vertex_disjoint_paths,
)

from conftest import random_edge_set


def stream_graph(certifier: InsertionCertifier, g: EdgeSet, order=None):
    edges = g.sorted_edges() if order is None else order
    for u, v in edges:
        certifier.offer(u, v)
    return certifier.finalize()


def test_constructor_validation():
    InsertionCertifier(1, 1)  # degenerate but valid
    with pytest.raises(ValueError):
        InsertionCertifier(0, 1)
    with pytest.raises(ValueError):
        InsertionCertifier(5, 0)


def test_first_offer_kept_k1():
    ins = InsertionCertifier(5, 1)
    assert ins.offer(0, 1)


def test_triangle_third_edge_dropped_k1():
    ins = InsertionCertifier(3, 1)
    assert ins.offer(0, 1)
    assert ins.offer(1, 2)
    assert not ins.offer(0, 2)  # endpoints already connected
    assert len(ins.finalize()) == 2


def test_offer_validation():
    ins = InsertionCertifier(4, 2)
    with pytest.raises(SelfLoopError):
        ins.offer(1, 1)
    from streamvc.errors import InvalidVertexError

    with pytest.raises(InvalidVertexError):
        ins.offer(0, 4)


def test_duplicate_support_edges_dropped():
    ins = InsertionCertifier(4, 3)
    assert ins.offer(0, 1)
    assert not ins.offer(0, 1)
    assert not ins.offer(1, 0)
    assert len(ins.finalize()) == 1


def test_deletions_rejected():
    ins = InsertionCertifier(4, 1)
    with pytest.raises(InsertionOnlyViolationError):
        ins.offer_event(UpdateEvent(0, 1, -1))


@pytest.mark.parametrize("delta", [2, 0, -2])
def test_non_unit_delta_is_invalid_not_a_deletion(delta):
    ins = InsertionCertifier(4, 1)
    with pytest.raises(ValueError, match="delta must be"):
        ins.offer_event(UpdateEvent(0, 1, delta))
    assert ins.offers == 0 and len(ins.finalize()) == 0


def test_complete_graph_any_order_k2(rng):
    g = complete(9)
    for trial in range(3):
        edges = g.sorted_edges()
        order = [edges[i] for i in rng.permutation(len(edges))]
        ins = InsertionCertifier(9, 2)
        retained = stream_graph(ins, g, order)
        assert len(retained) <= 4 * 9
        assert is_k_connected(retained, 2)


def test_k8_k3_certificate():
    retained = stream_graph(InsertionCertifier(8, 3), complete(8))
    assert is_k_connected(retained, 3)
    assert len(retained) <= 2 * 3 * 8


def test_tree_streams_keep_everything_k1():
    g = path_graph(7)
    retained = stream_graph(InsertionCertifier(7, 1), g)
    assert retained == g


def test_planted_one_below_k_verdict_false():
    g, _ = gen_planted_cut(12, 3, seed=1)
    retained = stream_graph(InsertionCertifier(12, 3), g)
    assert not is_k_connected(retained, 3)
    assert is_k_connected(retained, 2) == is_k_connected(g, 2)


def test_exactness_and_bounds_random(rng):
    for trial in range(25):
        n = int(rng.integers(5, 14))
        k = int(rng.integers(1, 5))
        g = random_edge_set(n, float(rng.random()), rng)
        edges = g.sorted_edges()
        order = [edges[i] for i in rng.permutation(len(edges))]
        ins = InsertionCertifier(n, k)
        for u, v in order:
            ins.offer(u, v)
            assert len(ins.retained) <= 2 * k * n
        retained = ins.finalize()
        assert retained.is_subset_of(g)
        assert is_k_connected(retained, k) == is_k_connected(g, k)
        if n <= 10:
            assert not has_k_connected_subgraph(retained, k + 1)


def test_retained_edges_have_few_paths_when_added(rng):
    # every kept edge had fewer than k disjoint paths at its arrival
    n, k = 10, 3
    g = random_edge_set(n, 0.6, rng)
    ins = InsertionCertifier(n, k)
    snapshot = EdgeSet(n)
    for u, v in g.sorted_edges():
        kept = ins.offer(u, v)
        if kept:
            assert max_vertex_disjoint_paths(snapshot, u, v, cap=k) < k
            snapshot.add(u, v)
    assert ins.finalize() == snapshot


def test_every_offer_matches_a_flow_on_a_fresh_snapshot(rng):
    # the certifier's network grows in place; each verdict, kept or not,
    # must be what a flow on a network built afresh from F gives. Streams
    # repeat edges, in either orientation, before and after their first offer
    for _ in range(200):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, 6))
        edges = random_edge_set(n, float(rng.random()), rng).sorted_edges()
        if not edges:
            continue
        again = [edges[i] for i in rng.integers(0, len(edges), size=len(edges) // 2 + 1)]
        offers = edges + [(v, u) if rng.random() < 0.5 else (u, v) for u, v in again]
        offers = [offers[i] for i in rng.permutation(len(offers))]
        ins = InsertionCertifier(n, k)
        snapshot = EdgeSet(n)
        for u, v in offers:
            want = not snapshot.has(u, v) and (
                max_vertex_disjoint_paths(EdgeSet(n, snapshot.edges), u, v, cap=k) < k
            )
            assert ins.offer(u, v) == want, (n, k, u, v)
            if want:
                snapshot.add(u, v)
        assert ins.finalize() == snapshot


def test_construction_allocates_nothing_per_vertex():
    # the split network is built at the first offer, not before: a huge n
    # must cost no time or memory until an edge arrives
    tracemalloc.start()
    t0 = time.perf_counter()
    ins = InsertionCertifier(10**7, 3)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 1 << 16
    assert len(ins.finalize()) == 0


def test_retained_set_bound_is_checked_without_asserts(monkeypatch):
    """A rule that keeps every edge breaks the 2kn bound, and offer raises, also under -O."""
    monkeypatch.setattr("streamvc.insertion.max_vertex_disjoint_paths", lambda *a, **kw: 0)
    certifier = InsertionCertifier(8, 1)
    edges = complete(8).sorted_edges()  # 28 edges against a bound of 16
    for u, v in edges[:16]:
        assert certifier.offer(u, v)
    with pytest.raises(RuntimeError, match="past its bound 2kn = 16"):
        certifier.offer(*edges[16])
