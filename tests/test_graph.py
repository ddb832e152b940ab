import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvc.errors import (
    InvalidVertexError,
    NegativeMultiplicityError,
    SelfLoopError,
)
from streamvc.graph import (
    EdgeSet,
    MultiGraph,
    UnionFind,
    UpdateEvent,
    component_partition,
    replay_stream,
    spanning_forest,
)
from streamvc.instances import gen_random_stream, legal_shuffle


def test_single_insertion():
    g = MultiGraph(3).apply(UpdateEvent(0, 1, 1))
    assert g.multiplicity(0, 1) == 1


def test_cancel_to_zero_removes_key():
    g = MultiGraph(3).apply(UpdateEvent(0, 1, 1)).apply(UpdateEvent(0, 1, -1))
    assert g.multiplicity(0, 1) == 0
    assert g.mult == {}


def test_negative_multiplicity_rejected():
    g = MultiGraph(3)
    with pytest.raises(NegativeMultiplicityError):
        g.apply(UpdateEvent(0, 1, -1))


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        MultiGraph(3).apply(UpdateEvent(2, 2, 1))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(InvalidVertexError):
        MultiGraph(3).apply(UpdateEvent(0, 3, 1))


def test_bad_delta_rejected():
    with pytest.raises(ValueError):
        MultiGraph(3).apply(UpdateEvent(0, 1, 2))


def test_replay_parallel_edges():
    g = replay_stream([UpdateEvent(0, 1, 1), UpdateEvent(0, 1, 1)], 4)
    assert g.multiplicity(0, 1) == 2


def test_replay_empty_stream():
    g = replay_stream([], 5)
    assert g.n == 5 and g.mult == {}


def test_replay_insert_then_delete():
    events = [UpdateEvent(0, 1, 1), UpdateEvent(1, 2, 1), UpdateEvent(0, 1, -1)]
    g = replay_stream(events, 3)
    assert g.mult == {(1, 2): 1}


def test_replay_raises_at_first_illegal_prefix():
    events = [UpdateEvent(0, 1, 1), UpdateEvent(0, 1, -1), UpdateEvent(0, 1, -1)]
    with pytest.raises(NegativeMultiplicityError):
        replay_stream(events, 3)


def test_replay_permutation_invariant():
    events = gen_random_stream(12, 0.4, 0.3, seed=5)
    base = replay_stream(events, 12)
    for s in range(3):
        shuffled = legal_shuffle(events, seed=s)
        assert sorted(shuffled) == sorted(events)
        assert replay_stream(shuffled, 12) == base


def test_apply_then_inverse_restores():
    g = replay_stream(gen_random_stream(8, 0.5, 0.0, seed=1), 8)
    before = g.copy()
    g.apply(UpdateEvent(2, 5, 1)).apply(UpdateEvent(2, 5, -1))
    assert g == before


def test_support_collapses_multiplicity():
    g = replay_stream([UpdateEvent(0, 1, 1), UpdateEvent(0, 1, 1)], 3)
    assert g.support().edges == {(0, 1)}


def test_support_of_replay_matches_final_multiplicities():
    events = gen_random_stream(10, 0.4, 0.5, seed=9)
    g = replay_stream(events, 10)
    assert g.support().edges == {pair for pair, m in g.mult.items() if m >= 1}


def test_edge_set_equality_is_by_n_and_edges():
    g = EdgeSet(4, [(0, 1), (2, 3), (1, 2)])
    assert g == EdgeSet(4, [(2, 1), (3, 2), (1, 0)])
    assert g != EdgeSet(5, [(0, 1), (2, 3), (1, 2)])
    assert g != EdgeSet(4, [(0, 1), (2, 3)])
    assert g != EdgeSet(4, [(0, 1), (2, 3), (0, 2)])
    assert g != replay_stream([UpdateEvent(u, v, 1) for u, v in g], 4)
    assert g != g.edges and g != (4, g.edges)
    with pytest.raises(TypeError):
        hash(g)


def test_multigraph_equality_is_by_n_and_multiplicities():
    events = [UpdateEvent(0, 1, 1), UpdateEvent(1, 2, 1), UpdateEvent(0, 1, 1)]
    g = replay_stream(events, 3)
    assert g == replay_stream(events[::-1], 3)
    assert g != replay_stream(events, 4)
    assert g != replay_stream(events[1:], 3)
    assert g != replay_stream(events[:2] + [UpdateEvent(0, 2, 1)], 3)
    assert g != g.support() and g != g.mult
    with pytest.raises(TypeError):
        hash(g)


def test_edge_set_normalizes_and_checks():
    es = EdgeSet(4)
    es.add(3, 1)
    assert (1, 3) in es and (3, 1) in es
    assert es.has(1, 3)
    with pytest.raises(SelfLoopError):
        es.add(2, 2)
    with pytest.raises(InvalidVertexError):
        es.add(0, 4)


def test_edge_set_induced_relabels():
    es = EdgeSet(6, [(0, 2), (2, 4), (4, 5), (1, 3)])
    sub = es.induced([0, 2, 4])
    assert sub.n == 3
    assert sub.edges == {(0, 1), (1, 2)}


def test_edge_set_degrees_and_adjacency():
    es = EdgeSet(4, [(0, 1), (1, 2)])
    assert es.degrees() == [1, 2, 1, 0]
    adj = es.adjacency()
    assert sorted(adj[1]) == [0, 2]


def test_union_find_basics():
    uf = UnionFind(5)
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.find(0) == uf.find(1)
    assert uf.find(2) != uf.find(0)


@st.composite
def partitions_and_pairs(draw):
    """A node count, a partition of the nodes into groups and a list of node pairs.

    Pairs may repeat, join a node to itself or lie inside one group.
    """
    size = draw(st.integers(1, 24))
    group = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    node = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    return size, group, pairs


@settings(max_examples=300, deadline=None)
@given(partitions_and_pairs(), st.randoms(use_true_random=False))
def test_spanning_forest_keeps_what_kruskal_keeps(case, rng):
    size, group, pairs = case
    # label each group by one of its nodes, drawn at random
    members: dict[int, list[int]] = {}
    for x, g in enumerate(group):
        members.setdefault(g, []).append(x)
    label = {g: rng.choice(nodes) for g, nodes in members.items()}
    comp = np.array([label[g] for g in group], dtype=np.int64)
    uf = UnionFind(size)
    for x, g in enumerate(group):
        uf.union(x, label[g])
    want = [uf.union(a, b) for a, b in pairs]  # Kruskal over the pairs in order
    u, v = (np.array([pair[end] for pair in pairs], dtype=np.int64) for end in (0, 1))
    kept, joined = spanning_forest(comp, u, v)
    assert kept.tolist() == want
    assert (joined[joined] == joined).all()  # every label labels itself
    assert component_partition(range(size), enumerate(joined.tolist())) == (
        component_partition(range(size), ((x, uf.find(x)) for x in range(size)))
    )


def test_component_partition():
    part = component_partition(range(5), [(0, 1), (3, 4)])
    assert part == frozenset(
        {frozenset({0, 1}), frozenset({2}), frozenset({3, 4})}
    )
    restricted = component_partition([0, 1, 2], [(0, 1), (3, 4), (1, 4)])
    assert restricted == frozenset({frozenset({0, 1}), frozenset({2})})
