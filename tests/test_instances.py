import hashlib

import numpy as np
import pytest

from streamvc.graph import UpdateEvent, replay_stream
from streamvc.instances import (
    DOUBLE_EDGE_PROB,
    DisjointnessInstance,
    complete_bipartite,
    edges_to_stream,
    gen_disjointness,
    gen_named,
    gen_planted_cut,
    gen_random_stream,
    legal_shuffle,
    random_disjointness,
    star,
)
from streamvc.oracle import (
    find_vertex_cut,
    is_k_connected,
    removal_disconnects,
    vertex_connectivity,
)
from streamvc.seeds import derive_seed

from conftest import brute_vertex_connectivity


def disjointness_graph(inst):
    alice, bob = gen_disjointness(inst)
    return replay_stream(alice + bob, inst.n)


def test_instance_validation():
    with pytest.raises(ValueError):
        DisjointnessInstance(6, 4, (0,) * 8, (0,) * 8)  # k > n/2
    with pytest.raises(ValueError):
        DisjointnessInstance(6, 2, (0,) * 7, (0,) * 8)  # bad length
    with pytest.raises(ValueError):
        DisjointnessInstance(6, 2, (0, 2) + (0,) * 6, (0,) * 8)  # non-binary


def test_all_zero_strings_give_doubled_complete_bipartite():
    n, k = 8, 3
    inst = DisjointnessInstance(n, k, (0,) * (k * (n - k)), (0,) * (k * (n - k)))
    g = disjointness_graph(inst)
    assert all(m == 2 for m in g.mult.values())
    assert g.support().edges == complete_bipartite(k, n - k).edges
    assert vertex_connectivity(g.support()) == k


def test_single_intersection_drops_connectivity():
    n, k = 8, 3
    size = k * (n - k)
    x = [0] * size
    y = [0] * size
    i_star, j_star = 1, 2
    x[i_star * (n - k) + j_star] = 1
    y[i_star * (n - k) + j_star] = 1
    inst = DisjointnessInstance(n, k, tuple(x), tuple(y))
    g = disjointness_graph(inst).support()
    assert vertex_connectivity(g) == k - 1
    cut = find_vertex_cut(g, k)
    assert cut == set(range(k)) - {i_star}  # left side minus u_(i*)


def test_disjointness_verdict_matches_intersection(rng):
    for trial in range(40):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(1, n // 2 + 1))
        inst = random_disjointness(n, k, seed=trial)
        g = disjointness_graph(inst).support()
        assert is_k_connected(g, k) == (not inst.intersecting)


def test_disjoint_sweep_always_k_connected():
    for seed in range(100):
        inst = random_disjointness(12, 3, seed=seed, force="disjoint")
        g = disjointness_graph(inst).support()
        assert is_k_connected(g, 3)


def test_random_disjointness_force_modes():
    inst = random_disjointness(10, 3, seed=1, force="disjoint")
    assert not inst.intersecting
    inst = random_disjointness(10, 3, seed=1, force="intersecting")
    assert inst.intersecting
    with pytest.raises(ValueError):
        random_disjointness(10, 3, seed=1, force="sideways")


def test_planted_cut_exact_connectivity():
    g, cut = gen_planted_cut(10, 3, seed=2)
    assert len(cut) == 2
    assert brute_vertex_connectivity(g) == 2
    assert removal_disconnects(g, cut)


def test_planted_cut_k1_disconnected():
    g, cut = gen_planted_cut(8, 1, seed=3)
    assert cut == set()
    assert vertex_connectivity(g) == 0


def test_planted_cut_extra_edge_restores_k():
    g, _ = gen_planted_cut(10, 3, seed=4, extra_st_edges=1)
    assert is_k_connected(g, 3)


def test_planted_cut_too_small():
    with pytest.raises(ValueError):
        gen_planted_cut(4, 3, seed=0)


def test_planted_cut_deterministic():
    a, ca = gen_planted_cut(14, 3, seed=9)
    b, cb = gen_planted_cut(14, 3, seed=9)
    assert a == b and ca == cb


def test_random_stream_legal_and_insertion_only():
    events = gen_random_stream(20, 0.3, 0.0, seed=5)
    assert all(e.delta == 1 for e in events)
    replay_stream(events, 20)


def test_random_stream_full_deletion_empties():
    events = gen_random_stream(16, 0.4, 1.0, seed=6)
    g = replay_stream(events, 16)
    assert g.mult == {}


def test_random_stream_density_band():
    events = gen_random_stream(64, 0.3, 0.2, seed=7)
    g = replay_stream(events, 64)
    inserted = sum(1 for e in events if e.delta == 1)
    deleted = sum(1 for e in events if e.delta == -1)
    assert deleted == round(0.2 * inserted)
    expect = 0.3 * 64 * 63 / 2
    assert 0.6 * expect <= sum(g.mult.values()) <= 1.4 * expect


def test_random_stream_deterministic():
    assert gen_random_stream(12, 0.4, 0.3, seed=8) == gen_random_stream(
        12, 0.4, 0.3, seed=8
    )


def _reference_random_stream(n, target_density, delete_fraction, seed):
    """gen_random_stream as it was written before its ids-only rewrite.

    Kept verbatim (one scan over (event, tag) tuples per deletion) so the
    test below catches any change to the rng calls or their order.
    """
    rng = np.random.default_rng(derive_seed(seed, "stream", n))
    inserts = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < target_density:
                inserts.append(UpdateEvent(u, v, 1))
                if rng.random() < DOUBLE_EDGE_PROB:
                    inserts.append(UpdateEvent(u, v, 1))
    order = rng.permutation(len(inserts))
    tagged = [(inserts[i], int(i)) for i in order]
    num_deletes = int(round(delete_fraction * len(inserts)))
    victims = (
        rng.choice(len(inserts), size=num_deletes, replace=False).tolist()
        if num_deletes
        else []
    )
    for victim in victims:
        pos = next(idx for idx, (_, tag) in enumerate(tagged) if tag == victim)
        at = int(rng.integers(pos + 1, len(tagged) + 1))
        tagged.insert(at, (UpdateEvent(inserts[victim].i, inserts[victim].j, -1), -1))
    return [e for e, _ in tagged]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("delete_fraction", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_random_stream_matches_reference_generator(density, delete_fraction, seed):
    for n in (0, 1, 2, 9, 33):
        got = gen_random_stream(n, density, delete_fraction, seed)
        assert got == _reference_random_stream(n, density, delete_fraction, seed)
        assert all(type(x) is int for e in got for x in e)


@pytest.mark.parametrize(
    "n, digest",
    [
        (256, "eac3518730d5e50ffe232a665bdcfd170eda655a2293130d998101a31a04f8d1"),
        (512, "031498ecba1af3cceb2f46c7b21c97eca950114a58f9e6dcfb1242b12074b08e"),
    ],
)
def test_random_stream_bytes_are_pinned(n, digest):
    # both digests were taken from the generator before its ids-only rewrite
    events = gen_random_stream(n, 0.3, 0.2, seed=7)
    text = "".join(f"{e.i} {e.j} {e.delta:+d}\n" for e in events)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_legal_shuffle_preserves_multiset_and_legality():
    events = gen_random_stream(10, 0.5, 0.4, seed=9)
    shuffled = legal_shuffle(events, seed=10)
    assert sorted(shuffled) == sorted(events)
    replay_stream(shuffled, 10)  # raises if any prefix goes negative


def test_named_graphs():
    assert len(gen_named("complete(5)")) == 10
    assert vertex_connectivity(gen_named("complete(5)")) == 4
    assert vertex_connectivity(gen_named("hypercube(3)")) == 3
    assert vertex_connectivity(gen_named("complete_bipartite(3,4)")) == 3
    assert gen_named("petersen").n == 10
    assert gen_named("cycle(9)").n == 9
    assert gen_named(" star( 7 ) ").n == 7


def test_named_unknown():
    for bad in ("blob(3)", "complete", "petersen(4)", "cycle(x)"):
        with pytest.raises(ValueError):
            gen_named(bad)


def test_edges_to_stream_sorted():
    g = star(4)
    events = edges_to_stream(g)
    assert [(e.i, e.j) for e in events] == [(0, 1), (0, 2), (0, 3)]
    assert all(e.delta == 1 for e in events)
