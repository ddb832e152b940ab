import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from streamvc import certificate, forest, l0
from streamvc.certificate import (
    FOREST_BLOCK,
    MAX_LIVE_MULTIPLICITY,
    PAPER_SCALE,
    CertParams,
    Certificate,
    ForestMeta,
    StreamCertifier,
    build_certificate_offline,
    decide_k_connected,
    max_forests,
    physical_memory_bytes,
    preserved_st_connectivity,
    sample_subsets,
)
from streamvc.errors import (
    InvalidVertexError,
    MultiplicityOverflowError,
    NegativeMultiplicityError,
    SelfLoopError,
    SpaceExceededError,
)
from streamvc.forest import ForestExtraction, bank_bytes, pair_index, round_count
from streamvc.graph import (
    EdgeSet,
    UpdateEvent,
    component_partition,
    replay_stream,
)
from streamvc.instances import (
    complete,
    edges_to_stream,
    gen_disjointness,
    gen_random_stream,
    legal_shuffle,
    path_graph,
    random_disjointness,
)
from streamvc.l0 import INDEX_PRIME, PRIME, L0Sketch, level_count
from streamvc.oracle import is_k_connected
from streamvc.seeds import derive_seed, subset_mask


def test_params_validation():
    with pytest.raises(ValueError):
        CertParams(n=0, k=1)
    with pytest.raises(ValueError):
        CertParams(n=5, k=0)
    with pytest.raises(ValueError):
        CertParams(n=5, k=2, scale_c=0)
    with pytest.raises(ValueError):
        CertParams(n=5, k=2, delta=2.0)
    for scale_c in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            CertParams(n=5, k=2, scale_c=scale_c)
    for params in (CertParams(n=5, k=4, scale_c=1e308), CertParams(n=5, k=10**400)):
        with pytest.raises(ValueError, match="overflows"):
            params.num_forests


def test_forest_count_formula():
    import math

    p = CertParams(n=100, k=3, scale_c=20)
    assert p.num_forests == math.ceil(20 * 9 * math.log(100))
    assert CertParams(n=1, k=2).num_forests == 1


def test_default_delta_is_inverse_fourth_power():
    assert CertParams(n=10, k=2).resolved_delta == pytest.approx(1e-4)
    assert CertParams(n=10, k=2, delta=0.05).resolved_delta == 0.05


def test_subsets_full_for_k_one():
    p = CertParams(n=20, k=1, scale_c=5, seed=3)
    subsets = sample_subsets(p)
    assert all(len(s) == 20 for s in subsets)
    # the k=1 collapse keeps the forest count logarithmic
    assert p.num_forests <= 26


def test_k_one_builds_a_single_bank():
    # banks over the same members would share every cell, so k=1 builds one
    params = CertParams(n=20, k=1, scale_c=5, seed=3, delta=0.05)
    assert params.num_forests == 1
    certifier = StreamCertifier(params)
    assert [bank.members for bank in certifier.banks] == [tuple(range(20))]
    assert len(certifier.finalize().forests) == 1
    assert len(build_certificate_offline(path_graph(20), params).forests) == 1


def test_subsets_deterministic_and_concentrated():
    p = CertParams(n=1000, k=10, scale_c=2, seed=9)
    a = sample_subsets(p)
    b = sample_subsets(p)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    total = sum(len(s) for s in a)
    assert total <= 2 * p.num_forests * p.n / p.k


def test_subset_mask_of_a_seed_array_equals_its_rows():
    seeds = [derive_seed(5, "subset", i) for i in range(40)] + [0, 2**63, 2**64 - 1]
    for n, k in [(0, 2), (1, 3), (17, 1), (17, 2), (50, 7)]:
        masks = subset_mask(np.array(seeds, dtype=np.uint64), n, k)
        assert masks.shape == (len(seeds), n) and masks.dtype == bool
        for row, seed in zip(masks, seeds):
            assert np.array_equal(row, subset_mask(seed, n, k))


@pytest.mark.parametrize("n, k, scale_c", [(1, 2, 5), (20, 1, 5), (30, 3, 2), (60, 2, 3)])
def test_sample_subsets_equal_the_scalar_loop(n, k, scale_c):
    params = CertParams(n=n, k=k, scale_c=scale_c, seed=8)
    expected = [
        np.nonzero(subset_mask(params.subset_seed(i), n, k))[0]
        for i in range(params.num_forests)
    ]
    subsets = sample_subsets(params)
    assert len(subsets) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(subsets, expected))


def test_offline_k6_certificate_2_connected():
    params = CertParams(n=6, k=2, scale_c=20, seed=1)
    cert = build_certificate_offline(complete(6), params)
    assert decide_k_connected(cert)
    assert cert.edges.is_subset_of(complete(6))


def test_offline_path_graph_keeps_every_edge():
    g = path_graph(8)
    for k in (1, 2):
        cert = build_certificate_offline(g, CertParams(n=8, k=k, scale_c=20, seed=2))
        assert cert.edges == g


def test_offline_disconnected_k1_spans_components():
    g = EdgeSet(7, [(0, 1), (1, 2), (4, 5)])
    cert = build_certificate_offline(g, CertParams(n=7, k=1, scale_c=20, seed=3))
    assert component_partition(range(7), cert.edges.edges) == component_partition(
        range(7), g.edges
    )


def test_offline_size_bookkeeping():
    g = complete(12)
    params = CertParams(n=12, k=2, scale_c=5, seed=4)
    cert = build_certificate_offline(g, params)
    assert cert.sum_subset_sizes == sum(m.size for m in cert.forests)
    assert len(cert.edges) <= sum(max(m.size - 1, 0) for m in cert.forests)
    assert cert.forest_failures == 0 and cert.sketch_bytes == 0


def test_decide_examples():
    assert decide_k_connected(
        build_certificate_offline(complete(10), CertParams(n=10, k=4, scale_c=20, seed=5))
    )
    tree = path_graph(9)
    assert not decide_k_connected(
        build_certificate_offline(tree, CertParams(n=9, k=2, scale_c=20, seed=6))
    )
    inst = random_disjointness(10, 2, seed=7, force="intersecting")
    alice, bob = gen_disjointness(inst)
    g = replay_stream(alice + bob, 10).support()
    cert = build_certificate_offline(g, CertParams(n=10, k=2, scale_c=20, seed=8))
    assert not decide_k_connected(cert)


def test_preserved_st_counts():
    g = complete(6)
    cert = build_certificate_offline(g, CertParams(n=6, k=3, scale_c=20, seed=9))
    for s, t in [(0, 1), (2, 5)]:
        assert preserved_st_connectivity(cert, g, s, t) == (3, 3)
    p = path_graph(6)
    cert = build_certificate_offline(p, CertParams(n=6, k=2, scale_c=20, seed=10))
    assert preserved_st_connectivity(cert, p, 0, 5) == (1, 1)


def test_preserved_st_counts_across_planted_cut():
    # pair separated by a planted 2-cut with k=3: both sides cap at 2
    from streamvc.instances import gen_planted_cut

    g, cut = gen_planted_cut(20, 3, seed=30)
    cert = build_certificate_offline(g, CertParams(n=20, k=3, scale_c=20, seed=31))
    s, t = 2, 19  # first side vertex and last other-side vertex
    assert not g.has(s, t)
    in_g, in_h = preserved_st_connectivity(cert, g, s, t)
    assert (in_g, in_h) == (2, 2)


def test_stream_empty_stream_verdict_false():
    params = CertParams(n=6, k=1, scale_c=5, seed=11, delta=0.01)
    certifier = StreamCertifier(params)
    cert = certifier.finalize()
    assert len(cert.edges) == 0
    assert not decide_k_connected(cert)


def test_stream_certifier_verdict_matches_oracle_small():
    events = edges_to_stream(complete(8))
    deletions = [UpdateEvent(0, 1, -1), UpdateEvent(2, 3, -1), UpdateEvent(4, 5, -1)]
    events = events + deletions
    params = CertParams(n=8, k=2, scale_c=10, seed=12, delta=0.01)
    certifier = StreamCertifier(params)
    for e in events:
        certifier.update(e)
    cert = certifier.finalize()
    g = replay_stream(events, 8).support()
    assert cert.edges.is_subset_of(g)
    assert decide_k_connected(cert) == is_k_connected(g, 2)


def test_stream_linearity_byte_identical():
    base = gen_random_stream(12, 0.35, 0.25, seed=13)
    variant = legal_shuffle(base, seed=14)
    rng = np.random.default_rng(15)
    for _ in range(25):
        u = int(rng.integers(0, 12))
        v = int(rng.integers(0, 12))
        if u == v:
            continue
        at = int(rng.integers(0, len(variant) + 1))
        variant.insert(at, UpdateEvent(u, v, 1))
        variant.insert(at + 1, UpdateEvent(u, v, -1))
    params = CertParams(n=12, k=2, scale_c=3, seed=16, delta=0.01)
    outputs = []
    for events in (base, variant):
        certifier = StreamCertifier(params)
        for e in events:
            certifier.update(e)
        outputs.append(certifier.finalize().to_json())
    assert outputs[0] == outputs[1]


def test_stream_offline_partitions_agree():
    events = gen_random_stream(16, 0.25, 0.2, seed=17)
    params = CertParams(n=16, k=2, scale_c=3, seed=18, delta=1e-3)
    certifier = StreamCertifier(params)
    for e in events:
        certifier.update(e)
    g = replay_stream(events, 16).support()
    for bank in certifier.banks:
        ext = bank.extract()
        if ext.sample_failures:
            continue
        member_set = set(bank.members)
        induced = [(u, v) for u, v in g.edges if u in member_set and v in member_set]
        assert component_partition(bank.members, ext.forest.edges) == (
            component_partition(bank.members, induced)
        )


def test_stream_illegal_stream_raises():
    params = CertParams(n=6, k=2, scale_c=2, seed=19, delta=0.1)
    certifier = StreamCertifier(params)
    certifier.update(UpdateEvent(0, 1, 1))
    certifier.update(UpdateEvent(0, 1, -1))
    with pytest.raises(NegativeMultiplicityError):
        certifier.update(UpdateEvent(0, 1, -1))
    with pytest.raises(InvalidVertexError):
        certifier.update(UpdateEvent(0, 6, 1))
    with pytest.raises(SelfLoopError):
        certifier.update(UpdateEvent(2, 2, 1))
    with pytest.raises(ValueError):
        certifier.update(UpdateEvent(0, 1, 2))


def test_space_cap_aborts():
    params = CertParams(n=32, k=2, scale_c=5, seed=20, delta=0.01)
    with pytest.raises(SpaceExceededError):
        StreamCertifier(params, space_cap_bytes=1000)


def test_space_cap_checked_before_allocation():
    params = CertParams(n=32, k=2, scale_c=32, seed=20, delta=0.01)
    state = sum(bank_bytes(32, len(s), 0.01) for s in sample_subsets(params))
    tracemalloc.start()
    try:
        with pytest.raises(SpaceExceededError):
            StreamCertifier(params, space_cap_bytes=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state > 100_000_000
    assert peak < state // 100


def test_space_cap_checked_while_subsets_are_sampled():
    # r is about 7e5, just under max_forests(32): set-up must stop at the
    # first block over the cap
    params = CertParams(n=32, k=2, scale_c=5e4, seed=20, delta=0.1)
    tracemalloc.start()
    try:
        with pytest.raises(SpaceExceededError, match="subsets take"):
            StreamCertifier(params, space_cap_bytes=1_000_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("n, k", [(8, 1), (8, 3), (12, 2), (12, 3), (16, 1), (16, 2)])
def test_stream_cells_equal_reference_sketches(n, k):
    """Every (bank, member, round) block equals a standalone L0Sketch fed that member's updates."""
    events = gen_random_stream(n, 0.3, 0.3, seed=40 + n + k)
    params = CertParams(n=n, k=k, scale_c=2, seed=41 + n * k, delta=0.05)
    certifier = StreamCertifier(params)
    for e in events:
        certifier.update(e)
    rounds, universe = round_count(n), n * (n - 1) // 2
    levels = level_count(universe)
    store = certifier.store
    delta = forest.sketch_delta(n, 0.05)
    reps = L0Sketch(universe, delta, 0).reps
    assert store.reps == reps
    cells = 0
    sizes = set()
    for i, members in enumerate(sample_subsets(params)):
        m = len(members)
        sizes.add(min(m, 2))
        assert certifier.banks[i].members == tuple(members.tolist())
        cells += m * rounds * (1 + (levels - 1) * reps)
        blocks = store.blocks(i)
        # every bank's blocks have one width
        assert all(b.shape == (m, rounds, 1 + (levels - 1) * reps) for b in blocks)
        for r in range(rounds):
            round_seed = derive_seed(derive_seed(params.seed, "sketch"), "round", r)
            for pos, v in enumerate(members.tolist()):
                ref = L0Sketch(universe, delta, round_seed)
                for e in events:
                    lo, hi = min(e.i, e.j), max(e.i, e.j)
                    if lo in members and hi in members and v in (lo, hi):
                        ref.update(pair_index(lo, hi, n), e.delta if v == lo else -e.delta)
                for got, want in zip(
                    blocks, (ref.counts, ref.index_sums, ref.fingerprints)
                ):
                    # level 0 is kept once; levels >= 1 are laid out [rep, level]
                    block = got[pos, r]
                    assert np.all(want[:, 0] == block[0])
                    assert np.array_equal(block[1:].reshape(reps, levels - 1), want[:, 1:])
    assert cells == len(store.counts) == len(store.index_sums) == len(store.fingerprints)
    # 16 bytes a cell: the index sums are int32 residues mod INDEX_PRIME
    assert sum(a.itemsize for a in (store.counts, store.index_sums, store.fingerprints)) == 16
    assert 0 <= store.index_sums.min() and store.index_sums.max() < INDEX_PRIME
    if (n, k) == (8, 3):
        assert sizes == {0, 1, 2}  # empty and single-member banks are covered


@pytest.mark.parametrize("n, k", [(8, 1), (8, 3), (12, 2), (16, 3)])
def test_stream_state_is_linear_across_certifiers(n, k):
    """Two certifiers fed an edge-wise split of a stream sum to the whole stream's store."""
    events = gen_random_stream(n, 0.3, 0.3, seed=60 + n + k)
    params = CertParams(n=n, k=k, scale_c=2, seed=61 + n * k, delta=0.05)
    # every edge keeps all its events, in order, on one side, so both halves are legal
    side = np.random.default_rng(62 + n).integers(0, 2, size=n * (n - 1) // 2)
    halves = [[], []]
    for e in events:
        halves[side[pair_index(e.i, e.j, n)]].append(e)
    assert halves[0] and halves[1]
    whole, *parts = (StreamCertifier(params) for _ in range(3))
    for certifier, stream in zip((whole, *parts), (events, *halves)):
        for e in stream:
            certifier.update(e)
    a, b = (c.store for c in parts)
    assert np.array_equal(a.counts + b.counts, whole.store.counts)
    # index sums are residues mod INDEX_PRIME, fingerprints mod PRIME
    assert np.array_equal(
        np.add(a.index_sums, b.index_sums, dtype=np.int64) % INDEX_PRIME, whole.store.index_sums
    )
    assert np.array_equal(
        (a.fingerprints + b.fingerprints) % PRIME, whole.store.fingerprints
    )
    assert whole.store.counts.any()
    if (n, k) == (8, 3):
        sizes = {min(len(bank.members), 2) for bank in whole.banks}
        assert sizes == {0, 1, 2}  # empty and single-member banks are covered


@pytest.mark.parametrize("n, k", [(8, 1), (8, 3), (16, 2), (32, 2)])
def test_measured_bytes_is_the_sum_of_bank_bytes(n, k):
    params = CertParams(n=n, k=k, scale_c=5, seed=24 + n * k, delta=0.05)
    subsets = sample_subsets(params)
    expected = sum(bank_bytes(n, len(s), 0.05) for s in subsets)
    assert StreamCertifier(params).measured_bytes() == expected
    if (n, k) == (8, 3):
        assert {0, 1} <= {len(s) for s in subsets}  # empty and single-member subsets


@pytest.mark.parametrize("n, k", [(8, 1), (8, 3), (16, 2), (32, 2)])
def test_store_bytes_are_within_the_accounted_bytes(n, k):
    """The store allocates one array of 16-byte records, which fold writes, and _slot.

    The three cell fields are views of that array, and the two arrays'
    nbytes are the accounted bytes.
    """
    certifier = StreamCertifier(CertParams(n=n, k=k, scale_c=5, seed=25 + n * k, delta=0.05))
    store = certifier.store
    fields = store.counts, store.index_sums, store.fingerprints
    assert all(np.shares_memory(a, store.cells) for a in fields)
    assert store.cells.dtype.itemsize == 16
    assert 0 < store.cells.nbytes + store._slot.nbytes == certifier.measured_bytes()
    for e in gen_random_stream(n, 0.5, 0.2, seed=26 + n * k):
        certifier.update(e)
    # the events reached the records, and the field views read them
    for a, name in zip(fields, ("count", "index_sum", "fingerprint")):
        assert a.any() and np.array_equal(a, store.cells[name])


@pytest.mark.parametrize("n, k", [(8, 1), (8, 3), (16, 2), (32, 2)])
def test_space_cap_at_the_store_bytes_admits_exactly_the_store(n, k, monkeypatch):
    params = CertParams(n=n, k=k, scale_c=5, seed=27 + n * k, delta=0.05)
    store = StreamCertifier(params).store
    held = sum(a.nbytes for a in (store.counts, store.index_sums, store.fingerprints))
    held += store._slot.nbytes
    assert StreamCertifier(params, space_cap_bytes=held).measured_bytes() == held

    def never(*args):
        raise AssertionError("the store was built past the cap")

    monkeypatch.setattr(certificate, "SketchStore", never)
    with pytest.raises(SpaceExceededError, match=f"exceeds cap {held - 1}"):
        StreamCertifier(params, space_cap_bytes=held - 1)


def test_offline_forest_count_is_bounded_before_sampling(monkeypatch):
    for n in (2, 8, 32):
        assert CertParams(n=n, k=n, scale_c=PAPER_SCALE).num_forests == max_forests(n)
    assert max_forests(1) == 1

    def never(*args):
        raise AssertionError("subsets were sampled past the bound")

    monkeypatch.setattr(certificate, "subset_mask", never)
    for params in (
        CertParams(n=8, k=2, scale_c=1e300),
        CertParams(n=8, k=8, scale_c=PAPER_SCALE * 1.01),
    ):
        with pytest.raises(ValueError, match="exceeds the forest bound"):
            build_certificate_offline(complete(8), params)


def test_stream_forest_count_is_bounded_before_sampling(monkeypatch):
    def never(*args):
        raise AssertionError("subsets were sampled past the bound")

    for params in (
        CertParams(n=8, k=2, scale_c=1e300),
        CertParams(n=8, k=8, scale_c=PAPER_SCALE * 1.01),
    ):
        with pytest.raises(ValueError) as offline:
            build_certificate_offline(complete(8), params)
        monkeypatch.setattr(certificate, "subset_mask", never)
        with pytest.raises(ValueError, match="exceeds the forest bound") as dynamic:
            StreamCertifier(params)
        monkeypatch.undo()
        assert str(dynamic.value) == str(offline.value)


def test_live_multiplicity_overflow_is_refused_before_any_cell_changes():
    # below INDEX_PRIME = 2^31 - 1, so no nonzero count is a multiple of it
    assert MAX_LIVE_MULTIPLICITY == 2**31 - 2 == INDEX_PRIME - 1
    events = gen_random_stream(8, 0.4, 0.3, seed=31)
    certifier = StreamCertifier(CertParams(n=8, k=1, seed=32, delta=0.1))
    for e in events:
        certifier.update(e)
    held = replay_stream(events, 8).mult
    assert certifier.live_multiplicity == sum(held.values())
    u, v = next(iter(held))
    certifier.live_multiplicity = MAX_LIVE_MULTIPLICITY - 1
    certifier.update(UpdateEvent(u, v, 1))  # reaches the bound exactly
    store = certifier.store
    before = [a.copy() for a in (store.counts, store.index_sums, store.fingerprints)]
    with pytest.raises(MultiplicityOverflowError):
        certifier.update(UpdateEvent(u, v, 1))
    after = (store.counts, store.index_sums, store.fingerprints)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert certifier.live_multiplicity == MAX_LIVE_MULTIPLICITY
    for _ in range(held[(u, v)] + 1):  # the refused insertion reached no state
        certifier.update(UpdateEvent(u, v, -1))
    assert certifier.live_multiplicity == MAX_LIVE_MULTIPLICITY - 1 - held[(u, v)]
    with pytest.raises(NegativeMultiplicityError):
        certifier.update(UpdateEvent(u, v, -1))


def test_store_refuses_n_whose_index_sums_could_overflow():
    # an index-sum residue names one pair only while every pair index is below INDEX_PRIME
    n = forest.MAX_N
    assert n == 65_536
    assert n * (n - 1) // 2 - 1 < INDEX_PRIME <= (n + 1) * n // 2 - 1
    assert forest.SketchStore(n, np.zeros((1, n), dtype=bool), 0.1, 0).universe == n * (n - 1) // 2
    with pytest.raises(ValueError, match="index sums"):
        forest.SketchStore(n + 1, np.zeros((1, n + 1), dtype=bool), 0.1, 0)


@pytest.mark.parametrize("n", [16, 24])
def test_repetition_cut_keeps_certificates(n, monkeypatch):
    """Repetition seeds are a prefix, so REP_SCALE 4 -> 2 leaves every decode as it was."""
    events = gen_random_stream(n, 0.3, 0.2, seed=33 + n)
    params = CertParams(n=n, k=2, scale_c=10, seed=34 + n, delta=0.01)

    def run():
        certifier = StreamCertifier(params)
        for e in events:
            certifier.update(e)
        return json.loads(certifier.finalize().to_json()), certifier.store.reps

    try:
        monkeypatch.setattr(l0, "REP_SCALE", 4.0)
        wide, wide_reps = run()
    finally:
        monkeypatch.undo()
    cut, cut_reps = run()
    assert cut_reps < wide_reps
    assert cut.pop("measured_sketch_bytes") < wide.pop("measured_sketch_bytes")
    assert cut == wide
    assert cut["edges"]


def test_physical_memory_bytes_is_positive_or_unknown():
    size = physical_memory_bytes()
    assert size is None or (isinstance(size, int) and size > 0)


def test_space_cap_defaults_to_physical_memory(monkeypatch):
    # r is about 7e5: without a cap set-up must still stop, at physical
    # memory (here a 10 MB host, so the test does not scale with the host's RAM)
    monkeypatch.setattr(certificate, "physical_memory_bytes", lambda: 10**7)
    params = CertParams(n=32, k=2, scale_c=5e4, seed=20, delta=0.1)
    with pytest.raises(SpaceExceededError, match="exceeds cap 10000000"):
        StreamCertifier(params)


def test_space_cap_message_reports_the_first_block_over_the_cap():
    params = CertParams(n=16, k=2, scale_c=20, seed=25, delta=0.05)
    subsets = sample_subsets(params)
    assert len(subsets) > 2 * FOREST_BLOCK
    totals = np.cumsum([bank_bytes(16, len(s), 0.05) for s in subsets]).tolist()
    # the first block's total is exactly at the cap, so the second block is the first over it
    cap = totals[FOREST_BLOCK - 1]
    with pytest.raises(SpaceExceededError) as err:
        StreamCertifier(params, space_cap_bytes=cap)
    assert str(err.value) == (
        f"sketch state exceeds cap {cap}: the first {2 * FOREST_BLOCK} subsets "
        f"take {totals[2 * FOREST_BLOCK - 1]} bytes"
    )
    assert StreamCertifier(params, space_cap_bytes=totals[-1]).measured_bytes() == totals[-1]


def test_certificate_json_schema_and_roundtrip():
    params = CertParams(n=6, k=2, scale_c=5, seed=22)
    cert = build_certificate_offline(complete(6), params)
    d = cert.to_json_dict()
    assert list(d.keys()) == [
        "schema",
        "n",
        "k",
        "C",
        "r",
        "seed",
        "delta",
        "edges",
        "forests",
        "forest_failures",
        "sum_Vi",
        "measured_sketch_bytes",
    ]
    back = Certificate.from_json(cert.to_json())
    assert back.edges == cert.edges
    assert back.params.k == 2
    # a certificate with sample failures and an explicit delta reloads intact
    params = CertParams(n=6, k=2, scale_c=5, seed=22, delta=0.125)
    built = build_certificate_offline(complete(6), params)
    failed = [built.forests[0], built.forests[1]._replace(failures=3), *built.forests[2:]]
    cert = dataclasses.replace(built, forests=failed, sketch_bytes=4096)
    back = Certificate.from_json(cert.to_json())
    assert back.forests == cert.forests
    assert back.forest_failures == cert.forest_failures == 1
    assert back.sum_subset_sizes == cert.sum_subset_sizes
    assert back.params == cert.params and back.params.delta == 0.125
    assert back.to_json() == cert.to_json()
    with pytest.raises(ValueError):
        Certificate.from_json(json.dumps({**d, "schema": 2}))


def test_malformed_certificate_json_names_the_field():
    params = CertParams(n=6, k=2, scale_c=5, seed=22)
    d = build_certificate_offline(complete(6), params).to_json_dict()
    missing_forests = {key: value for key, value in d.items() if key != "forests"}
    cases = [
        (missing_forests, "lacks field 'forests'"),
        ({**d, "forests": [[6, 0]] + d["forests"][1:]}, r"forests record \[6, 0\]"),
        ({**d, "n": "6"}, "field 'n' must be int"),
        ({**d, "edges": [[0, 1, 2]]}, r"edges record \[0, 1, 2\]"),
        ({**d, "delta": "0.5"}, "field 'delta' must be float or NoneType"),
        ({**d, "extra": None}, "unknown field 'extra'"),
        ({**d, "edges": [[0, 0]]}, "field 'edges' must list each edge once"),
        ({**d, "edges": [[0, 9]]}, "field 'edges' must list each edge once"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            Certificate.from_json(json.dumps(bad))
    # the schema check still comes first
    with pytest.raises(ValueError, match="unsupported certificate schema 2"):
        Certificate.from_json(json.dumps({**missing_forests, "schema": 2}))
    with pytest.raises(ValueError, match="unsupported certificate schema None"):
        Certificate.from_json("[]")


def test_certificate_json_counts_and_forest_records_are_checked():
    params = CertParams(n=6, k=2, scale_c=5, seed=22)
    d = build_certificate_offline(complete(6), params).to_json_dict()
    assert d["r"] == len(d["forests"]) == 36 and d["forest_failures"] == 0
    cases = [
        ({**d, "r": 999, "forest_failures": 7}, "field 'r' gives 999, but .* give 36"),
        ({**d, "forest_failures": 7}, "field 'forest_failures' gives 7, but .* give 0"),
        ({**d, "sum_Vi": d["sum_Vi"] + 1}, f"field 'sum_Vi' gives {d['sum_Vi'] + 1}"),
        ({**d, "forests": [[-3, -1, 5]]}, r"forests record \[-3, -1, 5\] must have 0 <= size"),
        ({**d, "forests": [[7, 0, 5]] + d["forests"][1:]}, r"forests record \[7, 0, 5\]"),
        ({**d, "forests": [[3, -1, 5]] + d["forests"][1:]}, r"forests record \[3, -1, 5\]"),
        ({**d, "forests": d["forests"][1:]}, "field 'forests' gives 35, but .* give 36"),
        ({**d, "r": "36"}, "field 'r' must be int"),
        ({**d, "edges": [d["edges"][0][::-1]] + d["edges"][1:]}, "field 'edges' must list"),
        ({**d, "edges": d["edges"][:1] + d["edges"]}, "field 'edges' must list each edge once"),
        ({**d, "edges": [d["edges"][0][::-1]] + d["edges"]}, "field 'edges' must list"),
        ({**d, "edges": d["edges"][::-1]}, "field 'edges' must .* in sorted order"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            Certificate.from_json(json.dumps(bad))
    # a record with failures and the counts that go with it is read back
    failed = {**d, "forests": [[4, 2, 5]] + d["forests"][1:], "forest_failures": 1}
    failed["sum_Vi"] = sum(size for size, _, _ in failed["forests"])
    assert Certificate.from_json(json.dumps(failed)).to_json_dict() == failed


@pytest.mark.parametrize(
    "n, k, digest",
    [
        (32, 2, "b5684b79279f980338de040ed925248c755caacccf01a9d7df47bf91a8c59f1a"),
        (48, 3, "1fb57b87552733ff662c45601fe6351d335a97b5a6f23bde4e9fee0f1ccecae4"),
    ],
)
def test_library_quick_start_certificates_are_pinned(n, k, digest):
    """The README library quick start's certificate, byte for byte, at two (n, k).

    The digests were taken before extraction was batched across banks;
    any change to sketching, extraction or the JSON layout shows here.
    """
    certifier = StreamCertifier(CertParams(n=n, k=k, scale_c=20, seed=1, delta=0.01))
    for e in gen_random_stream(n, 0.3, 0.2, seed=7):
        certifier.update(e)
    assert hashlib.sha256(certifier.finalize().to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, k, stream, params, digest",
    [
        (
            32,
            2,
            dict(density=0.3, seed=7),
            dict(seed=1),
            "7b0bd5b8c4af4042968fc6dcd42cc51e3c3b0c483234e0aedd494594252ec2d6",
        ),
        (
            140,
            4,
            dict(density=0.13, seed=1001, events=1500),
            dict(seed=1001, delta=0.01),
            "2e9f9b235b0603ee20c69dd76ffb291b64fbac814676a1bddb8057e16c0397c3",
        ),
    ],
)
def test_offline_certificates_are_pinned(n, k, stream, params, digest):
    """The offline certificate, byte for byte: the README stream and the offline-verdict size.

    The digests were taken before the certificate checked itself in
    Certificate.__post_init__; any change to subset sampling, the forest
    pass or the JSON layout shows here.
    """
    events = gen_random_stream(n, stream["density"], 0.2, seed=stream["seed"])
    g = replay_stream(events[: stream.get("events")], n).support()
    cert = build_certificate_offline(g, CertParams(n=n, k=k, scale_c=20, **params))
    assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest
    assert Certificate.from_json(cert.to_json()).to_json() == cert.to_json()


def test_stream_certificate_roundtrips_through_json():
    certifier = StreamCertifier(CertParams(n=32, k=2, scale_c=20, seed=1, delta=0.01))
    for e in gen_random_stream(32, 0.3, 0.2, seed=7):
        certifier.update(e)
    cert = certifier.finalize()
    assert cert.sketch_bytes > 0
    assert Certificate.from_json(cert.to_json()).to_json() == cert.to_json()


def test_from_json_refuses_an_edge_budget_overrun_and_negative_sketch_bytes():
    params = CertParams(n=8, k=2, scale_c=1, seed=1)
    d = build_certificate_offline(complete(8), params).to_json_dict()
    with pytest.raises(ValueError, match="measured_sketch_bytes must be >= 0, got -1"):
        Certificate.from_json(json.dumps({**d, "measured_sketch_bytes": -1}))
    # 13 edges from 9 forests, but the records leave room for one edge
    assert len(d["edges"]) == 13 and len(d["forests"]) == 9
    d["forests"] = [[2, 0, d["forests"][0][2]]] + [[0, 0, seed] for _, _, seed in d["forests"][1:]]
    d["sum_Vi"] = 2
    with pytest.raises(ValueError, match=r"has 13 edges, more than .* budget .* = 1"):
        Certificate.from_json(json.dumps(d))


def test_certificate_checks_itself_however_it_is_made():
    cert = build_certificate_offline(complete(6), CertParams(n=6, k=2, scale_c=5, seed=22))
    with pytest.raises(ValueError, match="field 'forests' gives 35, but its params give 36"):
        Certificate(edges=cert.edges, params=cert.params, forests=cert.forests[1:])
    with pytest.raises(ValueError, match=r"forests record \[7, 0, 5\]"):
        Certificate(cert.edges, cert.params, [ForestMeta(7, 0, 5), *cert.forests[1:]])
    with pytest.raises(ValueError, match="measured_sketch_bytes must be >= 0"):
        Certificate(cert.edges, cert.params, cert.forests, sketch_bytes=-1)
    with pytest.raises(ValueError, match="more than its forests' edge budget"):
        Certificate(complete(6), cert.params, [ForestMeta(0, 0, m.seed) for m in cert.forests])
    # a budget met exactly is kept: a path's edges, one subset holding all of it
    path = EdgeSet(6, [(v, v + 1) for v in range(5)])
    records = [ForestMeta(6, 0, 1)] + [ForestMeta(0, 0, m.seed) for m in cert.forests[1:]]
    assert Certificate(path, cert.params, records).edges == path


def test_certificate_records_are_immutable():
    certifier = StreamCertifier(CertParams(n=8, k=2, scale_c=1, seed=1, delta=0.1))
    for e in gen_random_stream(8, 0.5, 0.2, seed=1):
        certifier.update(e)
    cert = certifier.finalize()
    assert type(cert.forests) is tuple  # finalize passes a list
    records = [
        (cert, [field.name for field in dataclasses.fields(cert)]),
        (cert.forests[0], ForestMeta._fields),
        (certifier.banks[0].extraction, ForestExtraction._fields),
    ]
    for record, names in records:
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
    # a copy with a changed field is built, so checked, anew
    with pytest.raises(ValueError, match="measured_sketch_bytes must be >= 0, got -1"):
        dataclasses.replace(cert, sketch_bytes=-1)
    # H is the certificate's own read-only copy, so no edge can be added past
    # the budget: complete(30) at C=0.1 gives 28 edges against a budget of 28
    g = complete(30)
    offline = build_certificate_offline(g, CertParams(n=30, k=2, scale_c=0.1, seed=1))
    assert offline.edges is not g and offline.edges.is_subset_of(g)
    for built in cert, offline, Certificate.from_json(offline.to_json()):
        with pytest.raises(AttributeError):
            built.edges.add(0, 1)
        # nor can the pair set or the vertex count be swapped wholesale
        with pytest.raises(AttributeError):
            built.edges.edges = frozenset(g.edges)
        with pytest.raises(AttributeError):
            built.edges.n = 31
    assert len(offline.edges) == 28 and offline.edges.n == 30
    assert Certificate.from_json(offline.to_json()) == offline
    with pytest.raises(AttributeError):
        certifier.banks[0].extraction.forest.add(0, 1)
    with pytest.raises(AttributeError):
        certifier.banks[0].extraction.forest.edges = frozenset()
    path = EdgeSet(30, [(0, 1)])
    held = Certificate(path, offline.params, offline.forests)
    path.add(1, 2)
    assert held.edges == EdgeSet(30, [(0, 1)])


def test_low_connectivity_edges_captured_smoke():
    # a bridge edge has one disjoint path between endpoints; it must land in H
    g = EdgeSet(9, complete(4).edges)
    for u, v in [(4, 5), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7)]:
        g.add(u, v)
    g.add(3, 4)  # bridge between the two K4s
    g.add(0, 8)  # pendant
    params = CertParams(n=9, k=2, scale_c=20, seed=23)
    cert = build_certificate_offline(g, params)
    assert (3, 4) in cert.edges
    assert (0, 8) in cert.edges
