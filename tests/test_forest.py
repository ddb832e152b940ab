import hashlib

import numpy as np
import pytest

from streamvc import forest as forest_mod
from streamvc import l0 as l0_mod
from streamvc.certificate import MAX_LIVE_MULTIPLICITY, CertParams, StreamCertifier
from streamvc.forest import (
    MAX_N,
    ForestSketchBank,
    bank_bytes,
    pair_from_index,
    pair_index,
    round_count,
)
from streamvc.graph import (
    EdgeSet,
    UnionFind,
    UpdateEvent,
    component_partition,
    replay_stream,
)
from streamvc.instances import gen_random_stream
from streamvc.l0 import (
    EMPTY,
    INDEX_PRIME,
    PRIME,
    ROW_EMPTY,
    ROW_FAIL,
    L0Sketch,
    NonZeroIndex,
    sample_cells,
)
from streamvc.seeds import derive_seed


def bank_states_equal(a: ForestSketchBank, b: ForestSketchBank) -> bool:
    for r in range(a.rounds):
        for v in a.members:
            x, y = a.sketch(v, r), b.sketch(v, r)
            if not (
                np.array_equal(x.counts, y.counts)
                and np.array_equal(x.index_sums, y.index_sums)
                and np.array_equal(x.fingerprints, y.fingerprints)
            ):
                return False
    return True


def test_pair_index_bijection():
    for n in range(2, 61):
        seen = []
        for u in range(n):
            for v in range(u + 1, n):
                idx = pair_index(u, v, n)
                assert pair_from_index(idx, n) == (u, v)
                seen.append(idx)
        assert sorted(seen) == list(range(n * (n - 1) // 2))
        assert pair_index(1, 0, n) == pair_index(0, 1, n)


def test_pair_from_index_inverts_sampled_indices_up_to_max_n():
    rng = np.random.default_rng(14)
    for n in (61, 1000, 65_536, MAX_N - 1, MAX_N):
        total = n * (n - 1) // 2
        ends = [0, 1, n - 2, n - 1, total - 2, total - 1]
        for idx in ends + rng.integers(0, total, size=2000).tolist():
            u, v = pair_from_index(idx, n)
            assert 0 <= u < v < n and pair_index(u, v, n) == idx


def test_every_coordinate_decodes_at_every_count_with_wrapped_index_sums():
    """Counts +-1, +-7 and +-(2^31 - 2) at each pair of a small universe decode to that pair.

    The index sum c * idx mod INDEX_PRIME wraps for every negative count
    and for the largest count at idx >= 2. Both endpoints' cells sum to
    an empty cut although their index sums add, unreduced, to a multiple
    of INDEX_PRIME, so the union decodes EMPTY.
    """
    n = 8
    universe = n * (n - 1) // 2
    store = ForestSketchBank(n, range(n), delta=0.1, seed=5).store
    wrapped = 0
    for idx in range(universe):
        lo, hi = pair_from_index(idx, n)
        for c in (1, -1, 7, -7, MAX_LIVE_MULTIPLICITY, -MAX_LIVE_MULTIPLICITY):
            sign = 1 if c > 0 else -1
            sk = L0Sketch(universe, 0.1, seed=idx).update(idx, c)
            assert sk.sample() == NonZeroIndex(idx, sign)
            assert sk.index_sums[0, 0] == c * idx % INDEX_PRIME
            wrapped += sk.index_sums[0, 0] != c * idx
            store.fold(np.array([0]), lo, hi, c)
            counts, isums, fps = store.blocks(0)  # member v sits at position v
            for r in range(store.rounds):
                for v, s in ((lo, sign), (hi, -sign)):
                    cells = counts[v, r], isums[v, r], fps[v, r]
                    assert sample_cells(*cells, store.z[r], universe) == NonZeroIndex(idx, s)
                union = (
                    counts[lo, r] + counts[hi, r],
                    np.add(isums[lo, r], isums[hi, r], dtype=np.int64),
                    (fps[lo, r] + fps[hi, r]) % PRIME,
                )
                assert sample_cells(*union, store.z[r], universe) is EMPTY
            store.fold(np.array([0]), lo, hi, -c)
            assert not any(a.any() for a in (store.counts, store.index_sums, store.fingerprints))
    assert wrapped > universe


def test_pair_index_validation():
    with pytest.raises(ValueError):
        pair_index(2, 2, 5)
    with pytest.raises(ValueError):
        pair_from_index(10, 5)


def test_round_count():
    assert round_count(64) == 7
    assert round_count(2) == 2
    assert round_count(1) == 1


def test_empty_and_singleton_members():
    bank = ForestSketchBank(8, [], 0.01, seed=0)
    ext = bank.extract()
    assert len(ext.forest) == 0 and ext.sample_failures == 0

    bank = ForestSketchBank(8, [3], 0.01, seed=0)
    bank.update(UpdateEvent(3, 4, 1))
    ext = bank.extract()
    assert len(ext.forest) == 0


def test_update_ignores_non_member_edges():
    bank = ForestSketchBank(8, [0, 1, 2], 0.01, seed=1)
    fresh = ForestSketchBank(8, [0, 1, 2], 0.01, seed=1)
    bank.update(UpdateEvent(0, 5, 1))  # 5 is not a member
    bank.update(UpdateEvent(6, 7, 1))
    assert bank_states_equal(bank, fresh)


def test_update_insert_delete_bit_identical():
    bank = ForestSketchBank(8, [0, 1, 2], 0.01, seed=2)
    fresh = ForestSketchBank(8, [0, 1, 2], 0.01, seed=2)
    bank.update(UpdateEvent(0, 1, 1))
    bank.update(UpdateEvent(0, 1, -1))
    assert bank_states_equal(bank, fresh)


def test_update_accumulates_multiplicity_antisymmetrically():
    bank = ForestSketchBank(8, [0, 1], 0.01, seed=3)
    bank.update(UpdateEvent(0, 1, 1))
    bank.update(UpdateEvent(1, 0, 1))  # same unordered pair
    idx = pair_index(0, 1, 8)
    lo = bank.sketch(0, 0)
    hi = bank.sketch(1, 0)
    # level 0 sees every index: net +2 on the small endpoint, -2 on the large
    assert lo.counts[:, 0].tolist() == [2] * lo.reps
    assert hi.counts[:, 0].tolist() == [-2] * hi.reps
    assert lo.index_sums[0, 0] == 2 * idx


def test_component_merge_support_is_outgoing_edges():
    # merging all sketches of a component must cancel its internal edges
    n = 8
    members = [0, 1, 2, 3]
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 6), (4, 5)]
    bank = ForestSketchBank(n, members, 0.01, seed=4)
    for u, v in edges:
        bank.update(UpdateEvent(u, v, 1))
    component = [0, 1, 2]
    merged = bank.sketch(component[0], 0).copy()
    for v in component[1:]:
        merged = merged.merge(bank.sketch(v, 0))
    # dense reference: sum the antisymmetric incidence vectors directly
    dense = {}
    for u, v in edges:
        if u in members and v in members:
            lo, hi = min(u, v), max(u, v)
            idx = pair_index(lo, hi, n)
            for vert, sign in ((lo, 1), (hi, -1)):
                if vert in component:
                    dense[idx] = dense.get(idx, 0) + sign
    dense = {i: c for i, c in dense.items() if c}
    assert set(dense) == {pair_index(2, 3, n)}
    out = merged.sample()
    assert isinstance(out, NonZeroIndex)
    assert out.index == pair_index(2, 3, n)


def test_triangle_extracts_spanning_tree():
    bank = ForestSketchBank(8, [0, 1, 2], 0.001, seed=5)
    for u, v in [(0, 1), (1, 2), (0, 2)]:
        bank.update(UpdateEvent(u, v, 1))
    ext = bank.extract()
    assert len(ext.forest) == 2
    assert component_partition([0, 1, 2], ext.forest.edges) == frozenset(
        {frozenset({0, 1, 2})}
    )


def test_two_components_extract_exactly_the_edge():
    bank = ForestSketchBank(8, [0, 1, 4], 0.001, seed=6)
    bank.update(UpdateEvent(0, 1, 1))
    ext = bank.extract()
    assert ext.forest.edges == {(0, 1)}


def test_extraction_deterministic():
    events = gen_random_stream(16, 0.3, 0.2, seed=7)
    banks = []
    for _ in range(2):
        bank = ForestSketchBank(16, range(0, 16, 2), 0.01, seed=8)
        for e in events:
            bank.update(e)
        banks.append(bank.extract())
    assert banks[0].forest == banks[1].forest
    assert banks[0].sample_failures == banks[1].sample_failures


def test_extraction_montecarlo_partitions(rng):
    trials, matches = 60, 0
    for t in range(trials):
        n = 32
        events = gen_random_stream(n, 0.08, 0.25, seed=900 + t)
        members = sorted(
            int(v) for v in rng.choice(n, size=int(rng.integers(8, n)), replace=False)
        )
        bank = ForestSketchBank(n, members, 0.01, seed=t)
        for e in events:
            bank.update(e)
        ext = bank.extract()
        g = replay_stream(events, n).support()
        member_set = set(members)
        induced = [
            (u, v) for u, v in g.edges if u in member_set and v in member_set
        ]
        # soundness always: reported edges are real member-member edges
        assert ext.forest.edges <= set(induced)
        # acyclicity always
        uf = UnionFind(n)
        assert all(uf.union(u, v) for u, v in ext.forest.edges)
        if component_partition(members, ext.forest.edges) == component_partition(
            members, induced
        ):
            matches += 1
    assert matches >= trials - 1


def test_rounds_use_independent_batteries():
    # each contraction round owns fresh randomness: seeds, hashes and
    # fingerprint bases all differ across rounds, match across vertices
    bank = ForestSketchBank(16, [0, 1, 2, 3], 0.01, seed=10)
    seeds = {bank.sketch(0, r).seed for r in range(bank.rounds)}
    assert len(seeds) == bank.rounds
    zs = {bank.sketch(0, r).z for r in range(bank.rounds)}
    assert len(zs) == bank.rounds
    for r in range(bank.rounds):
        assert bank.sketch(0, r).seed == bank.sketch(3, r).seed
        assert bank.sketch(0, r).z == bank.sketch(3, r).z


def test_extraction_retries_after_a_round_of_failed_decodes(monkeypatch):
    # a round in which every decode fails is not a finished forest: the
    # next round's independent battery may still merge the components
    n = 6
    bank = ForestSketchBank(n, range(n), 0.01, seed=3)
    for u in range(n - 1):
        bank.update(UpdateEvent(u, u + 1, 1))
    store, decode = bank.store, l0_mod.sample_rows

    def fail_round_0(read, rows, passes, z, universe):
        found, sign = decode(read, rows, passes, z, universe)
        if z == store.z[0]:
            found[:], sign[:] = ROW_FAIL, 0
        return found, sign

    monkeypatch.setattr(l0_mod, "sample_rows", fail_round_0)
    ext = bank.extract()
    assert ext.forest == EdgeSet(n, [(u, u + 1) for u in range(n - 1)])
    assert ext.sample_failures == n
    assert 1 < ext.rounds_used <= bank.rounds


def test_merged_component_reduces_level0_fingerprints_mod_p():
    """A 17-vertex path whose members' level-0 fingerprints lie just below p.

    The fingerprints are rewritten so that they still sum, mod p, to the
    path's true sum (zero: the path has no outgoing edge). Each union adds
    two components' fingerprints and reduces the sum mod p. Without that
    reduction the partial sums pass p and the 16 together overflow int64,
    so the merged path no longer reads EMPTY and its decodes count as
    failures. The edge {18, 19} is a second live component, so extraction
    goes on past the round that completes the path and decodes the whole
    path's sum.
    """
    n, path = 20, list(range(17))
    bank = ForestSketchBank(n, range(n), 0.01, seed=12)  # vertex 17 stays isolated
    for u, v in zip(path, path[1:]):
        bank.update(UpdateEvent(u, v, 1))
    bank.update(UpdateEvent(18, 19, 1))
    fps = bank.store.blocks(0)[2]
    for r in range(bank.rounds):
        near_p = [PRIME - 1 - i for i in path[:-1]]
        true_sum = sum(int(fps[v, r, 0]) for v in path)
        fps[path, r, 0] = near_p + [(true_sum - sum(near_p)) % PRIME]
    ext = bank.extract()
    assert ext.sample_failures == 0
    assert ext.forest == EdgeSet(n, list(zip(path, path[1:])) + [(18, 19)])


def test_bank_bytes_are_the_store_nbytes():
    store = ForestSketchBank(8, [0, 1, 2], 0.01, seed=9).store
    held = store.counts.nbytes + store.index_sums.nbytes + store.fingerprints.nbytes
    assert bank_bytes(8, 3, 0.01) == held + store._slot.nbytes


def test_direct_bank_validates_members_and_delta():
    for members in ([0, 8], [-1, 2]):
        with pytest.raises(ValueError, match="member"):
            ForestSketchBank(8, members, 0.01, seed=0)
    for delta in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="delta"):
            ForestSketchBank(8, [0, 1], delta, seed=0)


def test_certifier_banks_are_views_equal_to_direct_banks():
    """A certifier's bank and a direct bank on the same members and sketch seed agree."""
    n = 12
    events = gen_random_stream(n, 0.35, 0.3, seed=70)
    params = CertParams(n=n, k=2, scale_c=2, seed=71, delta=0.05)
    certifier = StreamCertifier(params)
    for e in events:
        certifier.update(e)
    seed = derive_seed(params.seed, "sketch")
    forests = 0
    for b, bank in enumerate(certifier.banks):
        direct = ForestSketchBank(n, bank.members, params.delta, seed=seed)
        for e in events:
            direct.update(e)
        for got, want in zip(certifier.store.blocks(b), direct.store.blocks(0)):
            assert np.array_equal(got, want)
        x, y = bank.extract(), direct.extract()
        assert x.forest == y.forest
        assert (x.sample_failures, x.rounds_used) == (y.sample_failures, y.rounds_used)
        forests += len(x.forest) > 0
    assert forests > 0


@pytest.mark.parametrize("seed", range(16))
def test_nonempty_decodes_halve_each_round(seed, monkeypatch):
    """The bound that sizes every bank: without a FAIL, fewer than 2 |live| samples are drawn.

    A component whose cut is empty sums to an all-zero block and decodes
    EMPTY; every other component decodes an edge into another such one and
    joins it, so the non-EMPTY decodes at least halve from round to round.
    """
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(8, 33)), int(rng.integers(1, 4))
    events = gen_random_stream(n, float(rng.uniform(0.05, 0.3)), 0.3, seed=80 + seed)
    assert any(e.delta < 0 for e in events)
    certifier = StreamCertifier(CertParams(n=n, k=k, scale_c=2, seed=81 + seed, delta=0.05))
    for e in events:
        certifier.update(e)
    store = certifier.store
    counts = np.zeros(store.rounds, dtype=np.int64)  # non-EMPTY decodes per round
    decode = l0_mod.sample_rows

    def counted(read, rows, passes, z, universe):
        found, sign = decode(read, rows, passes, z, universe)
        counts[store.z.index(z)] += np.count_nonzero(found != ROW_EMPTY)
        return found, sign

    monkeypatch.setattr(l0_mod, "sample_rows", counted)
    checked = 0
    for b, bank in enumerate(certifier.banks):
        counts[:] = 0
        if bank.extract().sample_failures:
            continue
        blocks = store.blocks(b)
        live = int(np.any([c[:, :, 0] != 0 for c in blocks], axis=(0, 2)).sum())
        assert np.all(counts[1:] <= counts[:-1] // 2)
        assert counts.sum() <= max(0, 2 * live - 1)
        checked += counts[1] > 0
    assert checked > 0  # some extraction ran a second decoding round


def test_bank_repetitions_bound_every_sample_of_an_extraction():
    """(2m - 1) (1/3)^reps < delta for every bank of m <= n members."""
    for n in (1, 2, 3, 8, 32, 100, MAX_N):
        for delta in (1e-9, 0.01, 0.1, 0.49, 0.4999999):
            store = forest_mod.SketchStore(n, np.zeros((0, n), dtype=bool), delta, seed=0)
            assert isinstance(store.reps, int)
            assert 2 * n * (1 / 3) ** store.reps <= delta


@pytest.mark.parametrize("seed", range(8))
def test_each_component_decodes_empty_at_most_once(seed, monkeypatch):
    """A component that decodes EMPTY is retired: it is never decoded again.

    Without a false decode, the components that are left when it ends are
    exactly those of the forest over the live members, and each decodes
    EMPTY at most once; a component that is absorbed later never did.
    """
    rng = np.random.default_rng(900 + seed)
    n, k = int(rng.integers(8, 25)), int(rng.integers(1, 4))
    events = gen_random_stream(n, float(rng.uniform(0.05, 0.3)), 0.4, seed=90 + seed)
    assert any(e.delta < 0 for e in events)
    certifier = StreamCertifier(CertParams(n=n, k=k, scale_c=2, seed=91 + seed, delta=0.05))
    for e in events:
        certifier.update(e)
    empties = 0
    decode = l0_mod.sample_rows

    def counted(*args):
        nonlocal empties
        found, sign = decode(*args)
        empties += np.count_nonzero(found == ROW_EMPTY)
        return found, sign

    monkeypatch.setattr(l0_mod, "sample_rows", counted)
    for b, bank in enumerate(certifier.banks):
        empties = 0
        forest = bank.extract().forest
        live = np.any([c[:, 0, 0] for c in certifier.store.blocks(b)], axis=0).sum()
        assert empties <= live - len(forest)


def test_extraction_leaves_the_store_unchanged():
    """Every bank is extracted twice over the same cells, so extraction writes no cell.

    A second finalize with no event in between re-extracts no bank, so
    the banks are also extracted directly, twice each.
    """
    n = 16
    certifier = StreamCertifier(CertParams(n=n, k=2, scale_c=2, seed=30, delta=0.05))
    for e in gen_random_stream(n, 0.3, 0.3, seed=31):
        certifier.update(e)
    store = certifier.store
    arrays = (store.counts, store.index_sums, store.fingerprints, store._slot)

    def checksums():
        return [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]

    before = checksums()
    first, second = certifier.finalize(), certifier.finalize()
    for bank in certifier.banks:
        assert bank.extract() == bank.extract()
    assert checksums() == before
    assert first.to_json() == second.to_json()
    assert len(first.edges) > 0
