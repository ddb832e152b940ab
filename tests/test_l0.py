import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamvc.errors import SeedMismatchError
from streamvc.l0 import (
    EMPTY,
    FAIL,
    INDEX_PRIME,
    PRIME,
    REP_SCALE,
    L0Sketch,
    NonZeroIndex,
    block_cells,
    from_block,
    repetition_count,
    repetition_levels,
    to_block,
)


def sketch_of(vector, universe, delta=0.01, seed=0):
    s = L0Sketch(universe, delta, seed)
    for idx, val in vector.items():
        step = 1 if val > 0 else -1
        for _ in range(abs(val)):
            s.update(idx, step)
    return s


def states_equal(a, b):
    return (
        np.array_equal(a.counts, b.counts)
        and np.array_equal(a.index_sums, b.index_sums)
        and np.array_equal(a.fingerprints, b.fingerprints)
    )


def test_dimensions_match_construction():
    s = L0Sketch(16, 0.01, seed=7)
    assert s.levels == 6  # ceil(log2 16) + 2
    assert s.reps == 10  # ceil(2 * ln 100)


def test_degenerate_universe():
    s = L0Sketch(1, 0.1, seed=0)
    s.update(0, 1)
    out = s.sample()
    assert out == NonZeroIndex(0, 1)


def test_bad_delta():
    with pytest.raises(ValueError):
        L0Sketch(16, 1.5, seed=0)
    with pytest.raises(ValueError):
        L0Sketch(16, 0.0, seed=0)
    with pytest.raises(ValueError):
        L0Sketch(0, 0.1, seed=0)


def test_index_out_of_range():
    with pytest.raises(IndexError):
        L0Sketch(8, 0.1, seed=0).update(8, 1)


def test_update_cancellation_restores_zero_state():
    s = L0Sketch(32, 0.01, seed=3)
    fresh = L0Sketch(32, 0.01, seed=3)
    s.update(5, 1)
    s.update(5, -1)
    assert states_equal(s, fresh)
    assert s.is_zero()
    assert s.sample() is EMPTY


def test_single_update_samples_it():
    s = L0Sketch(32, 0.01, seed=1)
    s.update(5, 1)
    assert s.sample() == NonZeroIndex(5, 1)
    t = L0Sketch(32, 0.01, seed=1)
    t.update(9, -1)
    assert t.sample() == NonZeroIndex(9, -1)


def test_one_sparse_sampling_never_fails_across_seeds():
    # a 1-sparse vector is decodable at level 0 of every repetition
    for seed in range(1000):
        s = L0Sketch(64, 0.01, seed=seed)
        s.update(7, 1)
        assert s.sample() == NonZeroIndex(7, 1)


def test_linearity_order_independent_bitwise():
    updates = [(3, 1), (9, 1), (3, -1), (17, 2), (9, 1), (17, -1)]
    a = L0Sketch(32, 0.05, seed=11)
    b = L0Sketch(32, 0.05, seed=11)
    for idx, d in updates:
        a.update(idx, d)
    for idx, d in reversed(updates):
        b.update(idx, d)
    assert states_equal(a, b)


def test_sample_support_two_elements_montecarlo():
    hits = 0
    trials = 300
    for seed in range(trials):
        s = sketch_of({2: 1, 9: 1}, universe=32, delta=0.01, seed=seed)
        out = s.sample()
        if isinstance(out, NonZeroIndex):
            assert out.index in (2, 9)
            assert out.sign == 1
            hits += 1
    assert hits / trials >= 0.99


def test_merge_identity_and_cancellation():
    zero = L0Sketch(16, 0.05, seed=2)
    s = sketch_of({3: 1}, 16, delta=0.05, seed=2)
    assert states_equal(zero.merge(s), s)
    neg = sketch_of({3: -1}, 16, delta=0.05, seed=2)
    assert s.merge(neg).sample() is EMPTY


def test_merge_equals_sketch_of_sum():
    v = {1: 2, 5: -1, 9: 3}
    w = {5: 1, 9: -3, 14: 1}
    a = sketch_of(v, 16, seed=4)
    b = sketch_of(w, 16, seed=4)
    summed = {k: v.get(k, 0) + w.get(k, 0) for k in set(v) | set(w)}
    summed = {k: val for k, val in summed.items() if val}
    direct = sketch_of(summed, 16, seed=4)
    assert states_equal(a.merge(b), direct)


def test_merge_associative_commutative_bitexact():
    a = sketch_of({1: 1}, 16, seed=6)
    b = sketch_of({2: 1}, 16, seed=6)
    c = sketch_of({3: -1}, 16, seed=6)
    assert states_equal(a.merge(b), b.merge(a))
    assert states_equal(a.merge(b).merge(c), a.merge(b.merge(c)))


def test_merge_seed_mismatch():
    with pytest.raises(SeedMismatchError):
        L0Sketch(16, 0.05, seed=1).merge(L0Sketch(16, 0.05, seed=2))
    with pytest.raises(SeedMismatchError):
        L0Sketch(16, 0.05, seed=1).merge(L0Sketch(32, 0.05, seed=1))


def test_merge_repetition_mismatch():
    # same universe and seed, different repetition counts
    with pytest.raises(SeedMismatchError):
        L0Sketch(16, 0.05, seed=1).merge(L0Sketch(16, 0.3, seed=1))


def test_copy_is_independent_and_shares_seeds():
    s = L0Sketch(32, 0.05, seed=4).update(3, 1)
    before = [a.copy() for a in (s.counts, s.index_sums, s.fingerprints)]
    c = s.copy()
    c.update(9, 1).update(3, -1)
    after = (s.counts, s.index_sums, s.fingerprints)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert s.sample() == NonZeroIndex(3, 1) and c.sample() == NonZeroIndex(9, 1)
    assert c.rep_seeds is s.rep_seeds and c.z == s.z
    assert (c.universe, c.delta, c.seed, c.levels, c.reps) == (
        s.universe, s.delta, s.seed, s.levels, s.reps
    )
    assert states_equal(c.merge(L0Sketch(32, 0.05, seed=4).update(9, -1)), s.copy().update(3, -1))


def test_nonzero_index_record():
    out = NonZeroIndex(42, 1)
    assert repr(out) == "NonZeroIndex(42, +1)" and repr(NonZeroIndex(7, -1)) == "NonZeroIndex(7, -1)"
    assert out == NonZeroIndex(42, 1)
    assert out != NonZeroIndex(42, -1) and out != NonZeroIndex(41, 1)
    assert out != (42, 1)
    with pytest.raises(TypeError):
        hash(out)


def test_soundness_large_universe():
    # wide support in a large universe: any answer must come from the support
    rng = np.random.default_rng(0)
    for trial in range(50):
        support = rng.choice(1 << 20, size=100, replace=False)
        s = L0Sketch(1 << 20, 0.01, seed=trial)
        for idx in support:
            s.update(int(idx), 1)
        out = s.sample()
        assert isinstance(out, NonZeroIndex)
        assert out.index in set(int(i) for i in support)


def test_soundness_stress_weak_sketches():
    # deliberately weak sketches (delta near 1) still never return a
    # coordinate outside the support; failures are allowed, lies are not
    rng = np.random.default_rng(1)
    fails = 0
    for trial in range(2000):
        size = int(rng.integers(1, 12))
        support = rng.choice(64, size=size, replace=False)
        s = L0Sketch(64, 0.6, seed=trial)
        signs = {}
        for idx in support:
            d = 1 if rng.random() < 0.5 else -1
            s.update(int(idx), d)
            signs[int(idx)] = d
        out = s.sample()
        if out is FAIL:
            fails += 1
        else:
            assert isinstance(out, NonZeroIndex)
            assert out.index in signs
            assert out.sign == signs[out.index]
    # weak parameters should still decode most of the time
    assert fails < 400


def test_soundness_hundred_thousand_observations():
    # weak sketches over evolving signed vectors: every decoded coordinate
    # must be in the live support with the right sign, every EMPTY claim
    # must be literally true; only FAIL is allowed to be wrong
    rng = np.random.default_rng(2)
    observations = 0
    for batch in range(8000):
        s = L0Sketch(24, 0.7, seed=batch)
        vec: dict[int, int] = {}
        for _ in range(13):
            idx = int(rng.integers(24))
            d = 1 if rng.random() < 0.6 else -1
            vec[idx] = vec.get(idx, 0) + d
            if vec[idx] == 0:
                del vec[idx]
            s.update(idx, d)
            out = s.sample()
            observations += 1
            if isinstance(out, NonZeroIndex):
                assert out.index in vec
                assert out.sign == (1 if vec[out.index] > 0 else -1)
            elif out is EMPTY:
                assert not vec
    assert observations >= 100_000


def test_fingerprints_stay_in_field():
    s = sketch_of({i: 5 for i in range(10)}, 32, seed=8)
    assert (s.fingerprints >= 0).all()
    assert (s.fingerprints < PRIME).all()


def full_scan(sketch):
    """Repetition-major scan of the full [reps, levels] cells, level 0 in every repetition."""
    counts, isums, fps = sketch.counts, sketch.index_sums, sketch.fingerprints
    if not (counts[:, 0].any() or isums[:, 0].any() or fps[:, 0].any()):
        return EMPTY
    for r in range(sketch.reps):
        for lv in np.flatnonzero(counts[r]).tolist():
            c, s = int(counts[r, lv]), int(isums[r, lv])
            if c % INDEX_PRIME == 0:
                continue
            q = s * pow(c, -1, INDEX_PRIME) % INDEX_PRIME  # index sums are residues mod p'
            if q >= sketch.universe:
                continue
            if (c % PRIME) * pow(sketch.z, q, PRIME) % PRIME == int(fps[r, lv]):
                return NonZeroIndex(q, 1 if c > 0 else -1)
    return FAIL


@st.composite
def sparse_vectors(draw):
    """(universe, {index: nonzero value}) with any support size from 0 to universe.

    With `balance`, the last coordinate cancels the others' sum, so the
    level-0 count is 0 while its index sum usually is not.
    """
    universe = draw(st.integers(1, 40))
    support = draw(st.lists(st.integers(0, universe - 1), unique=True, max_size=universe))
    vector = {i: draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for i in support}
    if draw(st.booleans()) and len(support) >= 2:
        vector[support[-1]] = 0
        vector[support[-1]] = -sum(vector.values())
        vector = {i: v for i, v in vector.items() if v}
    return universe, vector


@settings(max_examples=300, deadline=None)
@given(sparse_vectors(), st.sampled_from([0.05, 0.3, 0.7]), st.integers(0, 2**32))
def test_level0_once_decode_equals_full_scan(case, delta, seed):
    universe, vector = case
    s = sketch_of(vector, universe, delta=delta, seed=seed)
    assert s.sample() == full_scan(s)


def test_zero_level0_count_with_nonzero_index_sum_decodes_like_full_scan():
    for seed in range(200):
        s = sketch_of({2: 1, 5: -1}, 8, delta=0.3, seed=seed)
        assert s.counts[0, 0] == 0 and s.index_sums[0, 0] == INDEX_PRIME - 3
        out = s.sample()
        assert out == full_scan(s)
        assert out is FAIL or out in (NonZeroIndex(2, 1), NonZeroIndex(5, -1))


def test_block_keeps_level0_once_then_levels_rep_major():
    reps, levels = 3, 4
    cells = np.arange(reps * levels).reshape(reps, levels)
    cells[:, 0] = 99  # level 0 is the same in every repetition
    block = to_block(cells)
    assert block.tolist() == [99, 1, 2, 3, 5, 6, 7, 9, 10, 11]
    assert np.array_equal(from_block(block, reps), cells)
    stacked = np.stack([cells, cells + 100])  # leading axes pass through
    assert np.array_equal(to_block(stacked), np.stack([block, to_block(cells + 100)]))
    assert np.array_equal(from_block(to_block(stacked), reps), stacked)



def test_block_of_fewer_repetitions_is_a_prefix():
    """A sketch's block is the head of the block of the same sketch with more repetitions."""
    universe = 200
    small, large = L0Sketch(universe, 0.3, 5), L0Sketch(universe, 0.01, 5)
    assert small.reps < large.reps and small.levels == large.levels
    rng = np.random.default_rng(3)
    for index in rng.choice(universe, size=40, replace=False).tolist():
        step = int(rng.choice([-2, -1, 1, 3]))
        small.update(index, step)
        large.update(index, step)
    head = block_cells(small.reps, small.levels)
    for a, b in (
        (small.counts, large.counts),
        (small.index_sums, large.index_sums),
        (small.fingerprints, large.fingerprints),
    ):
        assert np.array_equal(to_block(a), to_block(b)[:head])

@pytest.mark.parametrize("delta", [0.5, 0.1, 1e-2, 1e-4, 1e-8])
def test_repetition_count_meets_the_decode_bound(delta):
    # every repetition decodes with probability >= 2/3, so R of them all fail
    # with probability <= (1/3)^R (see the l0 module docstring)
    assert (1 / 3) ** repetition_count(delta) <= delta


def test_repetition_count_is_ceil_of_scaled_log_inverse():
    for delta in np.geomspace(1e-300, 0.5, 4000).tolist() + [0.5, 0.1, 0.05, 1e-2, 1e-8]:
        assert repetition_count(delta) == max(1, math.ceil(REP_SCALE * math.log(1 / delta)))
    assert repetition_count(0.99) == 1


def test_repetition_count_of_tiny_budgets():
    # 1/delta overflows below about 5.6e-309; -ln(delta) stays finite
    assert repetition_count(5e-324) == 1489  # ceil(2 * 744.44)
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            repetition_count(delta)


def test_per_repetition_decode_rate_is_above_the_bound():
    """Over supports of 1..64 coordinates, repetitions decode at >= 0.6 (bound 2/3)."""
    universe, delta, top = 2016, 0.1, 64  # the pair universe of n = 64
    rng = np.random.default_rng(0)
    decoded = np.zeros(top + 1)
    read = np.zeros(top + 1)
    for seed in range(200):
        s = L0Sketch(universe, delta, seed)
        support = rng.choice(universe, size=top, replace=False).tolist()
        for size, index in enumerate(support, start=1):
            s.update(index, 1 if size % 2 else -1)
            block = [to_block(a) for a in (s.counts, s.index_sums, s.fingerprints)]
            levels = repetition_levels(*block, s.reps, s.z, universe)
            decoded[size] += np.sum(levels >= 0)
            read[size] += len(levels)
    assert decoded.sum() / read.sum() >= 0.6
    assert (decoded[1:] / read[1:]).min() >= 0.6  # each size, s = 2 the lowest at 2/3
    assert decoded[1] == read[1]  # a single coordinate always decodes
