"""Spanning forests of induced subgraphs extracted from per-vertex sketches.

Each member vertex keeps one sketch per round over the global edge-pair
universe, encoding its incidence vector antisymmetrically: edge {u,v}
with u < v adds +m at the pair index to u's sketch and -m to v's. Summing
the sketches of a connected component cancels internal edges, leaving
exactly the edges that leave the component, which is what each round of
the contraction samples. Rounds use independent sketch batteries so the
randomness consumed by earlier merge decisions never biases later
samples; components at least halve per successful round, so
ceil(log2 n) + 1 rounds suffice.

State layout. The cells of every bank live in one SketchStore: three flat
int64 arrays (count, index sum, fingerprint). A bank is a row of the
store: its members, its repetition count and the offset of its one
contiguous block of cells, laid out [member, round, level, rep]. The
repetition count depends only on the number of members, so the store
works it out once per distinct subset size and lays out every bank's
offset with one cumsum; the store is ragged and holds no padding.
ForestSketchBank is a view of one row: built directly, it makes a store
that holds just that bank.

Randomness. The store owns one seed and derives one sketch battery per
round, sketch_seeds(derive_seed(seed, "round", r), max_reps): repetition
seeds, a subsampling seed and a fingerprint base z. Every bank uses the
first `reps` repetition seeds of that battery, which is exactly what
L0Sketch(universe, sketch_delta, round_seed) derives, so the cells of one
(bank, member, round) equal that reference sketch fed the member's signed
incidence updates. Sharing a battery across banks is sound: a bank's
failure bound is a union bound over its own samples and never uses
independence between banks, and each round's battery is fresh, so the
components that earlier rounds formed are independent of it. What
sharing gives up is independence between banks' failures: banks with the
same members hold identical cells and fail together, so a second bank
over the same member set is no second attempt (the certifier builds one
bank for k = 1, where every subset is the whole vertex set).

An event is folded into all the banks holding both endpoints in one
vectorized pass: one hash over [round, rep], one z^index per round, and
one fancy-indexed add per field and endpoint.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import EdgeSet, UnionFind, UpdateEvent, validate_event
from .l0 import (
    FAIL,
    PRIME,
    L0Sketch,
    NonZeroIndex,
    deepest_levels,
    level_count,
    repetition_count,
    sample_cells,
    serialized_size,
    sketch_seeds,
)
from .seeds import derive_seed


def pair_index(u: int, v: int, n: int) -> int:
    """Compacted triangular index of the unordered pair {u,v}, u < v."""
    if u > v:
        u, v = v, u
    if not (0 <= u < v < n):
        raise ValueError(f"bad pair ({u},{v}) for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_from_index(idx: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index via binary search on row offsets."""
    total = n * (n - 1) // 2
    if not (0 <= idx < total):
        raise ValueError(f"pair index {idx} not in 0..{total - 1}")
    lo, hi = 0, n - 1  # row u satisfies offset(u) <= idx < offset(u+1)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid * (2 * n - mid - 1) // 2 <= idx:
            lo = mid
        else:
            hi = mid
    u = lo
    v = idx - u * (2 * n - u - 1) // 2 + u + 1
    return u, v


def round_count(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) + 1 if n > 1 else 1


def pair_universe(n: int) -> int:
    """Size of the edge-pair universe every sketch indexes."""
    return max(1, n * (n - 1) // 2)


def sketch_delta(n: int, member_count: int, delta: float) -> float:
    """Per-sketch failure budget of a bank.

    The bank delta is split over the at most rounds * |members| samples
    an extraction can draw (union bound).
    """
    return min(0.5, delta / max(1, round_count(n) * member_count))


@functools.cache
def bank_shape(n: int, member_count: int, delta: float) -> tuple[int, int]:
    """(repetitions, serialized bytes) of a bank with member_count members.

    A pure function of its parameters, memoized so that the space-cap
    check, the store's layout and serialized_size share one computation
    per distinct subset size.
    """
    reps = repetition_count(sketch_delta(n, member_count, delta))
    size = serialized_size(reps, level_count(pair_universe(n)))
    return reps, member_count * round_count(n) * size


def bank_bytes(n: int, member_count: int, delta: float) -> int:
    """Serialized bytes of a bank's sketches, a pure function of its parameters."""
    return bank_shape(n, member_count, delta)[1]


@dataclass
class ForestExtraction:
    """Result of one extraction: the forest plus failure bookkeeping."""

    forest: EdgeSet
    sample_failures: int
    rounds_used: int


class ForestSketchBank:
    """One bank of a SketchStore: a view of the store's row `index`.

    Built directly, a bank makes a store of its own that holds just this
    bank and is seeded with the bank's seed; the dynamic certifier's
    banks are views (ForestSketchBank.view) of its one shared store.
    """

    def __init__(self, n: int, members, delta: float, seed: int):
        members = [int(v) for v in members]
        for v in members:
            if not (0 <= v < n):
                raise ValueError(f"member {v} not in 0..{n - 1}")
        mask = np.zeros((1, n), dtype=bool)
        mask[0, members] = True
        self.store = SketchStore(n, mask, delta, seed)
        self.index = 0

    @classmethod
    def view(cls, store: "SketchStore", index: int) -> "ForestSketchBank":
        """The bank in row index of store."""
        bank = cls.__new__(cls)
        bank.store, bank.index = store, index
        return bank

    @property
    def members(self) -> tuple[int, ...]:
        """The member vertices, in increasing order."""
        return tuple(np.flatnonzero(self.store._slot[:, self.index] >= 0).tolist())

    @property
    def rounds(self) -> int:
        return self.store.rounds

    def update(self, e: UpdateEvent) -> "ForestSketchBank":
        """Fold one stream event in; no-op unless both endpoints are members."""
        store = self.store
        validate_event(e, store.n)
        lo, hi = min(e.i, e.j), max(e.i, e.j)
        if store._slot[lo, self.index] >= 0 and store._slot[hi, self.index] >= 0:
            store.fold(np.array([self.index]), lo, hi, e.delta)
        return self

    def extract(self) -> ForestExtraction:
        """Recover a spanning forest of the induced subgraph on the members.

        Contraction rounds: merge each current component's round-r
        sketches, sample one outgoing edge per component, union the
        sampled edges. Stops early once a round samples nothing. Sample
        failures (and any decode whose endpoints fall outside the member
        set, which the fingerprint makes astronomically unlikely) are
        counted, not fatal.
        """
        store = self.store
        size = int(store.sizes[self.index])
        forest = EdgeSet(store.n)
        if size <= 1:
            return ForestExtraction(forest, 0, 0)
        blocks = store.blocks(self.index)
        slot = store._slot[:, self.index].tolist()
        uf = UnionFind(size)
        failures = 0
        rounds_used = 0
        for r in range(store.rounds):
            comps: dict[int, list[int]] = {}
            for pos in range(size):
                comps.setdefault(uf.find(pos), []).append(pos)
            if len(comps) == 1:
                break
            rounds_used += 1
            cells = [b[:, r] for b in blocks]
            # a member whose level-0 cells are all zero samples EMPTY
            live = (
                cells[0][:, 0].any(axis=1)
                | cells[1][:, 0].any(axis=1)
                | cells[2][:, 0].any(axis=1)
            ).tolist()
            sampled: list[tuple[int, int]] = []
            for root in sorted(comps):
                positions = comps[root]
                if len(positions) == 1:
                    if not live[positions[0]]:
                        continue
                    counts, isums, fps = (c[positions[0]] for c in cells)
                else:
                    counts, isums, fps = _merged(cells, positions)
                outcome = sample_cells(counts.T, isums.T, fps.T, store.z[r], store.universe)
                if outcome is FAIL:
                    failures += 1
                elif isinstance(outcome, NonZeroIndex):
                    u, v = pair_from_index(outcome.index, store.n)
                    if slot[u] >= 0 and slot[v] >= 0:
                        sampled.append((u, v))
                    else:
                        failures += 1
            if not sampled:
                break
            for u, v in sampled:
                if uf.union(slot[u], slot[v]):
                    forest.add(u, v)
        return ForestExtraction(forest, failures, rounds_used)

    def serialized_size(self) -> int:
        store = self.store
        return bank_bytes(store.n, int(store.sizes[self.index]), store.delta)

    def sketch(self, vertex: int, round_: int) -> L0Sketch:
        """A copy of one member's round sketch, as an L0Sketch (tests, demos)."""
        store = self.store
        pos = store._slot[vertex, self.index]
        if pos < 0:
            raise ValueError(f"vertex {vertex} is not a member of the bank")
        delta = sketch_delta(store.n, int(store.sizes[self.index]), store.delta)
        sk = L0Sketch(store.universe, delta, store.round_seed(round_))
        sk.counts, sk.index_sums, sk.fingerprints = (
            b[pos, round_].T.copy() for b in store.blocks(self.index)
        )
        return sk


def _merged(cells, positions: list[int]):
    """Cell-wise sum of the members' [level, rep] cells; fingerprints mod PRIME."""
    counts, isums, fps = (c[positions[0]].copy() for c in cells)
    for added, pos in enumerate(positions[1:], 1):
        counts += cells[0][pos]
        isums += cells[1][pos]
        fps += cells[2][pos]
        if added % 3 == 0:
            # a reduced sum plus three fingerprints, each < PRIME < 2^61, fits in int64
            fps %= PRIME
    fps %= PRIME
    return counts, isums, fps


class SketchStore:
    """The cells of many forest banks in three flat int64 arrays.

    masks is a [banks, n] boolean array whose row b marks the members of
    bank b. A bank is a row of the store: its members, its repetition
    count reps[b] (a function of its member count sizes[b], worked out
    once per distinct count) and the offset of its [member, round, level,
    rep] block of cells, handed out by blocks(b); ForestSketchBank is a
    view of one row. See the module docstring for the layout and the
    seeding. Cells are allocated with np.zeros and never pre-touched, so
    pages of cells no event reaches stay unbacked. Per-row tables, one
    row per (bank, round, rep), hold what the vectorized update needs:
    the row's position round * max_reps + rep in the round batteries, and
    the cell of member 0 at level 0. Every table is laid out with cumsum
    and repeat over the banks, not bank by bank.
    """

    def __init__(self, n: int, masks: np.ndarray, delta: float, seed: int):
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must be in (0,1), got {delta}")
        self.n = n
        self.delta = delta
        self.seed = seed
        self.rounds = round_count(n)
        self.universe = pair_universe(n)
        self.levels = level_count(self.universe)
        self.sizes = masks.sum(axis=1)
        distinct, size_of_bank = np.unique(self.sizes, return_inverse=True)
        reps = [bank_shape(n, m, delta)[0] for m in distinct.tolist()]
        self.reps = np.array(reps, dtype=np.int64)[size_of_bank]
        self._max_reps = int(self.reps.max())
        rep_seeds, sub_seeds, self.z = zip(
            *(sketch_seeds(self.round_seed(r), self._max_reps) for r in range(self.rounds))
        )
        # [round, rep] and [round, 1]: one hash draws the levels of every round
        self._round_rep_seeds = np.stack(rep_seeds)
        self._round_sub_seeds = np.array(sub_seeds, dtype=np.uint64)[:, None]
        # _slot[v, b]: position of vertex v among bank b's members, or -1
        self._slot = np.where(masks, np.cumsum(masks, axis=1) - 1, -1).T.copy()
        cells = self.sizes * self.rounds * self.levels * self.reps
        self._offset = np.cumsum(cells) - cells
        # rows run round-major, rep-minor within a bank
        self._rows = self.rounds * self.reps
        self._row_start = np.cumsum(self._rows) - self._rows
        bank = np.repeat(np.arange(len(masks)), self._rows)
        round_, rep = np.divmod(np.arange(len(bank)) - self._row_start[bank], self.reps[bank])
        self._row_keys = round_ * self._max_reps + rep
        self._row_cells = self._offset[bank] + round_ * self.levels * self.reps[bank] + rep
        self._member_stride = self.levels * self._rows
        total = int(cells.sum())
        self.counts = np.zeros(total, dtype=np.int64)
        self.index_sums = np.zeros(total, dtype=np.int64)
        self.fingerprints = np.zeros(total, dtype=np.int64)

    def round_seed(self, r: int) -> int:
        """Seed of round r's battery, shared by every bank of the store."""
        return derive_seed(self.seed, "round", r)

    def blocks(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bank b's counts, index sums and fingerprints as [member, round, level, rep] views."""
        shape = (int(self.sizes[b]), self.rounds, self.levels, int(self.reps[b]))
        start = int(self._offset[b])
        cells = slice(start, start + math.prod(shape))
        return tuple(
            a[cells].reshape(shape) for a in (self.counts, self.index_sums, self.fingerprints)
        )

    def update(self, e: UpdateEvent) -> None:
        """Fold an already validated event into every bank holding both endpoints."""
        lo, hi = min(e.i, e.j), max(e.i, e.j)
        hit = np.nonzero((self._slot[lo] >= 0) & (self._slot[hi] >= 0))[0]
        if len(hit):
            self.fold(hit, lo, hi, e.delta)

    def fold(self, hit: np.ndarray, lo: int, hi: int, delta: int) -> None:
        """Add delta at pair {lo, hi} to lo's sketches and -delta to hi's.

        Every bank in hit must hold both endpoints, and lo < hi.
        """
        idx = pair_index(lo, hi, self.n)
        depths = 1 + deepest_levels(
            self._round_sub_seeds, self._round_rep_seeds, idx, self.levels
        ).ravel()
        zpow = np.array([pow(z, idx, PRIME) for z in self.z], dtype=np.int64)
        reps = self.reps[hit]
        per_bank = self._rows[hit]
        rows = _ragged_arange(self._row_start[hit], per_bank)
        keys = self._row_keys[rows]
        # a row's cells are its levels 0..deepest, reps apart
        depth = depths[keys]
        stride = self._member_stride[hit]
        lo_slot, hi_slot = self._slot[lo, hit], self._slot[hi, hit]
        lo_rows = self._row_cells[rows] + np.repeat(lo_slot * stride, per_bank)
        hi_shift = np.repeat((hi_slot - lo_slot) * stride, per_bank)
        level_step = np.repeat(np.repeat(reps, per_bank), depth)
        lo_cells = _ragged_arange(lo_rows, depth, level_step)
        hi_cells = lo_cells + np.repeat(hi_shift, depth)
        dz = delta * np.repeat(zpow[keys // self._max_reps], depth)
        self.counts[lo_cells] += delta
        self.counts[hi_cells] -= delta
        self.index_sums[lo_cells] += delta * idx
        self.index_sums[hi_cells] -= delta * idx
        fps = self.fingerprints
        fps[lo_cells] = (fps[lo_cells] + dz) % PRIME
        fps[hi_cells] = (fps[hi_cells] - dz) % PRIME


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray, steps=1) -> np.ndarray:
    """Concatenation of start + step * arange(length) over the given starts and lengths.

    steps is a scalar or one step per output element.
    """
    ends = np.cumsum(lengths)
    within = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
    return np.repeat(starts, lengths) + within * steps
