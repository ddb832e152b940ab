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

State layout. The cells of every bank live in one SketchStore: one flat
array of 16-byte records of CELL_DTYPE, each an int32 count, an int32
index sum and an int64 fingerprint, so one cell is one read and one
write. The store's counts, index_sums and fingerprints are field views of
that array, not copies. A count is a signed sum of live edge
multiplicities, so the certifier keeps their total below p' = 2^31 - 1
(StreamCertifier.update), which also keeps every nonzero count invertible
mod p'. Index sums are residues mod p' (l0.INDEX_PRIME): a one-sparse
cell's residue names its pair as long as every pair index is below p',
so the store takes n <= MAX_N = 65 536. Fingerprints are residues mod
p = 2^61 - 1. Every sketch of the store has the same repetition count
reps, a function of n and delta alone (sketch_delta), so every
(member, round) block has the same width: the
level-0 cell followed by each repetition's levels >= 1 in turn,
1 + reps * (levels - 1) cells in all (l0.to_block). Level 0 admits every
coordinate, so it is the same in every repetition and is kept once. A
bank is a row of the store: its members and the offset of its one
contiguous run of cells, laid out [member, round, cell]; a member's
cells take one fixed stride, so the offsets are the cumsum of the member
counts times that stride, and the store holds no padding.
ForestSketchBank is a view of one row: built directly, it makes a store
that holds just that bank.

Bytes. A bank costs what the store allocates for it (bank_bytes): its
cells, at the itemsize of one CELL_DTYPE record (16 bytes), plus its
column of the _slot membership table, n entries of SLOT_DTYPE. That is
affine in the member count, so the sum over the banks is the total
member count times one member's cells plus one _slot column per bank,
exactly the nbytes of the store's two arrays, its records and _slot: a
cap on that sum, checked before the store exists, caps what it
allocates. The store's dirty mask, one bool per bank, is bookkeeping
for queries, not a cell array, and is not charged.

Randomness. The store owns one seed and derives one sketch battery per
round, sketch_seeds(derive_seed(seed, "round", r), reps): repetition
seeds, a subsampling seed and a fingerprint base z. That is exactly what
L0Sketch(universe, sketch_delta(n, delta), round_seed) derives, so the
cells of one (bank, member, round) equal to_block of that reference
sketch fed the member's signed incidence updates.
A bank's failure bound counts the samples an extraction can draw before
its first FAIL. Consider an extraction in which every sample so far
succeeded. A component whose cut is empty sums to an all-zero block
(internal edges cancel), so it decodes EMPTY every time and can never
FAIL. Every other component
decodes an edge into another component with a nonempty cut and joins it,
so the c_t components with a nonempty cut before round t become at most
c_t / 2 after it. Starting from at most m live members, a bank therefore
draws fewer than 2m <= 2n non-EMPTY samples before its first failure,
and by a union bound over them P(the bank has any FAIL) <= (2m - 1) *
(1/3)^reps < delta, with (1/3)^reps <= delta / (2n) (l0.repetition_count).
The union bound conditions cleanly on the history because each round's
battery is fresh: the components earlier rounds formed are independent
of it. Sharing a battery across banks is sound too: the bound is over a
bank's own samples and never uses independence between banks. What
sharing gives up is independence between banks' failures: banks with
the same members hold identical cells and fail together, so a second
bank over the same member set is no second attempt (the certifier builds
one bank for k = 1, where every subset is the whole vertex set).
Extraction also trusts every zero level-0 cell it reads: a member whose
round-0 level-0 cell is zero is never decoded, and a component that
decodes EMPTY is retired. A nonzero vector sums to a zero level-0 cell
only if its fingerprint, a nonzero polynomial of degree below U in z,
vanishes at that round's z: probability at most U/p, with U the pair
universe. An extraction reads m such cells for its live test and retires
at most 2m - 1 components (m members and at most m - 1 unions), each in
a round whose battery is fresh to it, so it drops a nonempty cut with
probability at most (3m - 1) U/p < 1.5 n^3 / p: below 10^-9 for n up to
1000, and about 1.8 * 10^-4 at MAX_N. A dropped cut is no FAIL; it leaves
the forest short of a component's edges.

An event is folded into all the banks holding both endpoints in one
vectorized pass: one hash over [round, rep], one z^index per round, one
pattern of the reached cells' offsets within a member's rounds, one
fancy-indexed gather of the records it reaches over both endpoints of
every hit bank, three field updates on the gathered copy and one
scatter back.
Extraction runs over many banks of one store at once (SketchStore.forests,
entered through ForestSketchBank.extract): one batched pass per round
over every (bank, member) row. It starts from the live members, those
whose round-0 level-0 cell is nonzero; a member that is not live samples
EMPTY in every round and is never decoded. Every row is labelled by its
component's smallest row, and each round decodes every component still
to be decoded, in ascending order of those labels, with one call of
l0.sample_rows. Components are not kept summed:
a component's round-r cells are summed afresh from its members' blocks,
grouped by a stable sort, with np.add.reduceat, counts in int64, index
sums mod p' and fingerprints mod p (their low 31 and high 30 bits added
apart and folded with 2^61 = 1 mod p). Sums are associative, so these are
the cells of the component's summed incidence vector, and extraction
never writes into the store. They are read one repetition at a time: level
0 and repetition 0 first, then each further repetition only for the
components no earlier one decoded, so the scratch holds at most one
repetition's cells of every member. One graph.spanning_forest call over
every bank's sampled edges then keeps those that Kruskal's algorithm
keeps when it scans them in ascending order of the sampling component's
smallest member (a bank's rows run in member order), the order that
fixes which edge of a sampled cycle the forest drops, and relabels the
joined components, each again by its smallest row; a component is
marked to be decoded wherever a row's label changed. A component that
decodes EMPTY has an empty cut, so it would decode EMPTY in every later
round: it is not decoded again unless a join, which takes a false
decode, absorbs it.
A bank stops once the rounds run out or at most one of its components is
left to decode.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import l0
from .graph import EdgeSet, UpdateEvent, spanning_forest, validate_event
# sample_cells is not called here; bench/tracer.py times it wherever it is bound, and
# tests/test_extract_differential.py's reference loop calls forest.sample_cells
from .l0 import (  # noqa: F401
    INDEX_PRIME,
    PRIME,
    ROW_EMPTY,
    ROW_FAIL,
    L0Sketch,
    block_cells,
    deepest_levels,
    from_block,
    level_count,
    repetition_cells,
    repetition_count,
    sample_cells,
    sketch_seeds,
    to_block,
)
from .seeds import derive_seed

# what SketchStore allocates: one record per cell (count, index sum mod
# INDEX_PRIME, fingerprint mod PRIME) and the _slot table; bank_bytes
# charges the same dtypes
CELL_DTYPE = np.dtype([("count", np.int32), ("index_sum", np.int32), ("fingerprint", np.int64)])
SLOT_DTYPE = np.int64
# largest n the store takes: the largest whose n (n - 1) / 2 pair indices
# are all below INDEX_PRIME, so an index-sum residue names one pair (65 536)
MAX_N = (1 + math.isqrt(1 + 8 * INDEX_PRIME)) // 2
_LOW30, _LOW31 = (1 << 30) - 1, (1 << 31) - 1


def check_vertex_count(n: int) -> None:
    """Raise ValueError for an n above MAX_N, which the store cannot take.

    Above MAX_N a pair index can reach INDEX_PRIME, so two pairs would
    share one index-sum residue and a decode could not tell them apart.
    """
    if n > MAX_N:
        raise ValueError(
            f"n={n} exceeds {MAX_N}, above which pair indices reach the index sums' "
            f"modulus 2^31 - 1"
        )


def _mod_once(u: np.ndarray, p: int, out: np.ndarray) -> None:
    """u mod p into out, for an unsigned array u below 2p: u - p wraps around where u < p."""
    np.minimum(u, u - u.dtype.type(p), out=out)


def pair_index(u: int, v: int, n: int) -> int:
    """Compacted triangular index of the unordered pair {u,v}, u < v."""
    if u > v:
        u, v = v, u
    if not (0 <= u < v < n):
        raise ValueError(f"bad pair ({u},{v}) for n={n}")
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_from_index(idx: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index: a one-element call of pairs_from_indices."""
    total = n * (n - 1) // 2
    if not (0 <= idx < total):
        raise ValueError(f"pair index {idx} not in 0..{total - 1}")
    u, v = pairs_from_indices(np.array([idx], dtype=np.int64), n)
    return int(u[0]), int(v[0])


def pairs_from_indices(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, of an int64 array of pair indices below n (n - 1) / 2.

    Counted from the last pair, m = total - 1 - idx lies in row
    j = n - 2 - u from the end, which holds j + 1 pairs and starts at
    j (j + 1) / 2, so j = floor((sqrt(8 m + 1) - 1) / 2). The square root
    is taken in float64 and corrected to the exact integer one.
    """
    x = 8 * (n * (n - 1) // 2 - 1 - idx) + 1
    root = np.sqrt(x).astype(np.int64)
    root -= root * root > x
    root += (root + 1) * (root + 1) <= x
    u = n - 2 - (root - 1) // 2
    return u, idx - u * (2 * n - u - 1) // 2 + u + 1


def round_count(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) + 1 if n > 1 else 1


def pair_universe(n: int) -> int:
    """Size of the edge-pair universe every sketch indexes."""
    return max(1, n * (n - 1) // 2)


def sketch_delta(n: int, delta: float) -> float:
    """Per-sketch failure budget of every bank of an n-vertex store.

    An extraction decodes fewer than 2n non-EMPTY samples before its first
    FAIL (module docstring, Randomness), so delta / (2n) per sample keeps
    a bank's chance of any FAIL below delta (union bound).
    """
    return delta / (2 * n)


def bank_bytes(n: int, member_count: int, delta: float) -> int:
    """Bytes SketchStore allocates for a bank, a pure function of its parameters.

    member_count * rounds blocks of block_cells(reps, levels) cells at the
    itemsize of one CELL_DTYPE record, 16 bytes, plus the bank's column of
    the _slot table, n entries of SLOT_DTYPE. Affine in member_count:
    every bank of an n-vertex store has the same reps.
    """
    reps = repetition_count(sketch_delta(n, delta))
    cells = member_count * round_count(n) * block_cells(reps, level_count(pair_universe(n)))
    return cells * CELL_DTYPE.itemsize + n * np.dtype(SLOT_DTYPE).itemsize


class ForestExtraction(NamedTuple):
    """Result of one extraction, immutable: the forest plus failure bookkeeping.

    sample_failures counts the decodes that failed or named a pair outside
    the members. rounds_used counts the rounds that decoded something: a
    round runs only while at least two components are left to decode,
    those that have not decoded EMPTY, so a retired component is never
    decoded again and the rounds stop once all but one are retired.
    No field can be assigned, and forest is read-only (EdgeSet.frozen):
    its pair set is a frozenset, so forest.add raises.
    """

    forest: EdgeSet
    sample_failures: int
    rounds_used: int


class ForestSketchBank:
    """One bank of a SketchStore: a view of the store's row `index`.

    Built directly, a bank makes a store of its own that holds just this
    bank and is seeded with the bank's seed; the dynamic certifier's
    banks are views (ForestSketchBank.view) of its one shared store.
    extraction is the bank's latest ForestExtraction (None before the
    first), kept by extract.
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
        self.extraction: ForestExtraction | None = None

    @classmethod
    def view(cls, store: "SketchStore", index: int) -> "ForestSketchBank":
        """The bank in row index of store."""
        bank = cls.__new__(cls)
        bank.store, bank.index, bank.extraction = store, index, None
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

    def extract(self, *others: "ForestSketchBank") -> ForestExtraction:
        """Recover spanning forests of this bank and of others, views of the same store.

        One batched pass over every bank given (SketchStore.forests):
        each bank's ForestExtraction is kept as its `extraction`, and this
        bank's is returned. Reads the store and never writes it.
        """
        banks = (self, *others)
        if any(bank.store is not self.store for bank in others):
            raise ValueError("banks extracted together must be views of one store")
        for bank, extraction in zip(banks, self.store.forests([b.index for b in banks])):
            bank.extraction = extraction
        return self.extraction

    def sketch(self, vertex: int, round_: int) -> L0Sketch:
        """A copy of one member's round sketch, as an L0Sketch (tests, demos)."""
        store = self.store
        pos = store._slot[vertex, self.index]
        if pos < 0:
            raise ValueError(f"vertex {vertex} is not a member of the bank")
        sk = L0Sketch(store.universe, sketch_delta(store.n, store.delta), store.round_seed(round_))
        for a, b in zip((sk.counts, sk.index_sums, sk.fingerprints), store.blocks(self.index)):
            a[...] = from_block(b[pos, round_], sk.reps)
        return sk


class SketchStore:
    """The cells of many forest banks in one flat array of records, `cells`.

    One 16-byte CELL_DTYPE record a cell: an int32 count, an int32 index
    sum mod 2^31 - 1 and an int64 fingerprint mod 2^61 - 1. counts,
    index_sums and fingerprints are field views of cells, so a write
    through either shows in the other. n may be at most
    MAX_N = 65 536, the largest whose pair indices stay below 2^31 - 1.
    masks is a [banks, n] boolean array whose row b marks the members of
    bank b. Every sketch has reps repetitions, repetition_count of
    sketch_delta(n, delta), so every (member, round) block is l0.to_block
    of its cells: the level-0 cell, then each repetition's levels >= 1 in
    turn, block_cells(reps, levels) in all. A bank is a row of the store:
    its members and the offset of its [member, round, cell] cells, handed
    out by blocks(b); ForestSketchBank is a view of one row. See the
    module docstring for the layout, the seeding and the bytes (each
    bank's bank_bytes, so the nbytes of cells and _slot is their sum). Cells are
    allocated with np.zeros and never pre-touched, so pages of cells no
    event reaches stay unbacked. dirty[b] marks bank b as changed since
    its owner last cleared the marks: it starts True for every bank and
    fold, the only writer of cells, sets it for each bank it reaches.
    """

    def __init__(self, n: int, masks: np.ndarray, delta: float, seed: int):
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must be in (0,1), got {delta}")
        check_vertex_count(n)
        self.n = n
        self.delta = delta
        self.seed = seed
        self.rounds = round_count(n)
        self.universe = pair_universe(n)
        self.levels = level_count(self.universe)
        self.sizes = masks.sum(axis=1)
        self.reps = repetition_count(sketch_delta(n, delta))
        rep_seeds, sub_seeds, self.z = zip(
            *(sketch_seeds(self.round_seed(r), self.reps) for r in range(self.rounds))
        )
        # [round, rep] and [round, 1]: one hash draws the levels of every round
        self._round_rep_seeds = np.stack(rep_seeds)
        self._round_sub_seeds = np.array(sub_seeds, dtype=np.uint64)[:, None]
        # _slot[v, b]: position of vertex v among bank b's members, or -1
        slots = np.where(masks, np.cumsum(masks, axis=1) - 1, -1)
        self._slot = slots.T.astype(SLOT_DTYPE, order="C")
        self._width = block_cells(self.reps, self.levels)
        self._member_stride = self.rounds * self._width
        self._offset = (np.cumsum(self.sizes) - self.sizes) * self._member_stride
        total = int(self.sizes.sum()) * self._member_stride
        self.cells = np.zeros(total, dtype=CELL_DTYPE)
        self.counts, self.index_sums, self.fingerprints = (self.cells[f] for f in CELL_DTYPE.names)
        self.dirty = np.ones(len(masks), dtype=bool)

    def round_seed(self, r: int) -> int:
        """Seed of round r's battery, shared by every bank of the store."""
        return derive_seed(self.seed, "round", r)

    def blocks(self, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bank b's counts, index sums and fingerprints as [member, round, cell] views.

        A (member, round) block is l0.to_block of that sketch's [reps,
        levels] cells, the same width in every bank.
        """
        size, start = int(self.sizes[b]), int(self._offset[b])
        cells = slice(start, start + size * self._member_stride)
        shape = (size, self.rounds, self._width)
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

        Every bank in hit must hold both endpoints, and lo < hi. Every
        block has one width, so the cells an event reaches within a
        member's rounds are one pattern of offsets, worked out once and
        added to the base of each endpoint in every hit bank. Those
        records are gathered once, their three fields updated in the
        gathered copy, and scattered back once; no cell is reached twice,
        so the scatter loses no update. Each index sum and fingerprint is
        a reduced residue and gains a reduced addend, the residue of
        +-delta * idx mod INDEX_PRIME (through a uint32 view) and of
        +-delta * z^idx mod PRIME (through a uint64 view), so one
        compare-subtract (_mod_once) reduces each sum. The only writer of
        cells, so it marks every hit bank dirty.
        """
        self.dirty[hit] = True
        idx = pair_index(lo, hi, self.n)
        # depth[round, rep]: the deepest level the pair lands in
        depth = deepest_levels(self._round_sub_seeds, self._round_rep_seeds, idx, self.levels)
        # the addends of lo's cells, then hi's: [endpoint] for index sums, [endpoint, round]
        # for fingerprints
        zpow = [pow(z, idx, PRIME) for z in self.z]
        fp_step = np.array(
            [[delta * x % PRIME for x in zpow], [-delta * x % PRIME for x in zpow]], dtype=np.uint64
        )
        idx_step = np.array([delta * idx % INDEX_PRIME, -delta * idx % INDEX_PRIME], dtype=np.uint32)
        # the cells the pair lands in within one member's rounds, as flat [round, cell] offsets
        pattern = np.flatnonzero(to_block(np.arange(self.levels) <= depth[:, :, None]))
        members = np.stack((self._slot[lo, hit], self._slot[hi, hit]))
        cells = (self._offset[hit] + members * self._member_stride)[:, :, None] + pattern
        records = self.cells[cells]
        records["count"] += np.array([delta, -delta])[:, None, None]
        isums = records["index_sum"].view(np.uint32)
        _mod_once(isums + idx_step[:, None, None], INDEX_PRIME, out=isums)
        fps = records["fingerprint"].view(np.uint64)
        _mod_once(fps + fp_step[:, None, pattern // self._width], PRIME, out=fps)
        self.cells[cells] = records

    def forests(self, banks) -> list[ForestExtraction]:
        """Spanning forests of the induced subgraphs of the given banks, in one pass.

        One ForestExtraction per bank, in the order given. Contraction
        rounds run over every (bank, member) row at once, each bank's
        members numbered from its first row and each row labelled by its
        component's smallest row (module docstring, extraction): every
        round sums and decodes each bank's components still to be decoded
        with one l0.sample_rows call, then one graph.spanning_forest call
        keeps each bank's sampled edges that Kruskal keeps scanning them
        in ascending order of the sampling components' smallest rows, and
        joins their components. Each forest is read-only
        (EdgeSet.frozen). Sample failures (and any decode whose
        endpoints fall outside its bank's members, which the fingerprint
        makes astronomically unlikely) are counted, not fatal. Reads the
        cells and never writes them: the live test and each read gather
        whole records once and take the three fields from that copy.
        """
        banks = np.asarray(banks, dtype=np.int64)
        sizes = self.sizes[banks]
        first = np.cumsum(sizes) - sizes  # each bank's first row
        rows = int(sizes.sum())
        row_bank = np.repeat(np.arange(len(banks)), sizes)  # position in banks
        # each row's round-0 level-0 cell
        member = np.arange(rows) - first[row_bank]
        base = self._offset[banks][row_bank] + member * self._member_stride
        # read at each root: its component is decoded in the next round
        live = self.cells[base]
        decode_next = np.any([live[f] != 0 for f in CELL_DTYPE.names], axis=0)
        label = np.arange(rows)  # each row's component, named by its smallest row
        edges: list[list[tuple[int, int]]] = [[] for _ in banks]
        failures = np.zeros(len(banks), dtype=np.int64)
        rounds_used = np.zeros(len(banks), dtype=np.int64)
        running = np.ones(len(banks), dtype=bool)
        passes = repetition_cells(self.reps, self.levels)
        for r in range(self.rounds):
            roots = decode_next & (label == np.arange(rows))
            running &= np.bincount(row_bank[roots], minlength=len(banks)) >= 2
            if not running.any():
                break
            rounds_used += running
            comps = np.flatnonzero(roots & running[row_bank])
            # the members of each component to decode, grouped by component
            comp_of_root = np.full(rows, -1)
            comp_of_root[comps] = np.arange(len(comps))
            member_comp = comp_of_root[label]
            members = np.flatnonzero(member_comp >= 0)
            members = members[np.argsort(member_comp[members], kind="stable")]
            member_comp, member_cell = member_comp[members], base[members] + r * self._width

            def read(todo, cells):
                chosen = np.zeros(len(comps), dtype=bool)
                chosen[todo] = True
                picked = chosen[member_comp]
                at = member_cell[picked][:, None] + np.arange(cells.start, cells.stop)
                records = self.cells[at]
                block = tuple(records[f] for f in CELL_DTYPE.names)
                if len(at) == len(todo):  # one member each
                    return block
                starts = np.flatnonzero(np.diff(member_comp[picked], prepend=-1))
                return _component_sums(*block, starts)

            # looked up on l0 at call time: the one decoder, also behind l0.sample_cells
            found, _ = l0.sample_rows(read, len(comps), passes, self.z[r], self.universe)
            comp_bank = row_bank[comps]
            decode_next[comps[found == ROW_EMPTY]] = False
            failures += np.bincount(comp_bank[found == ROW_FAIL], minlength=len(banks))
            decoded = found >= 0
            u, v = pairs_from_indices(found[decoded], self.n)
            owner = comp_bank[decoded]
            su, sv = self._slot[u, banks[owner]], self._slot[v, banks[owner]]
            inside = (su >= 0) & (sv >= 0)
            failures += np.bincount(owner[~inside], minlength=len(banks))
            owner, u, v, su, sv = (x[inside] for x in (owner, u, v, su, sv))
            # the rows of each sampled pair's endpoints, scanned in the order of comps
            joins, joined = spanning_forest(label, first[owner] + su, first[owner] + sv)
            for i, x, y in zip(*(z[joins].tolist() for z in (owner, u, v))):
                edges[i].append((x, y))
            smallest = np.full(rows, rows)
            np.minimum.at(smallest, joined, np.arange(rows))
            joined = smallest[joined]
            decode_next[joined[joined != label]] = True  # every component a join made
            label = joined
        return [
            ForestExtraction(EdgeSet.frozen(self.n, e), f, used)
            for e, f, used in zip(edges, failures.tolist(), rounds_used.tolist())
        ]


def _component_sums(counts, index_sums, fingerprints, starts):
    """Cell-wise sums of the runs of rows from each of starts on.

    Counts add in int64, index sums mod p' and fingerprints mod p.

    Fingerprints below p = 2^61 - 1 add as their low 31 and high 30 bits
    apart; with 2^61 = 1 mod p the high sum h contributes (h >> 30) +
    (h mod 2^30) 2^31, and the total stays below 2^63 for fewer than 2^31
    rows.
    """
    c = np.add.reduceat(counts, starts, axis=0, dtype=np.int64)
    s = np.add.reduceat(index_sums, starts, axis=0, dtype=np.int64) % INDEX_PRIME
    lo = np.add.reduceat(fingerprints & _LOW31, starts, axis=0)
    hi = np.add.reduceat(fingerprints >> 31, starts, axis=0)
    return c, s, ((hi >> 30) + ((hi & _LOW30) << 31) + lo) % PRIME
