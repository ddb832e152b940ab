"""Linear sketch of a signed integer vector with nonzero-coordinate sampling.

The sketch keeps, per repetition and subsampling level, a one-sparse
recovery cell (count, index_sum, fingerprint). The fingerprint is a
residue mod p = 2^61 - 1 and the index sum a residue mod p' = 2^31 - 1
(INDEX_PRIME), so it fits 31 bits. Level l of a repetition sees each
coordinate with probability 2^-l via a seeded hash treated as fully
random; levels are nested (a coordinate active at level l is active at
all shallower levels). There are ceil(log2 U) + 2 levels over a universe
of U coordinates: a vector has support at most U, so level ceil(log2 U)
already expects at most one survivor, and deeper levels are nested
subsets of it.

A cell is decodable when it holds exactly one nonzero coordinate. A cell
holding count c at coordinate q alone has index sum c * q mod p', so the
decoder reads q = index_sum * c^-1 mod p' (c = +-1 needs no inverse) and
accepts it when q < U and the fingerprint equals c * z^q mod p. Every
coordinate is below U <= p', so a one-sparse cell decodes to its own
coordinate whenever its count is invertible mod p'; the certifier keeps
every count below p' in absolute value (its live-multiplicity guard),
and a count that is a multiple of p' never decodes. Only the fingerprint
rejects a many-sparse cell whose q lands in range: c * z^q minus the
cell's fingerprint is then a nonzero polynomial of degree below U in z,
so a false accept has probability at most U/p per test, about 2^-46 at
n = 256 (U = 32 640 pairs).

Repetitions hash independently, and there are repetition_count(delta) =
ceil(REP_SCALE * ln(1/delta)) of them. A repetition decodes whenever the
deepest of its levels that the support reaches holds a single coordinate,
since that cell is one-sparse. Depths are i.i.d. geometric (level l with
probability 2^-(l+1)), so over a support of s coordinates the deepest is
alone with probability sum_l s 2^-(l+1) (1 - 2^-l)^(s-1): 1 at s = 1, 2/3
at s = 2, the worst case, and about 1/(2 ln 2) = 0.721 as s grows, which
is the pooled per-repetition rate scripts/decode_curve.py measures
(0.72). Capping depths at the last level adds ties there: the worst case
drops to 0.625 (U = 2, s = 2) and stays above 0.66 for pair universes of
n >= 4 vertices. A sample fails only when every repetition does, with
probability at most (1/3)^R, and (1/3)^R <= delta needs R >= ln(1/delta)
/ ln 3 = 0.91 ln(1/delta). REP_SCALE = 2 leaves a 2.2x margin in the
exponent (1.96x against 0.625). The repetition seeds of fewer
repetitions are a prefix of those of more (sketch_seeds), so a decode
that succeeds within the first R repetitions returns the same coordinate
under any larger repetition count.

repetition_count computes ln(1/delta) as -ln(delta), so a subnormal
budget, whose reciprocal overflows, still sizes its sketch (at least one
repetition); a budget that is not positive is refused.

Updates, merges and therefore the final state are linear in the update
stream: any reordering or insert/delete cancellation produces the same
cells bit for bit.

L0Sketch is the reference implementation and keeps the full [reps,
levels] cells. Forest banks keep the same cells for many sketches in
flat arrays (streamvc.forest), with the level-0 cell, which every
repetition shares, stored once per sketch: a block of block_cells(reps,
levels) = 1 + reps * (levels - 1) cells, level 0 first and then each
repetition's levels >= 1 in turn. block_cells, to_block and from_block
are the one place that spells the block out. Every sketch of one store
has the same repetition count (streamvc.forest), so all its blocks have
one width; since repetition seeds are a prefix, the block of a sketch
with fewer repetitions is still a prefix of the block of one with more,
so a smaller count keeps every decode that succeeds within it. Banks
share this module's seed derivation (sketch_seeds), level rule
(level_count, deepest_levels), block layout and decoder.

There is one decoder, sample_rows, vectorized over many blocks: it reads
them in storage order, one pass of cells at a time (repetition_cells:
level 0 and repetition 0, then each further repetition), and reads a
pass only for the blocks no earlier pass decoded, through a callback, so
a caller that sums blocks on demand (forest extraction) sums no more
than decoding reads. Every cell of a pass is tested at once: the index
sum divided by the count (an exact integer division while |count| U <
p', a Fermat inverse mod p' otherwise), the range test q < U and the
fingerprint test c z^q = fp mod p, with z^q taken from a table of 4-bit
windows of q and a 61-bit multiply split at bit 31. sample_cells is its
one-row call over a whole block, which L0Sketch.sample hands to_block of
its cells; repetition_levels applies its one-sparse test to every cell
of a block and reads the result one repetition at a time, to measure the
decode rate. What the banks' cells cost in bytes is counted where they
are allocated, in streamvc.forest.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import SeedMismatchError
from .seeds import derive_seed, mix_u64

PRIME = (1 << 61) - 1
# index sums are residues mod this prime, so they fit int32 (see the module docstring)
INDEX_PRIME = (1 << 31) - 1

# repetitions R = ceil(REP_SCALE * ln(1/delta)). A repetition decodes with
# probability >= 2/3 (>= 0.625 with the level cut; see the module
# docstring), so R repetitions all fail with probability <= (1/3)^R, which
# is <= delta once R >= ln(1/delta) / ln 3 = 0.91 * ln(1/delta); 2 leaves
# a 2.2x margin in the exponent (1.96x at the worst truncated case)
REP_SCALE = 2.0


@dataclass(slots=True)
class NonZeroIndex:
    """Successful sample: a coordinate from the support and its sign."""

    index: int
    sign: int

    def __repr__(self):
        return f"NonZeroIndex({self.index}, {self.sign:+d})"


class _Empty:
    def __repr__(self):
        return "Empty"


class _Fail:
    def __repr__(self):
        return "Fail"


EMPTY = _Empty()
FAIL = _Fail()
# what sample_rows reports for a block it decodes no coordinate from
# (coordinates are never negative): a zero level-0 cell, or no cell passing
ROW_EMPTY = -1
ROW_FAIL = -2


def level_count(universe: int) -> int:
    """ceil(log2 universe) + 2 subsampling levels (why: see the module docstring)."""
    return max(0, math.ceil(math.log2(universe))) + 2


def repetition_count(delta: float) -> int:
    """Repetitions for a sketch failure budget: ceil(REP_SCALE * ln(1/delta)), at least 1.

    Computed as -ln(delta), so a subnormal budget, whose reciprocal
    overflows to infinity, still gets a finite count. A budget that is not
    positive (one split so finely that it underflowed to 0) is refused.
    """
    if not delta > 0:
        raise ValueError(f"sketch failure budget must be positive, got {delta}")
    return max(1, math.ceil(REP_SCALE * -math.log(delta)))


def sketch_seeds(seed: int, reps: int) -> tuple[np.ndarray, int, int]:
    """(rep_seeds, subsample_seed, z) that a sketch derives from its seed.

    The rep_seeds of fewer repetitions are a prefix of those of more, so a
    battery drawn for the most repetitions serves every smaller sketch.
    """
    rep_seeds = mix_u64(derive_seed(seed, "rep-seeds"), np.arange(reps))
    z = 1 + derive_seed(seed, "fingerprint-base") % (PRIME - 1)
    return rep_seeds, derive_seed(seed, "subsample"), z


def deepest_levels(
    subsample_seed, rep_seeds: np.ndarray, index: int, levels: int
) -> np.ndarray:
    """Deepest level of each repetition that index lands in.

    Level l admits a coordinate when its hash has at least l trailing
    zero bits, so the coordinate also lands in every shallower level.
    subsample_seed is one sketch's seed, or a uint64 array of subsample
    seeds that broadcasts against rep_seeds (many batteries at once).
    """
    x = mix_u64(subsample_seed, rep_seeds + np.uint64(index))
    lowbit = x & (~x + np.uint64(1))
    with np.errstate(divide="ignore"):
        tz = np.where(x == 0, 64, np.log2(lowbit.astype(np.float64)))
    return np.minimum(tz.astype(np.int64), levels - 1)


class L0Sketch:
    """Sketch of a vector over 0..universe-1; supports update/merge/sample."""

    def __init__(self, universe: int, delta: float, seed: int):
        if universe < 1:
            raise ValueError(f"universe size must be >= 1, got {universe}")
        if not (0.0 < delta < 1.0):
            raise ValueError(f"delta must be in (0,1), got {delta}")
        self.universe = universe
        self.delta = delta
        self.seed = seed
        self.levels = level_count(universe)
        self.reps = repetition_count(delta)
        self.rep_seeds, self._subsample_seed, self.z = sketch_seeds(seed, self.reps)
        shape = (self.reps, self.levels)
        self.counts = np.zeros(shape, dtype=np.int64)
        self.index_sums = np.zeros(shape, dtype=np.int64)
        self.fingerprints = np.zeros(shape, dtype=np.int64)

    # -- update path ---------------------------------------------------

    def active_mask(self, index: int) -> np.ndarray:
        """Bool[reps, levels]: which cells index lands in (nested levels)."""
        limits = deepest_levels(self._subsample_seed, self.rep_seeds, index, self.levels)
        return np.arange(self.levels)[None, :] <= limits[:, None]

    def update(self, index: int, delta: int) -> "L0Sketch":
        if not (0 <= index < self.universe):
            raise IndexError(f"index {index} not in 0..{self.universe - 1}")
        self.apply_masked(self.active_mask(index), index, delta, self.zpow(index))
        return self

    def zpow(self, index: int) -> int:
        return pow(self.z, index, PRIME)

    def apply_masked(self, mask: np.ndarray, index: int, delta: int, zpow: int) -> None:
        """Raw cell update with a precomputed mask and power (the second half of update)."""
        self.counts += delta * mask
        self.index_sums = (self.index_sums + (delta * index) % INDEX_PRIME * mask) % INDEX_PRIME
        self.fingerprints = (self.fingerprints + (delta * zpow) % PRIME * mask) % PRIME

    # -- merge ---------------------------------------------------------

    def merge(self, other: "L0Sketch") -> "L0Sketch":
        """Cell-wise sum; equals the sketch of the summed vectors."""
        if (self.universe, self.reps, self.seed) != (other.universe, other.reps, other.seed):
            raise SeedMismatchError("sketches differ in seeds or dimensions")
        out = self.copy()
        out.counts += other.counts
        out.index_sums = (out.index_sums + other.index_sums) % INDEX_PRIME
        out.fingerprints = (out.fingerprints + other.fingerprints) % PRIME
        return out

    def copy(self) -> "L0Sketch":
        """A sketch with its own cells and the same seeds and dimensions."""
        out = copy.copy(self)
        out.counts = self.counts.copy()
        out.index_sums = self.index_sums.copy()
        out.fingerprints = self.fingerprints.copy()
        return out

    def is_zero(self) -> bool:
        return (
            not self.counts.any()
            and not self.index_sums.any()
            and not self.fingerprints.any()
        )

    # -- sampling --------------------------------------------------------

    def sample(self):
        """EMPTY, FAIL, or a NonZeroIndex from the support of the vector."""
        block = [to_block(a) for a in (self.counts, self.index_sums, self.fingerprints)]
        return sample_cells(*block, self.z, self.universe)


def block_cells(reps: int, levels: int) -> int:
    """Cells in one block (see to_block): level 0 once, then each repetition's levels >= 1."""
    return 1 + reps * (levels - 1)


def to_block(cells: np.ndarray) -> np.ndarray:
    """[..., reps, levels] cells as [..., 1 + reps * (levels - 1)] blocks.

    Cell 0 of a block is level 0, taken from repetition 0 (level 0 admits
    every coordinate, so every repetition holds the same level-0 cell);
    cell 1 + q * (levels - 1) + (l - 1) is level l >= 1 of repetition q,
    the C order of the cells with the level-0 column dropped. The first
    block_cells(reps', levels) cells are the block of the first reps'
    repetitions.
    """
    lead = cells.shape[:-2]
    return np.concatenate((cells[..., 0, :1], cells[..., 1:].reshape(*lead, -1)), axis=-1)


def from_block(block: np.ndarray, reps: int) -> np.ndarray:
    """Inverse of to_block: [..., cells] blocks as [..., reps, levels] cells."""
    lead = block.shape[:-1]
    head = np.broadcast_to(block[..., :1, None], (*lead, reps, 1))
    return np.concatenate((head, block[..., 1:].reshape(*lead, reps, -1)), axis=-1)


def repetition_cells(reps: int, levels: int) -> list[slice]:
    """The cells of a block (see to_block) that sample_rows reads in each pass.

    Pass 0 is level 0 with repetition 0's levels >= 1, pass q >= 1 is
    repetition q's levels >= 1: the block in storage order, one
    repetition at a time.
    """
    stride = levels - 1
    later = [slice(1 + q * stride, 1 + (q + 1) * stride) for q in range(1, reps)]
    return [slice(0, levels), *later]


def sample_rows(read, rows: int, passes: list[slice], z: int, universe: int):
    """Decode one nonzero coordinate from each of many blocks at once.

    read(todo, cells) returns the counts, index sums and fingerprints of
    the blocks in todo, an ascending index array into 0..rows-1, at the
    block cells `cells`, as three [len(todo), cells] integer arrays.
    Index sums may be any nonnegative representatives of their residues
    mod INDEX_PRIME. passes are slices that cover a block in storage
    order, the first starting at level 0 (repetition_cells, or one slice
    over the whole block); each pass is read only for the blocks that no
    earlier pass decoded. A block is ROW_EMPTY when its level-0 cell is
    identically zero; otherwise it takes the coordinate of its first
    cell, in block order, that passes the one-sparse test (a cell with a
    zero count never does), and ROW_FAIL when none does.

    Returns (found, sign): per block, the coordinate or ROW_EMPTY or
    ROW_FAIL, and the sign of the decoded count (0 where none).
    """
    found = np.full(rows, ROW_FAIL, dtype=np.int64)
    sign = np.zeros(rows, dtype=np.int64)
    todo = np.arange(rows)
    for cells in passes:
        if not len(todo):
            break
        c, s, fp = read(todo, cells)
        if cells.start == 0:
            empty = (c[:, 0] == 0) & (s[:, 0] % INDEX_PRIME == 0) & (fp[:, 0] == 0)
            found[todo[empty]] = ROW_EMPTY
            todo, c, s, fp = todo[~empty], c[~empty], s[~empty], fp[~empty]
        q, ok = _one_sparse(c, s, fp, z, universe)
        hit = ok.any(axis=1)
        at = np.flatnonzero(hit), ok[hit].argmax(axis=1)  # each decoded block's first passing cell
        found[todo[hit]] = q[at]
        sign[todo[hit]] = np.sign(c[at])
        todo = todo[~hit]
    return found, sign


def sample_cells(counts, index_sums, fingerprints, z: int, universe: int):
    """Decode one nonzero coordinate from one block (see to_block) of raw cells.

    A one-row call of sample_rows over the whole block: EMPTY when the
    level-0 cell is identically zero; otherwise the first cell, in block
    order, that passes the one-sparse verification wins; FAIL when none
    does. Index sums may be unreduced sums of residues.
    """
    cells = counts, index_sums, fingerprints

    def read(todo, part):
        return tuple(np.asarray(a)[None, part] for a in cells)

    found, sign = sample_rows(read, 1, [slice(0, len(counts))], z, universe)
    if found[0] == ROW_EMPTY:
        return EMPTY
    if found[0] == ROW_FAIL:
        return FAIL
    return NonZeroIndex(int(found[0]), int(sign[0]))


def repetition_levels(counts, index_sums, fingerprints, reps: int, z: int, universe: int):
    """Per repetition of one block, the level of its first one-sparse cell, or -1.

    Tests every cell of the block with the one-sparse test of sample_rows,
    then reads the result one repetition at a time (the shared level-0
    cell, then that repetition's levels >= 1 in order), so the share of
    entries >= 0 is the per-repetition decode rate that REP_SCALE is
    sized from; sample_rows decodes in the first repetition whose entry
    is >= 0.
    """
    _, passing = _one_sparse(counts, index_sums, fingerprints, z, universe)
    passing = from_block(passing, reps)  # [rep, level]
    return np.where(passing.any(axis=1), passing.argmax(axis=1), -1)


_U64 = np.uint64
_LOW30, _LOW31, _PRIME_U64 = _U64((1 << 30) - 1), _U64((1 << 31) - 1), _U64(PRIME)


def _mulmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b mod PRIME for uint64 arrays below PRIME.

    Split at bit 31, a = a1 2^31 + a0 and b = b1 2^31 + b0, so that every
    partial product is below 2^62; with 2^61 = 1 mod PRIME, a1 b1 2^62 is
    2 a1 b1 and the middle term m 2^31 is (m >> 30) + (m mod 2^30) 2^31.
    The four terms sum below 2^64, and one fold and one compare-subtract
    reduce them.
    """
    a1, a0 = a >> _U64(31), a & _LOW31
    b1, b0 = b >> _U64(31), b & _LOW31
    mid = a1 * b0 + a0 * b1
    x = ((a1 * b1) << _U64(1)) + (mid >> _U64(30)) + ((mid & _LOW30) << _U64(31)) + a0 * b0
    x = (x & _PRIME_U64) + (x >> _U64(61))
    return np.minimum(x, x - _PRIME_U64)


def _zpow(z: int, q: np.ndarray, universe: int) -> np.ndarray:
    """z^q mod PRIME for a uint64 array of exponents below universe.

    One table row per 4-bit window of q, row w holding z^(d 16^w) for
    d < 16, so z^q is the product of one entry per window.
    """
    table = []
    base = z
    for _ in range(max(1, -(-(universe - 1).bit_length() // 4))):
        row = [1]
        for _ in range(15):
            row.append(row[-1] * base % PRIME)
        table.append(row)
        base = row[-1] * base % PRIME
    table = np.array(table, dtype=np.uint64)
    out = table[0, q & _U64(15)]
    for w in range(1, len(table)):
        out = _mulmod(out, table[w, (q >> _U64(4 * w)) & _U64(15)])
    return out


def _inverse_mod_index_prime(a: np.ndarray) -> np.ndarray:
    """a^-1 mod INDEX_PRIME for an int64 array in 1..INDEX_PRIME-1: a^(p' - 2) (Fermat).

    Operands stay below 2^31, so every product is below 2^62.
    """
    out, base, e = np.ones_like(a), a, INDEX_PRIME - 2
    while e:
        if e & 1:
            out = out * base % INDEX_PRIME
        base = base * base % INDEX_PRIME
        e >>= 1
    return out


def _one_sparse(c, s, fp, z: int, universe: int):
    """Per cell of integer arrays, whether it holds exactly one coordinate, and that coordinate.

    Returns (q, ok), int64 and bool arrays of the cells' shape. s is any
    nonnegative representative of the index sum's residue. A count that
    is a multiple of INDEX_PRIME (zero among them) never decodes; the
    other cells are read as 1-D int64 arrays. With a = |c| mod
    INDEX_PRIME and t the residue of s, negated for a negative count,
    q = s c^-1 = t a^-1 mod INDEX_PRIME. While a U < INDEX_PRIME, a q
    below U has a q < INDEX_PRIME, so a q = t exactly: q is in range iff
    a divides t with a quotient below U, and no inverse is needed (a = 1
    reads q = t). A larger a takes a Fermat inverse. A cell passes when
    q < U and c z^q = fp mod PRIME; the fingerprint is tested on every
    cell whose q is in range.
    """
    q = np.zeros(np.shape(c), dtype=np.int64)
    ok = np.zeros(np.shape(c), dtype=bool)
    at = np.nonzero(c % INDEX_PRIME)
    c, s, fp = (x[at].astype(np.int64) for x in (c, s, fp))
    a = np.abs(c) % INDEX_PRIME
    t = s % INDEX_PRIME
    t[c < 0] = (INDEX_PRIME - t[c < 0]) % INDEX_PRIME
    direct = a * universe < INDEX_PRIME
    found = t // a
    passing = direct & (found * a == t)
    inverted = np.flatnonzero(~direct)  # a >= INDEX_PRIME / U
    if len(inverted):
        found[inverted] = t[inverted] * _inverse_mod_index_prime(a[inverted]) % INDEX_PRIME
        passing[inverted] = True
    passing &= found < universe
    cand = np.flatnonzero(passing)
    if len(cand):
        zq = _zpow(z, found[cand].astype(np.uint64), universe)
        expect = _mulmod((c[cand] % PRIME).astype(np.uint64), zq)
        passing[cand] = expect == fp[cand].astype(np.uint64)
    q[at], ok[at] = found, passing
    return q, ok
