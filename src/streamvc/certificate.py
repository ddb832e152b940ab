"""Connectivity certificates from spanning forests over sampled subsets.

The certificate H is the union of r spanning forests, one per random
vertex subset in which each vertex appears independently with
probability 1/k, with r = ceil(C * k^2 * ln n). H is always a spanning
subgraph of the input, so H being k-connected certifies that the input
is; the converse holds with high probability: vertex pairs with at least
2k disjoint paths keep at least k of them in H, and every edge whose
endpoints have fewer than 2k disjoint paths is captured outright by some
subset that contains both endpoints and misses the separating vertices.

Both an offline builder (exact forests of the materialized graph) and a
single-pass dynamic-stream certifier (one sketch bank per subset, all
banks' cells in one flat SketchStore) are provided; with the same seed
they sample the same subsets and, when every extraction succeeds, induce
the same per-subset component partitions. Both reject an n above
forest.MAX_N and a forest count above max_forests(n) before sampling.
Subset i is a pure function of (n, k, seed, i), so a certificate keeps
only each subset's size and sample failures, and Certificate.from_json
derives the sizes and seeds from the params. The dynamic certifier's byte
footprint, what its store allocates, is a pure function of its
parameters, so a space cap is enforced before any cell is allocated; the
offline builder holds no sketches and takes no space cap.

Both build their forests with one routine, graph.spanning_forest: a
round-synchronous Boruvka pass (Ahn, Guha, McGregor, SODA 2012) that
keeps exactly the pairs Kruskal's algorithm keeps when it scans them in
order. The offline builder runs it once per block of subsets over every
(subset, induced edge) pair, the subsets' graphs side by side, with an
edge's weight its rank in g.sorted_edges(); each sketch extraction round
runs it once over the edges the round sampled (streamvc.forest).

Subsets are sampled independently; the banks share the store's sketch
randomness, seeded with derive_seed(seed, "sketch") (why that is sound:
see the streamvc.forest module docstring).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MultiplicityOverflowError, SpaceExceededError
from .forest import ForestSketchBank, SketchStore, bank_bytes, check_vertex_count
from .graph import EdgeSet, MultiGraph, UpdateEvent, spanning_forest, validate_event
from .l0 import INDEX_PRIME
from .oracle import is_k_connected, max_vertex_disjoint_paths
from .seeds import derive_seed, subset_mask

PAPER_SCALE = 200.0
TEST_SCALE = 20.0
# version of Certificate.to_json_dict's layout; from_json rejects others
JSON_SCHEMA = 1
# subsets sampled, sized and (offline) contracted per block: bounds the
# scratch arrays to about this many rows of n vertices and m edges
FOREST_BLOCK = 64
# a sketch count is a signed sum of live edge multiplicities, so their
# total bounds every count: below INDEX_PRIME = 2^31 - 1, it fits int32 and
# no nonzero count is a multiple of INDEX_PRIME, so the decoder can invert it
MAX_LIVE_MULTIPLICITY = INDEX_PRIME - 1


@dataclass(frozen=True)
class CertParams:
    """Parameters of one certificate run.

    scale_c is the leading constant of the forest count; the analysis
    uses 200, which is far more than small instances need, so 20 is the
    default here and 200 is opt-in (the CLI's --scale-c 200). delta
    bounds each forest's chance of a FAIL decode, defaulting to n^-4. It
    does not cover a fingerprint false zero, which silently drops a
    nonempty cut with probability below 1.5 n^3 / p (p = 2^61 - 1) per
    forest on top of delta (the streamvc.forest module docstring).
    """

    n: int
    k: int
    scale_c: float = TEST_SCALE
    seed: int = 0
    delta: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0 < self.scale_c < math.inf:  # also false for nan
            raise ValueError(f"scale_c must be positive and finite, got {self.scale_c}")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0,1), got {self.delta}")

    @property
    def num_forests(self) -> int:
        if self.k == 1:
            # every subset is the full vertex set, and one spanning forest of
            # the graph is connected iff the graph is; more forests would
            # repeat it (sketch banks with the same members hold the same
            # cells), so delta is the failure budget of the whole run
            return 1
        try:
            count = self.scale_c * self.k * self.k * math.log(self.n)
        except OverflowError:  # an int k too large for a float
            count = math.inf
        if count == math.inf:
            raise ValueError(f"forest count C * k^2 * ln n overflows at C={self.scale_c}")
        return max(1, math.ceil(count))

    @property
    def resolved_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return min(0.5, float(self.n) ** -4)

    def subset_seed(self, i: int) -> int:
        return derive_seed(self.seed, "subset", i)


class ForestMeta(NamedTuple):
    """Per-forest record: subset size and sample failures (immutable).

    Subset i is a pure function of (n, k, seed, i), so its seed,
    params.subset_seed(i), is not stored, and only failures is run data;
    size is kept because every certificate check sums it. to_json_dict
    writes the record as [size, failures, params.subset_seed(i)].
    """

    size: int
    failures: int


@dataclass(frozen=True)
class Certificate:
    """Union H of the recovered forests plus run metadata, an immutable value.

    __post_init__ is the one validity check of a certificate, whether a
    builder made it, from_json read it or dataclasses.replace copied it,
    and no field can be assigned afterwards; it stores forests as a
    tuple of ForestMeta, themselves immutable, and raises ValueError
    naming the first of these that breaks: every forest record has 0 <=
    size <= n and failures >= 0; there is one record per forest
    (params.num_forests); sketch_bytes >= 0; and H has at most
    sum(max(|V_i| - 1, 0)) edges, the most that r spanning forests over
    the subsets can hold. The check costs O(r), nothing per edge, so it
    does not resample the subsets: that a record's size is its subset's
    is the builders' doing, and from_json derives the sizes itself.

    H, edges, is the certificate's own read-only copy of the EdgeSet it
    was built from (EdgeSet.frozen, taken without per-edge checks): its
    pair set is a frozenset, so cert.edges.add raises, and a later edit
    of the caller's EdgeSet does not reach it.
    """

    edges: EdgeSet
    params: CertParams
    forests: tuple[ForestMeta, ...]
    sketch_bytes: int = 0

    def __post_init__(self):
        object.__setattr__(self, "edges", EdgeSet.frozen(self.edges.n, self.edges.edges))
        object.__setattr__(self, "forests", tuple(self.forests))
        n = self.params.n
        budget = 0  # sum(max(|V_i| - 1, 0)), summed in the records' one pass
        for m in self.forests:
            if not (0 <= m.size <= n and m.failures >= 0):
                raise ValueError(
                    f"certificate forests record {list(m)!r} must have "
                    f"0 <= size <= n and failures >= 0"
                )
            budget += m.size - 1 if m.size else 0
        _check_record_count(len(self.forests), self.params)
        if self.sketch_bytes < 0:
            raise ValueError(
                f"certificate measured_sketch_bytes must be >= 0, got {self.sketch_bytes}"
            )
        if len(self.edges) > budget:
            raise ValueError(
                f"certificate has {len(self.edges)} edges, more than its forests' edge "
                f"budget sum(max(|V_i| - 1, 0)) = {budget}"
            )

    @property
    def sum_subset_sizes(self) -> int:
        return sum(m.size for m in self.forests)

    @property
    def forest_failures(self) -> int:
        return sum(1 for m in self.forests if m.failures > 0)

    def to_json_dict(self) -> dict:
        """Lossless JSON form: params, edges and per-forest records.

        Forest i's record is [size, failures, params.subset_seed(i)]: its
        seed is derived from the params, not stored. r, forest_failures
        and sum_Vi are derived from the params and the forest records and
        written for readers that do not recompute them; edges are written
        once each as [u, v] with u < v, sorted.
        """
        p = self.params
        return {
            "schema": JSON_SCHEMA,
            "n": p.n,
            "k": p.k,
            "C": p.scale_c,
            "r": p.num_forests,
            "seed": p.seed,
            "delta": p.delta,
            "edges": [list(e) for e in self.edges.sorted_edges()],
            "forests": [[*m, p.subset_seed(i)] for i, m in enumerate(self.forests)],
            "forest_failures": self.forest_failures,
            "sum_Vi": self.sum_subset_sizes,
            "measured_sketch_bytes": self.sketch_bytes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Inverse of to_json; a malformed or inconsistent field raises ValueError naming it.

        A file loads iff it is the canonical JSON of the certificate it
        describes: after the schema, each field's type and each record's
        shape are checked. A header n above forest.MAX_N, which neither
        builder takes, is refused before any subset is sampled. The
        forest records are read as the builders make them: their count
        must be the params' r, and each subset's size is derived from the
        params (sampled FOREST_BLOCK subsets at a time, as the builders
        do), so only failures is read from a record; the first record
        whose size or seed is not its subset's is refused by name. The
        certificate is then built from the params, edges, those records
        and sketch bytes (and checks itself, as a built one does), and
        its to_json_dict() must equal the file's object. So the derived
        r, forest_failures and sum_Vi must match, edges must be listed
        once each as [u, v] with 0 <= u < v < n in sorted order, no other
        key may appear, and json.loads of to_json(from_json(text)) equals
        json.loads(text).
        """
        d = json.loads(text)
        schema = d.get("schema") if isinstance(d, dict) else None
        if schema != JSON_SCHEMA:
            raise ValueError(f"unsupported certificate schema {schema!r}")
        params = CertParams(
            n=_json_field(d, "n", int),
            k=_json_field(d, "k", int),
            scale_c=_json_field(d, "C", int, float),
            seed=_json_field(d, "seed", int),
            delta=_json_field(d, "delta", float, type(None)),
        )
        check_vertex_count(params.n)
        # an edge outside 0 <= u < v < n is left out here, so _json_canonical refuses it
        edges = [(u, v) for u, v in _json_records(d, "edges", 2) if 0 <= u < v < params.n]
        records = _json_records(d, "forests", 3)
        _check_record_count(len(records), params)
        sizes = [size for masks in _subset_blocks(params) for size in masks.sum(axis=1).tolist()]
        forests = [ForestMeta(size, failures) for size, (_, failures, _) in zip(sizes, records)]
        for i, record in enumerate(records):
            want = [*forests[i], params.subset_seed(i)]
            if record != want:
                raise ValueError(
                    f"certificate forests record {record} (forest {i}) must be {want}: "
                    "its params give each subset's size and seed"
                )
        sketch_bytes = _json_field(d, "measured_sketch_bytes", int)
        cert = cls(EdgeSet.frozen(params.n, edges), params, forests, sketch_bytes)
        _json_canonical(d, cert.to_json_dict())
        return cert


def _json_field(d: dict, key: str, *kinds: type):
    """d[key] if present and of one of kinds (exactly: a bool is no int)."""
    if key not in d:
        raise ValueError(f"certificate lacks field {key!r}")
    if type(d[key]) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"certificate field {key!r} must be {names}, got {d[key]!r}")
    return d[key]


def _json_records(d: dict, key: str, width: int) -> list[list[int]]:
    """d[key] as a list of records, each a list of width ints."""
    records = _json_field(d, key, list)
    for record in records:
        if type(record) is not list or [type(x) for x in record] != [int] * width:
            raise ValueError(f"certificate {key} record {record!r} must be {width} ints")
    return records


def _json_canonical(d: dict, canonical: dict) -> None:
    """Raise ValueError naming the first key whose value in d is not canonical's.

    Keys run in canonical's order, then d's unknown ones; each value
    must also have the canonical value's type. The edge list is
    described, not printed.
    """
    for key in {**canonical, **d}:
        if key not in canonical:
            raise ValueError(f"certificate has unknown field {key!r}")
        got, want = _json_field(d, key, type(canonical[key])), canonical[key]
        if got != want:
            raise ValueError(
                f"certificate field {key!r} gives {got}, but its params and records give {want}"
                if key != "edges"
                else "certificate field 'edges' must list each edge once, as [u, v] with "
                "0 <= u < v < n, in sorted order"
            )


def _subset_blocks(params: CertParams):
    """The r sampled subsets' [b, n] membership masks, FOREST_BLOCK rows at a time.

    Each block's masks come from one subset_mask call over its subset seeds.
    """
    r = params.num_forests
    for lo in range(0, r, FOREST_BLOCK):
        seeds = [params.subset_seed(i) for i in range(lo, min(lo + FOREST_BLOCK, r))]
        yield subset_mask(np.array(seeds, dtype=np.uint64), params.n, params.k)


def sample_subsets(params: CertParams) -> list[np.ndarray]:
    """The r sampled vertex subsets, as sorted member-id arrays."""
    return [np.nonzero(row)[0] for masks in _subset_blocks(params) for row in masks]


def max_forests(n: int) -> int:
    """The largest forest count either certifier takes: the paper's count at k = n.

    max(1, ceil(PAPER_SCALE * n^2 * ln n)). No graph on n vertices is
    n-connected, so every k worth asking is below n, and the analysis
    constant asks for fewer forests there; the bound depends on n alone,
    not on the host.
    """
    return max(1, math.ceil(PAPER_SCALE * n * n * math.log(n)))


def _check_record_count(count: int, params: CertParams) -> None:
    """Reject a certificate whose forest record count is not params.num_forests."""
    if count != params.num_forests:
        raise ValueError(
            f"certificate field 'forests' gives {count}, but its params give {params.num_forests}"
        )


def _check_forest_count(params: CertParams) -> None:
    """Reject a forest count above max_forests(n); called before any subset is sampled."""
    r, bound = params.num_forests, max_forests(params.n)
    if r > bound:
        raise ValueError(
            f"forest count {r:.4g} exceeds the forest bound {bound}, "
            f"the paper's count at k = n = {params.n}"
        )


def build_certificate_offline(g: EdgeSet, params: CertParams) -> Certificate:
    """Exact certificate from the materialized graph (no sketching).

    Each subset's forest is the minimum spanning forest of its induced
    subgraph under edge weight = rank in g.sorted_edges(), the forest
    Kruskal keeps scanning it in sorted order. One graph.spanning_forest
    call per block of subsets finds them all: the vertex u of the block's
    subset f is node f*n + u, so the subsets' graphs are disjoint and
    contract side by side. An n above forest.MAX_N (as the dynamic
    certifier does, so from_json can refuse one) and a forest count above
    max_forests(n) are rejected before any subset is sampled; the
    Certificate checks its own records and edge budget.
    """
    if g.n != params.n:
        raise ValueError(f"graph has n={g.n}, params expect n={params.n}")
    check_vertex_count(params.n)
    _check_forest_count(params)
    earr = np.array(g.sorted_edges(), dtype=np.int64).reshape(-1, 2)
    kept = np.zeros(len(earr), dtype=bool)
    metas: list[ForestMeta] = []
    for masks in _subset_blocks(params):
        metas.extend(ForestMeta(size=s, failures=0) for s in masks.sum(axis=1).tolist())
        # every (subset, edge) pair of the block, in (subset, rank) order
        f, rank = np.nonzero(masks[:, earr[:, 0]] & masks[:, earr[:, 1]])
        picked, _ = spanning_forest(np.arange(masks.size), *(f[:, None] * params.n + earr[rank]).T)
        kept[rank[picked]] = True
    return Certificate(EdgeSet.frozen(params.n, map(tuple, earr[kept].tolist())), params, metas)


def physical_memory_bytes() -> int | None:
    """Bytes of physical memory on this host, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class StreamCertifier:
    """Single-pass dynamic-stream certifier: one sketch bank per subset.

    The banks' cells live in one SketchStore (one flat array of 16-byte
    records, each an int32 count and index sum and an int64 fingerprint,
    and one sketch battery per round, see streamvc.forest), each bank a row of it and
    self.banks[i] a ForestSketchBank view of row i. Each event is folded
    into every bank that holds both endpoints in one vectorized pass,
    which marks those banks dirty in the store. Each bank view keeps its
    latest ForestExtraction, and finalize re-extracts only the dirty
    banks, in one batched pass.

    An n above forest.MAX_N, which the store cannot take, and a forest
    count above max_forests(n) (as the offline builder does) are rejected
    before any subset is sampled. The measured byte footprint,
    measured_bytes(), is the nbytes of what the store allocates, and it
    equals the sum of the banks' bank_bytes (one _slot column per bank
    and one fixed share per member, since every bank has the same block
    width), a pure function of the parameters; so the space cap is
    checked on that sum before any cell is allocated, block by block
    while the subsets are sampled: set-up stops at the first block whose
    running total exceeds it. Without an explicit cap the cap is the host's physical memory
    (physical_memory_bytes): the host's RAM, not a container's or
    cgroup's memory limit, and no cap where the OS does not report it.

    A MultiGraph of the stream (validation bookkeeping, not charged to
    the sketch space) enforces stream legality, and live_multiplicity,
    the total multiplicity of the edges the stream holds, bounds every
    sketch count: an insertion that would push it past
    MAX_LIVE_MULTIPLICITY (2^31 - 2, so that no count is a multiple of
    the index sums' modulus 2^31 - 1) is refused before any state changes.
    """

    def __init__(self, params: CertParams, space_cap_bytes: int | None = None):
        self.params = params
        n, delta = params.n, params.resolved_delta
        check_vertex_count(n)
        _check_forest_count(params)
        if space_cap_bytes is None:
            space_cap_bytes = physical_memory_bytes()
        # bank_bytes is affine in the member count: a _slot column plus each member's cells
        slot_bytes = bank_bytes(n, 0, delta)
        member_bytes = bank_bytes(n, 1, delta) - slot_bytes
        blocks: list[np.ndarray] = []
        subsets = total_bytes = 0
        for masks in _subset_blocks(params):
            blocks.append(masks)
            subsets += len(masks)
            total_bytes += int(masks.sum()) * member_bytes + len(masks) * slot_bytes
            if space_cap_bytes is not None and total_bytes > space_cap_bytes:
                raise SpaceExceededError(
                    f"sketch state exceeds cap {space_cap_bytes}: the first "
                    f"{subsets} subsets take {total_bytes} bytes"
                )
        sketch_seed = derive_seed(params.seed, "sketch")
        self.store = SketchStore(n, np.concatenate(blocks), delta, sketch_seed)
        self.banks = [ForestSketchBank.view(self.store, b) for b in range(subsets)]
        self._graph = MultiGraph(n)
        self.live_multiplicity = 0

    def measured_bytes(self) -> int:
        """Bytes of the sketch state: the nbytes of the store's cell records and _slot.

        It equals the sum of the banks' bank_bytes, which set-up checks
        against the space cap before the store allocates either array.
        """
        return self.store.cells.nbytes + self.store._slot.nbytes

    def update(self, e: UpdateEvent) -> "StreamCertifier":
        """Fold one event into every bank that holds both endpoints.

        An illegal event (an endpoint out of range, a self-loop, a delta
        other than +1 or -1, a deletion below multiplicity 0) and an
        insertion past MAX_LIVE_MULTIPLICITY raise before any state
        changes; the event is validated first, so each raises its own error.
        """
        validate_event(e, self.params.n)
        if self.live_multiplicity + e.delta > MAX_LIVE_MULTIPLICITY:
            raise MultiplicityOverflowError(
                f"insertion would push the live multiplicity past {MAX_LIVE_MULTIPLICITY}, "
                "the largest sketch count"
            )
        self._graph.apply(e)
        self.store.update(e)
        self.live_multiplicity += e.delta
        return self

    def finalize(self) -> Certificate:
        """The certificate of the stream so far.

        Re-extracts only the banks marked dirty in the store, those an
        event reached since the previous call (every bank on the first
        call), all in one batched ForestSketchBank.extract call, which
        keeps each bank's new ForestExtraction on its view in place of
        the old one; then clears the marks. An extraction is a pure
        function of its bank's cells and the store's batteries, so a kept
        one equals a fresh extraction. H and the forest records are then
        built from the r kept extractions, and the Certificate checks
        them, its edge budget sum(max(|V_i| - 1, 0)) included. The forests
        are query-side state like the validation MultiGraph and are not
        charged to the sketch bytes.
        """
        store = self.store
        dirty = [self.banks[b] for b in np.flatnonzero(store.dirty).tolist()]
        if dirty:
            dirty[0].extract(*dirty[1:])
        store.dirty[:] = False
        kept = EdgeSet(self.params.n)  # forests hold canonical pairs, so they join unchecked
        metas: list[ForestMeta] = []
        for bank, size in zip(self.banks, store.sizes.tolist()):
            kept.edges.update(bank.extraction.forest.edges)
            metas.append(ForestMeta(size, bank.extraction.sample_failures))
        return Certificate(kept, self.params, metas, self.measured_bytes())


def decide_k_connected(cert: Certificate) -> bool:
    """Verdict for the whole run: is the certificate k-connected."""
    return is_k_connected(cert.edges, cert.params.k)


def preserved_st_connectivity(
    cert: Certificate, g: EdgeSet, s: int, t: int
) -> tuple[int, int]:
    """Disjoint s-t path counts in (g, H), both capped at k."""
    k = cert.params.k
    in_g = max_vertex_disjoint_paths(g, s, t, cap=k)
    in_h = max_vertex_disjoint_paths(cert.edges, s, t, cap=k)
    return in_g, in_h
