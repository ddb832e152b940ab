"""Connectivity certificates from spanning forests over sampled subsets.

The certificate H is the union of r spanning forests, one per random
vertex subset in which each vertex appears independently with
probability 1/k, with r = ceil(C * k^2 * ln n). H is always a spanning
subgraph of the input, so H being k-connected certifies that the input
is; the converse holds with high probability: vertex pairs with at least
2k disjoint paths keep at least k of them in H, and every edge whose
endpoints have fewer than 2k disjoint paths is captured outright by some
subset that contains both endpoints and misses the separating vertices.

Both an offline builder (exact union-find forests on the materialized
graph) and a single-pass dynamic-stream certifier (one sketch bank per
subset, all banks' cells in one flat SketchStore) are provided; with the
same seed they sample the same subsets and, when every extraction
succeeds, induce the same per-subset component partitions. The dynamic
certifier's byte footprint is a pure function of its parameters, so a
space cap is enforced before any cell is allocated.

Subsets are sampled independently; the banks share the store's sketch
randomness, seeded with derive_seed(seed, "sketch") (why that is sound:
see the streamvc.forest module docstring).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SpaceExceededError
from .forest import ForestSketchBank, SketchStore, bank_bytes
from .graph import EdgeSet, MultiGraph, UnionFind, UpdateEvent
from .oracle import is_k_connected, max_vertex_disjoint_paths
from .seeds import derive_seed, subset_mask

PAPER_SCALE = 200.0
TEST_SCALE = 20.0
# version of Certificate.to_json_dict's layout; from_json rejects others
JSON_SCHEMA = 1


@dataclass(frozen=True)
class CertParams:
    """Parameters of one certificate run.

    scale_c is the leading constant of the forest count; the analysis
    uses 200, which is far more than small instances need, so 20 is the
    default here and 200 is opt-in ("paper mode"). delta is the
    per-forest sketch failure budget, defaulting to n^-4.
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
        if self.scale_c <= 0:
            raise ValueError(f"scale_c must be positive, got {self.scale_c}")
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
        return max(1, math.ceil(self.scale_c * self.k * self.k * math.log(self.n)))

    @property
    def resolved_delta(self) -> float:
        if self.delta is not None:
            return self.delta
        return min(0.5, float(self.n) ** -4)

    def subset_seed(self, i: int) -> int:
        return derive_seed(self.seed, "subset", i)


@dataclass
class ForestMeta:
    """Per-forest record: subset size, sample failures, subset seed."""

    size: int
    failures: int
    seed: int


@dataclass
class Certificate:
    """Union H of the recovered forests plus run metadata."""

    edges: EdgeSet
    params: CertParams
    forests: list[ForestMeta] = field(default_factory=list)
    sketch_bytes: int = 0

    @property
    def sum_subset_sizes(self) -> int:
        return sum(m.size for m in self.forests)

    @property
    def forest_failures(self) -> int:
        return sum(1 for m in self.forests if m.failures > 0)

    def to_json_dict(self) -> dict:
        """Lossless JSON form: params, edges and per-forest records.

        forest_failures and sum_Vi are derived from the forest records
        and written for readers that do not recompute them.
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
            "forests": [[m.size, m.failures, m.seed] for m in self.forests],
            "forest_failures": self.forest_failures,
            "sum_Vi": self.sum_subset_sizes,
            "measured_sketch_bytes": self.sketch_bytes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        d = json.loads(text)
        if d.get("schema") != JSON_SCHEMA:
            raise ValueError(f"unsupported certificate schema {d.get('schema')!r}")
        params = CertParams(
            n=d["n"], k=d["k"], scale_c=d["C"], seed=d["seed"], delta=d["delta"]
        )
        return cls(
            edges=EdgeSet(d["n"], [tuple(e) for e in d["edges"]]),
            params=params,
            forests=[ForestMeta(*record) for record in d["forests"]],
            sketch_bytes=d["measured_sketch_bytes"],
        )


def sample_subsets(params: CertParams) -> list[np.ndarray]:
    """The r sampled vertex subsets, as sorted member-id arrays."""
    return [
        np.nonzero(subset_mask(params.subset_seed(i), params.n, params.k))[0]
        for i in range(params.num_forests)
    ]


def build_certificate_offline(g: EdgeSet, params: CertParams) -> Certificate:
    """Exact certificate from the materialized graph (no sketching)."""
    if g.n != params.n:
        raise ValueError(f"graph has n={g.n}, params expect n={params.n}")
    edges = g.sorted_edges()
    if edges:
        earr = np.array(edges, dtype=np.int64)
    else:
        earr = np.zeros((0, 2), dtype=np.int64)
    kept: set[tuple[int, int]] = set()
    metas: list[ForestMeta] = []
    budget = 0
    for i in range(params.num_forests):
        sseed = params.subset_seed(i)
        mask = subset_mask(sseed, params.n, params.k)
        size = int(mask.sum())
        metas.append(ForestMeta(size=size, failures=0, seed=sseed))
        budget += max(size - 1, 0)
        if size >= 2 and len(edges) > 0:
            sel = mask[earr[:, 0]] & mask[earr[:, 1]]
            uf = UnionFind(params.n)
            for u, v in earr[sel].tolist():
                if uf.union(u, v):
                    kept.add((u, v))
    h = EdgeSet(params.n, kept)
    assert len(h) <= budget, "certificate exceeded its forest edge budget"
    return Certificate(edges=h, params=params, forests=metas, sketch_bytes=0)


class StreamCertifier:
    """Single-pass dynamic-stream certifier: one sketch bank per subset.

    The banks' cells live in one SketchStore (three flat int64 arrays and
    one sketch battery per round, see streamvc.forest), and each event is
    folded into every bank that holds both endpoints in one vectorized
    pass. The measured byte footprint is a pure function of the
    parameters, so the optional cap is checked before any cell is
    allocated. A MultiGraph of the stream (validation bookkeeping, not
    charged to the sketch space) enforces stream legality.
    """

    def __init__(
        self,
        params: CertParams,
        space_cap_bytes: int | None = None,
        count_subset_bytes: bool = True,
    ):
        self.params = params
        self.count_subset_bytes = count_subset_bytes
        n, delta = params.n, params.resolved_delta
        subsets = sample_subsets(params)
        self._sketch_bytes = sum(bank_bytes(n, len(s), delta) for s in subsets)
        self._subset_bytes = len(subsets) * ((n + 7) // 8)
        if space_cap_bytes is not None and self.measured_bytes() > space_cap_bytes:
            raise SpaceExceededError(
                f"sketch state {self.measured_bytes()} bytes exceeds cap "
                f"{space_cap_bytes}"
            )
        self.banks = [ForestSketchBank.planned(n, s, delta) for s in subsets]
        self.store = SketchStore(n, self.banks, derive_seed(params.seed, "sketch"))
        self._graph = MultiGraph(n)

    def measured_bytes(self) -> int:
        extra = self._subset_bytes if self.count_subset_bytes else 0
        return self._sketch_bytes + extra

    def update(self, e: UpdateEvent) -> "StreamCertifier":
        self._graph.apply(e)
        self.store.update(e)
        return self

    def finalize(self) -> Certificate:
        kept: set[tuple[int, int]] = set()
        metas: list[ForestMeta] = []
        for i, bank in enumerate(self.banks):
            extraction = bank.extract()
            kept.update(extraction.forest.edges)
            metas.append(
                ForestMeta(
                    size=len(bank.members),
                    failures=extraction.sample_failures,
                    seed=self.params.subset_seed(i),
                )
            )
        h = EdgeSet(self.params.n, kept)
        assert len(h) <= sum(
            max(m.size - 1, 0) for m in metas
        ), "certificate exceeded its forest edge budget"
        return Certificate(
            edges=h,
            params=self.params,
            forests=metas,
            sketch_bytes=self.measured_bytes(),
        )


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
