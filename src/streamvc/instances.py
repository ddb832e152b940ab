"""Seeded generators for test and benchmark graphs and streams.

Includes the two-party set-disjointness reduction (a bipartite multigraph
that is k-connected exactly when the two binary strings share no
1-position), planted-cut families whose minimum cut is known by
construction and re-verified by the exact oracle at generation time,
legal random dynamic streams, and a handful of named graphs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import EdgeSet, UpdateEvent
from .oracle import is_k_connected, removal_disconnects
from .seeds import derive_seed

# share of 1s in each string of random_disjointness
DISJOINTNESS_ONES_PROB = 0.25
# share of the within-side edges gen_planted_cut thins out at its first attempt
PLANTED_THIN_PROB = 0.15
# share of gen_random_stream's included pairs that get a second copy
DOUBLE_EDGE_PROB = 0.1

@dataclass(frozen=True)
class DisjointnessInstance:
    """Two binary strings of length k*(n-k), indexed by (i, j) pairs."""

    n: int
    k: int
    x: tuple[int, ...]
    y: tuple[int, ...]

    def __post_init__(self):
        if not (1 <= self.k <= self.n // 2):
            raise ValueError(f"need 1 <= k <= n/2, got k={self.k}, n={self.n}")
        want = self.k * (self.n - self.k)
        if len(self.x) != want or len(self.y) != want:
            raise ValueError(
                f"strings must have length k*(n-k)={want}, "
                f"got {len(self.x)} and {len(self.y)}"
            )
        if any(b not in (0, 1) for b in self.x + self.y):
            raise ValueError("strings must be binary")

    @property
    def intersecting(self) -> bool:
        return any(a and b for a, b in zip(self.x, self.y))


def random_disjointness(
    n: int, k: int, seed: int, force: str | None = None
) -> DisjointnessInstance:
    """Random instance; force="disjoint" or "intersecting" pins the answer."""
    rng = np.random.default_rng(derive_seed(seed, "disjointness", n, k))
    size = k * (n - k)
    x = (rng.random(size) < DISJOINTNESS_ONES_PROB).astype(int)
    y = (rng.random(size) < DISJOINTNESS_ONES_PROB).astype(int)
    if force == "disjoint":
        y[x == 1] = 0
    elif force == "intersecting":
        pos = int(rng.integers(size))
        x[pos] = 1
        y[pos] = 1
    elif force is not None:
        raise ValueError(f"unknown force mode {force!r}")
    return DisjointnessInstance(n, k, tuple(int(b) for b in x), tuple(int(b) for b in y))


def gen_disjointness(
    inst: DisjointnessInstance,
) -> tuple[list[UpdateEvent], list[UpdateEvent]]:
    """Build the two players' insertion streams.

    Vertices 0..k-1 are the left side u_1..u_k, vertices k..n-1 the right
    side v_1..v_(n-k). The first player inserts (u_i, v_j) where her
    string is 0, the second where his is 0, so a pair is missing exactly
    when both strings hold a 1 there and the graph is k-connected iff the
    strings are disjoint. Up to two parallel edges per pair.
    """
    n, k = inst.n, inst.k
    alice: list[UpdateEvent] = []
    bob: list[UpdateEvent] = []
    for i in range(k):
        for j in range(n - k):
            flat = i * (n - k) + j
            if inst.x[flat] == 0:
                alice.append(UpdateEvent(i, k + j, 1))
            if inst.y[flat] == 0:
                bob.append(UpdateEvent(i, k + j, 1))
    return alice, bob


def gen_planted_cut(
    n: int, k: int, seed: int, extra_st_edges: int = 0
) -> tuple[EdgeSet, set[int]]:
    """Graph with a planted separator X of size k-1.

    Vertices split into (S, X, T); both S+X and T+X start as cliques and
    a seeded fraction of the edges not touching X is thinned out. With no
    extra side-to-side edges the connectivity is exactly k-1 and X is a
    minimum cut, which is verified by the oracle before returning (the
    thinning is retried, finally dropped, if verification fails). With
    extra_st_edges > 0 that many S-T edges are added, lifting the
    connectivity to at least k (verified likewise).
    """
    if n < k + 2:
        raise ValueError(f"need n >= k+2, got n={n}, k={k}")
    rng = np.random.default_rng(derive_seed(seed, "planted", n, k, extra_st_edges))
    cut = set(range(k - 1))
    rest = list(range(k - 1, n))
    half = (len(rest) + 1) // 2
    side_s = rest[:half]
    side_t = rest[half:]

    def build(prob: float) -> EdgeSet:
        g = EdgeSet(n)
        for group in (side_s, side_t):
            for a_i, a in enumerate(group):
                for b in group[a_i + 1 :]:
                    if rng.random() >= prob:
                        g.add(a, b)
            for a in group:
                for x in cut:
                    g.add(a, x)
        for x_i, x in enumerate(sorted(cut)):
            for w in sorted(cut)[x_i + 1 :]:
                g.add(x, w)
        for _ in range(extra_st_edges):
            g.add(int(rng.choice(side_s)), int(rng.choice(side_t)))
        return g

    for attempt in (PLANTED_THIN_PROB, PLANTED_THIN_PROB / 2, 0.0):
        g = build(attempt)
        if extra_st_edges == 0:
            ok = removal_disconnects(g, cut)
            if k >= 2:
                ok = ok and is_k_connected(g, k - 1)
            else:
                ok = not is_k_connected(g, 1)
            if ok:
                return g, set(cut)
        else:
            if is_k_connected(g, k):
                return g, set(cut)
    raise AssertionError("planted-cut construction failed oracle verification")


def gen_random_stream(
    n: int,
    target_density: float,
    delete_fraction: float,
    seed: int,
) -> list[UpdateEvent]:
    """Legal dynamic stream whose final graph is an ER-style multigraph.

    Each pair is included with probability target_density (a fraction of
    the included pairs with multiplicity two); delete_fraction of the
    inserted copies are deleted again, each deletion placed after its
    insertion so every prefix stays non-negative.

    A (n, target_density, delete_fraction, seed) stream is byte-identical
    across versions as long as this function makes the same rng calls in
    the same order: one or two draws per pair, the permutation, the
    victims, then one placement draw per victim. tests/test_instances.py
    pins this with a reference copy of the earlier tuple-scan body and by
    sha256. Each deletion costs one C-level scan (list.index) and one
    list.insert over the ids.
    """
    if not (0.0 <= target_density <= 1.0) or not (0.0 <= delete_fraction <= 1.0):
        raise ValueError("fractions must lie in [0, 1]")
    rng = np.random.default_rng(derive_seed(seed, "stream", n))
    pairs: list[tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < target_density:
                pairs.append((u, v))
                if rng.random() < DOUBLE_EDGE_PROB:
                    pairs.append((u, v))
    # insert ids in stream order; the deletion of insert i is stored as ~i
    order: list[int] = rng.permutation(len(pairs)).tolist()
    num_deletes = int(round(delete_fraction * len(pairs)))
    if num_deletes:
        for victim in rng.choice(len(pairs), size=num_deletes, replace=False).tolist():
            order.insert(int(rng.integers(order.index(victim) + 1, len(order) + 1)), ~victim)
    return [UpdateEvent(*pairs[i], 1) if i >= 0 else UpdateEvent(*pairs[~i], -1) for i in order]


def legal_shuffle(events: Sequence[UpdateEvent], seed: int) -> list[UpdateEvent]:
    """Random reordering that keeps every prefix multiplicity non-negative."""
    rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    remaining = list(events)
    counts: dict[tuple[int, int], int] = {}
    out: list[UpdateEvent] = []
    while remaining:
        order = rng.permutation(len(remaining))
        for idx in order:
            e = remaining[idx]
            key = (min(e.i, e.j), max(e.i, e.j))
            if e.delta == 1 or counts.get(key, 0) > 0:
                counts[key] = counts.get(key, 0) + e.delta
                out.append(e)
                remaining.pop(idx)
                break
        else:
            raise AssertionError("stream admits no legal reordering step")
    return out


def complete(n: int) -> EdgeSet:
    return EdgeSet(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> EdgeSet:
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return EdgeSet(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> EdgeSet:
    return EdgeSet(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> EdgeSet:
    if n < 2:
        raise ValueError("stars need n >= 2")
    return EdgeSet(n, [(0, i) for i in range(1, n)])


def petersen() -> EdgeSet:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))  # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))  # spokes
    return EdgeSet(10, edges)


def hypercube(d: int) -> EdgeSet:
    if d < 1:
        raise ValueError("hypercubes need d >= 1")
    n = 1 << d
    return EdgeSet(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d)])


def complete_bipartite(a: int, b: int) -> EdgeSet:
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    return EdgeSet(a + b, [(i, a + j) for i in range(a) for j in range(b)])


_NAME_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([0-9]+)\s*(?:,\s*([0-9]+)\s*)?\))?\s*$")


def gen_named(name: str) -> EdgeSet:
    """Parse names like complete(5), hypercube(3), petersen."""
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unparseable graph name {name!r}")
    kind, a, b = m.group(1), m.group(2), m.group(3)
    a = int(a) if a is not None else None
    b = int(b) if b is not None else None
    try:
        if kind == "petersen" and a is None:
            return petersen()
        if b is None and a is not None:
            table = {
                "complete": complete,
                "cycle": cycle,
                "path": path_graph,
                "star": star,
                "hypercube": hypercube,
            }
            if kind in table:
                return table[kind](a)
        if kind == "complete_bipartite" and a is not None and b is not None:
            return complete_bipartite(a, b)
    except ValueError as exc:
        raise ValueError(f"bad arguments for {name!r}: {exc}") from exc
    raise ValueError(f"unknown graph name {name!r}")


def edges_to_stream(g: EdgeSet) -> list[UpdateEvent]:
    """Insertion stream listing a graph's edges in sorted order."""
    return [UpdateEvent(u, v, 1) for u, v in g.sorted_edges()]
