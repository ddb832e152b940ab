"""Graph and stream-event data model shared by all modules.

A dynamic stream is a sequence of UpdateEvent tuples whose running edge
multiplicities must stay non-negative at every prefix. Replaying a stream
yields a MultiGraph; collapsing multiplicities yields the simple EdgeSet
that connectivity computations operate on (parallel edges never change
vertex connectivity). spanning_forest is the one Boruvka pass that both
certifiers build their spanning forests with.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidVertexError, NegativeMultiplicityError, SelfLoopError


class UpdateEvent(NamedTuple):
    """One dynamic-stream tuple: endpoints i, j and a signed unit delta."""

    i: int
    j: int
    delta: int


def validate_event(e: UpdateEvent, n: int) -> None:
    """Reject self-loops, out-of-range endpoints and non-unit deltas."""
    if not (0 <= e.i < n) or not (0 <= e.j < n):
        raise InvalidVertexError(f"endpoints ({e.i},{e.j}) not in 0..{n - 1}")
    if e.i == e.j:
        raise SelfLoopError(f"self-loop at vertex {e.i}")
    if e.delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1, got {e.delta}")


def pair_key(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered pair (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass
class MultiGraph:
    """Materialized multigraph with per-pair multiplicities.

    Equal to another MultiGraph with the same n and multiplicities.
    """

    n: int
    mult: dict[tuple[int, int], int]

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.mult = {}

    def apply(self, e: UpdateEvent) -> "MultiGraph":
        """Apply one update in place; multiplicities must stay >= 0."""
        validate_event(e, self.n)
        key = pair_key(e.i, e.j)
        new = self.mult.get(key, 0) + e.delta
        if new < 0:
            raise NegativeMultiplicityError(f"edge {key} would go negative")
        if new == 0:
            self.mult.pop(key, None)
        else:
            self.mult[key] = new
        return self

    def multiplicity(self, u: int, v: int) -> int:
        return self.mult.get(pair_key(u, v), 0)

    def support(self) -> "EdgeSet":
        """Simple graph underlying the multigraph (multiplicity >= 1)."""
        return EdgeSet(self.n, self.mult.keys())

    def copy(self) -> "MultiGraph":
        g = MultiGraph(self.n)
        g.mult = dict(self.mult)
        return g

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, edges={len(self.mult)})"


def replay_stream(events: Iterable[UpdateEvent], n: int) -> MultiGraph:
    """Materialize the multigraph defined by a legal dynamic stream."""
    g = MultiGraph(n)
    for e in events:
        g.apply(e)
    return g


@dataclass
class EdgeSet:
    """Simple undirected graph on vertices 0..n-1, stored as sorted pairs.

    Equal to another EdgeSet, frozen or not, with the same n and edges.
    """

    n: int
    edges: set[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.edges = set()
        for u, v in edges:
            self.add(u, v)

    @classmethod
    def frozen(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "EdgeSet":
        """A read-only EdgeSet of pairs already canonical (u < v, both below n), unchecked.

        Its pair set is a frozenset, so add raises AttributeError, and it
        is a _FrozenEdgeSet, so assigning n or edges raises AttributeError.
        """
        graph = cls(n)
        graph.edges = frozenset(pairs)
        graph.__class__ = _FrozenEdgeSet
        return graph

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def add(self, u: int, v: int) -> None:
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if not (0 <= u < self.n) or not (0 <= v < self.n):
            raise InvalidVertexError(f"edge ({u},{v}) not in 0..{self.n - 1}")
        self.edges.add(pair_key(u, v))

    def has(self, u: int, v: int) -> bool:
        return pair_key(u, v) in self.edges

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair_key(*pair) in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def induced(self, vertices: Iterable[int]) -> "EdgeSet":
        """Induced subgraph, relabelled densely in sorted vertex order."""
        verts = sorted(set(vertices))
        index = {v: i for i, v in enumerate(verts)}
        sub = EdgeSet(len(verts))
        for u, v in self.edges:
            if u in index and v in index:
                sub.add(index[u], index[v])
        return sub

    def is_subset_of(self, other: "EdgeSet") -> bool:
        return self.edges <= other.edges

    def __repr__(self) -> str:
        return f"EdgeSet(n={self.n}, edges={len(self.edges)})"


class _FrozenEdgeSet(EdgeSet):
    """What EdgeSet.frozen returns: n and edges cannot be assigned.

    A subclass, so that a mutable EdgeSet pays no __setattr__ of its own.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name} of a frozen EdgeSet")


class UnionFind:
    """Union-find over 0..n-1 with path compression and union by rank."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def spanning_forest(comp, u, v):
    """The node pairs Kruskal keeps when it scans them in order, and the labels they leave.

    comp (a numpy int array) labels every node by a node of its component
    that labels itself; u and v (int arrays) are the pairs, in weight
    order. Returns (kept, comp): a bool mask, True for each pair that
    joins two components when Kruskal's algorithm scans the pairs in that
    order from the partition comp (so a pair inside a component, or a
    repeat of a kept pair, drops), and the labels of the components the
    kept pairs leave, in the same form (which node of a joined component
    labels it is left to the hooks).

    Boruvka rounds: every component with a crossing pair hooks onto the
    other end of its first one. A pair's position is its weight, and
    distinct weights make the minimum spanning forest unique, so the
    hooked pairs are the ones Kruskal keeps. Two components hook onto
    each other only where both pick the same pair, and the smaller label
    stays root there; pointer jumping then relabels every node by its
    root, and pairs inside a component drop.
    """
    kept = np.zeros(len(u), dtype=bool)
    pair = np.arange(len(u))  # the pairs that may still cross, in scan order
    while True:
        cu, cv = comp[u[pair]], comp[v[pair]]
        live = cu != cv
        if not live.any():
            return kept, comp
        pair, cu, cv = pair[live], cu[live], cv[live]
        first = np.full(len(comp), len(u))  # each component's first crossing pair
        np.minimum.at(first, cu, pair)
        np.minimum.at(first, cv, pair)
        hooked = np.flatnonzero(first < len(u))
        chosen = first[hooked]
        kept[chosen] = True
        other = comp[u[chosen]] + comp[v[chosen]] - hooked
        parent = comp.copy()  # a non-root's parent is its root
        # two components hook onto each other iff both pick the same pair: the smaller stays root
        parent[hooked] = np.where((first[other] == chosen) & (hooked < other), hooked, other)
        comp = parent[parent]
        while (comp != parent).any():
            parent, comp = comp, comp[comp]


def component_partition(vertices: Iterable[int], edges: Iterable[tuple[int, int]]):
    """Partition of `vertices` into connected components under `edges`.

    Edges with an endpoint outside `vertices` are ignored. Returns a
    canonical frozenset of frozensets, convenient for equality checks.
    """
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    uf = UnionFind(len(verts))
    for u, v in edges:
        if u in index and v in index:
            uf.union(index[u], index[v])
    groups: dict[int, set[int]] = {}
    for v in verts:
        groups.setdefault(uf.find(index[v]), set()).add(v)
    return frozenset(frozenset(g) for g in groups.values())
