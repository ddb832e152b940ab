"""Exact vertex-connectivity computations via unit-capacity max-flow.

Counting internally vertex-disjoint s-t paths reduces to max-flow on the
standard vertex-split network: every vertex v becomes an arc v_in -> v_out
of capacity one, each undirected edge becomes a pair of opposite arcs
between the split halves, and flow runs from s_out to t_in. Edge arcs get
a large capacity so minimum cuts consist of internal arcs only, which is
what makes vertex-cut extraction from residual reachability exact. One
network is built per graph and queried for any (s, t) from a fresh copy
of its base capacities; a direct {s,t} edge is lowered to a unit arc for
that query only, so it contributes exactly one path. A network can also
grow by one edge at a time between queries, which is how the insertion
certifier keeps one for its growing retained set. Each flow phase
searches back from the sink and stops as soon as it labels the source;
only the last search of a flow, which finds no path, runs to exhaustion,
and the minimum cut is read off it.

Global connectivity is the minimum of the pairwise values over
non-adjacent pairs (n-1 for complete graphs), and it suffices to take
that minimum over the witness pairs of Esfahanian and Hakimi (1984): for
a minimum-degree vertex v, the pairs (v, w) for every non-neighbour w,
plus every non-adjacent pair of v's neighbours. If v lies outside some
minimum cut S, a non-neighbour w lies beyond S and (v, w) is separated
by S. If v lies in every minimum cut, take one such S: every vertex of a
minimum cut has a neighbour in each component of G - S (otherwise S - v
would still separate), so v has non-adjacent neighbours on two sides of
S. Either way some witness pair has local connectivity |S|. The witness
scan and the exhaustive pairwise definition are cross-checked in the
test suite, and against networkx.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import combinations

from .errors import InvalidVertexError
from .graph import EdgeSet, component_partition

_BIG = 1 << 30


class _SplitNetwork:
    """Unit-capacity vertex-split network of one graph, reused per (s, t).

    Node ids: 2v = v_in, 2v+1 = v_out. Arcs come in (forward, reverse)
    pairs a, a^1; arc 2v is the internal arc v_in -> v_out, and every
    edge {u,v} adds u_out -> v_in and v_out -> u_in. A query sends flow
    from s_out to t_in on a copy of the base capacities. The internal
    arcs of s and t stay in the network but never cross the cut: s_out
    is the source, which cannot reach the sink once the flow is maximum,
    and t_in is the sink itself. The constructor adds every edge through
    add_edge, and add_edge can grow the network between queries.

    Each search back from the sink stops once it labels the source. The
    cut of a maximum flow is read off the flow's last search, which found
    no path and so ran to exhaustion: the nodes it reached are the
    same for every maximum flow (the smallest sink side of a minimum
    cut; Picard and Queyranne, 1980), so the vertex cut returned is the
    minimum s-t separator nearest t, the unique one whose t side lies
    inside the t side of every other.
    """

    def __init__(self, adj: Sequence[Sequence[int]]):
        n = len(adj)
        self.n = n
        self.num_nodes = 2 * n
        self.to: list[int] = []
        self.base: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(2 * n)]
        for v in range(n):
            self._add_arc(2 * v, 2 * v + 1, 1)
        for u in range(n):
            for v in adj[u]:
                if u < v:
                    self.add_edge(u, v)
        self.cap = self.base
        self.source = self.sink = -1
        self.dist: list[int] = []

    def _add_arc(self, x: int, y: int, c: int) -> None:
        """Append arc x -> y of capacity c and its empty reverse y -> x."""
        a = len(self.to)
        self.head[x].append(a)
        self.head[y].append(a + 1)
        self.to += (y, x)
        self.base += (c, 0)

    def add_edge(self, u: int, v: int) -> None:
        """Add edge {u,v}: the arcs u_out -> v_in and v_out -> u_in.

        Later queries see it; a query's flow is never carried over, since
        each starts from a fresh copy of the base capacities.
        """
        self._add_arc(2 * u + 1, 2 * v, _BIG)
        self._add_arc(2 * v + 1, 2 * u, _BIG)

    def max_flow(self, s: int, t: int, limit: int) -> int:
        """Disjoint s-t paths in the graph, counting stopped at `limit`."""
        self.source, self.sink = 2 * s + 1, 2 * t
        self.cap = cap = self.base[:]
        for a in self.head[self.source]:
            if self.to[a] == self.sink:
                cap[a] = 1  # the direct edge is one path
        flow = 0
        while flow < limit:
            dist = self._distances()
            if dist is None:
                break
            ptr = [0] * self.num_nodes
            while flow < limit and self._augment(dist, ptr):
                flow += 1
        return flow

    def _distances(self) -> list[int] | None:
        """Residual distance to the sink of every node nearer to it than the source.

        Searching back from the sink means every arc the augmenting walk
        follows from the source leads towards the sink. The search stops
        as soon as it labels the source: every node one level closer to
        the sink is labelled by then, and the walk steps only to those,
        so the rest of the source's level is never needed. None when the
        source is out of reach; that last search ran to exhaustion, so
        self.dist then holds, for every node, its distance if it still
        reaches the sink and -1 if not, which is what residual_cut reads.
        """
        self.dist = dist = [-1] * self.num_nodes
        source = self.source
        dist[self.sink] = 0
        queue = deque([self.sink])
        to, cap, head = self.to, self.cap, self.head
        while queue:
            u = queue.popleft()
            d = dist[u] + 1
            for a in head[u]:
                v = to[a]
                if dist[v] < 0 and cap[a ^ 1] > 0:
                    dist[v] = d
                    if v == source:
                        return dist
                    queue.append(v)
        return None

    def _augment(self, dist: list[int], ptr: list[int]) -> bool:
        """Push one unit along a shortest residual path, if one is left."""
        to, cap, head = self.to, self.cap, self.head
        sink = self.sink
        path: list[int] = []
        u = self.source
        while u != sink:
            arcs, i, want = head[u], ptr[u], dist[u] - 1
            while i < len(arcs) and not (cap[arcs[i]] > 0 and dist[to[arcs[i]]] == want):
                i += 1
            ptr[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = to[arcs[i]]
            elif path:
                dist[u] = -1  # dead end, prune
                u = to[path.pop() ^ 1]
                ptr[u] += 1
            else:
                return False
        for a in path:
            cap[a] -= 1
            cap[a ^ 1] += 1
        return True

    def residual_cut(self) -> set[int]:
        """Minimum vertex cut nearest t of the last query's maximum flow.

        X = {v : v_out reaches the sink in the residual network, v_in
        not}, read from the last search of max_flow. Defined only after
        a query whose flow stayed below its limit: only then is the flow
        maximum and that search one that found no path.
        """
        reach = self.dist
        return {v for v in range(self.num_nodes // 2) if reach[2 * v + 1] >= 0 > reach[2 * v]}


def _witness_pairs(adj: list[list[int]]) -> list[tuple[int, int]]:
    """Non-adjacent pairs whose minimum local connectivity is the global one.

    For a minimum-degree vertex v: (v, w) for every non-neighbour w, then
    every non-adjacent pair of v's neighbours (see the module docstring
    for why this is exact). Empty iff the graph is complete.
    """
    n = len(adj)
    v = min(range(n), key=lambda u: len(adj[u]))
    near = set(adj[v])
    pairs = [(v, w) for w in range(n) if w != v and w not in near]
    nbrs = sorted(near)
    for i, x in enumerate(nbrs):
        adjacent = set(adj[x])
        pairs.extend((x, y) for y in nbrs[i + 1 :] if y not in adjacent)
    return pairs


def max_vertex_disjoint_paths(
    g: EdgeSet | _SplitNetwork, s: int, t: int, cap: int | None = None
) -> int:
    """Maximum number of internally vertex-disjoint s-t paths.

    A direct {s,t} edge counts as one path. With `cap` set, counting stops
    early and the returned value is min(true value, cap). `g` is a graph,
    or a split network already built for it (a caller that queries a
    growing graph keeps one and adds each edge with add_edge).
    """
    if not (0 <= s < g.n) or not (0 <= t < g.n):
        raise InvalidVertexError(f"vertices ({s},{t}) not in 0..{g.n - 1}")
    if s == t:
        raise ValueError("s and t must differ")
    limit = g.n if cap is None else max(0, min(cap, g.n))
    if limit == 0:
        return 0
    net = g if isinstance(g, _SplitNetwork) else _SplitNetwork(g.adjacency())
    return net.max_flow(s, t, limit)


def _lowest_witness_flow(
    adj: list[list[int]], cutoff: int, floor: int
) -> tuple[int, set[int] | None]:
    """(kappa, cut): the lowest witness-pair flow below cutoff and its vertex cut.

    One network serves every witness pair. Each flow is capped at the
    running minimum, so later pairs stop augmenting once they cannot
    lower it, and the scan stops once the minimum is at most floor. A
    flow below its cap is a maximum flow, so the residual cut of the
    pair that lowers the minimum is a minimum cut of that pair.
    (cutoff, None) when no flow falls below cutoff, which includes the
    complete graph (no witness pairs).
    """
    net = _SplitNetwork(adj)
    kappa, cut = cutoff, None
    for s, t in _witness_pairs(adj):
        flow = net.max_flow(s, t, kappa)
        if flow < kappa:
            kappa, cut = flow, net.residual_cut()
            if len(cut) != kappa:
                raise RuntimeError(f"residual cut has {len(cut)} vertices, not the flow {kappa}")
            if kappa <= floor:
                break
    return kappa, cut


def vertex_connectivity(g: EdgeSet) -> int:
    """Exact vertex connectivity; n-1 for complete graphs, 0 if disconnected.

    Minimum of max_vertex_disjoint_paths over the witness pairs.
    """
    if g.n < 2:
        raise ValueError("vertex connectivity needs at least 2 vertices")
    return _lowest_witness_flow(g.adjacency(), g.n - 1, 0)[0]


def is_k_connected(g: EdgeSet, k: int) -> bool:
    """True iff vertex_connectivity(g) >= k.

    Short-circuits on min degree < k; k > n-1 is trivially false (which
    also covers single-vertex graphs, whose connectivity we leave
    undefined). Otherwise runs one flow capped at k per witness pair and
    stops at the first pair with fewer than k disjoint paths.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > g.n - 1:
        return False
    adj = g.adjacency()
    if min(len(a) for a in adj) < k:
        return False
    return _lowest_witness_flow(adj, k, k - 1)[0] == k


def find_vertex_cut(g: EdgeSet, k: int) -> set[int] | None:
    """Minimum vertex cut if connectivity is below k, else None.

    The cut of the witness scan with a running cutoff starting at k: of
    the first witness pair (s, t) whose flow is the minimum, the minimum
    s-t separator nearest t. A disconnected graph yields the empty cut;
    a complete graph below k returns all vertices but one (removal
    leaves a singleton).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n < 2:
        raise ValueError("vertex cuts need at least 2 vertices")
    if len(g) == g.n * (g.n - 1) // 2:
        return set(range(1, g.n)) if k > g.n - 1 else None
    return _lowest_witness_flow(g.adjacency(), k, 0)[1]


def _k_core(g: EdgeSet, k: int) -> set[int]:
    deg = g.degrees()
    adj = g.adjacency()
    alive = [True] * g.n
    queue = deque(v for v in range(g.n) if deg[v] < k)
    while queue:
        v = queue.popleft()
        if not alive[v]:
            continue
        alive[v] = False
        for u in adj[v]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] < k:
                    queue.append(u)
    return {v for v in range(g.n) if alive[v]}


def has_k_connected_subgraph(g: EdgeSet, k: int) -> bool:
    """True iff some induced subgraph on >= k+1 vertices is k-connected.

    Brute force, guarded to n <= 12. Any k-connected subgraph has min
    degree >= k inside its vertex set, so it lies within the k-core and
    within one core component; enumeration is restricted accordingly and
    runs from large subsets down for early exit. Induced subgraphs suffice
    because adding back induced edges never lowers connectivity.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if g.n > 12:
        raise ValueError(f"brute-force guard: n={g.n} exceeds 12")
    core = _k_core(g, k)
    low = max(k + 1, 2)
    if len(core) < low:
        return False
    for comp_frozen in component_partition(core, g.edges):
        comp = sorted(comp_frozen)
        if len(comp) < low:
            continue
        for size in range(len(comp), low - 1, -1):
            for subset in combinations(comp, size):
                sub = g.induced(subset)
                if min(sub.degrees()) < k:
                    continue
                if is_k_connected(sub, k):
                    return True
    return False


def removal_disconnects(g: EdgeSet, cut: set[int]) -> bool:
    """Whether deleting `cut` disconnects g (or leaves fewer than 2 vertices)."""
    remaining = [v for v in range(g.n) if v not in cut]
    return len(remaining) <= 1 or len(component_partition(remaining, g.edges)) > 1
