"""Deterministic insertion-only certifier.

Keep an arriving edge iff its endpoints currently have fewer than k
vertex-disjoint paths through the retained set. The result F is an exact
certificate: F is k-connected iff the streamed graph is, F never grows
past 2kn edges, and F contains no (k+1)-connected subgraph (the last
kept edge of such a subgraph would have had k disjoint paths already).

The state is F plus its vertex-split flow network (`oracle._SplitNetwork`).
The network is built at the first offer, so a certifier that never sees
an edge allocates nothing per vertex. Each kept edge is added to it in
place, so an offer of a new edge runs one capped flow and rebuilds nothing.
"""
from __future__ import annotations

from .errors import InsertionOnlyViolationError
from .graph import EdgeSet, UpdateEvent, validate_event
from .oracle import _SplitNetwork, max_vertex_disjoint_paths


class InsertionCertifier:
    """Streaming retained-edge set F with the fewer-than-k-paths rule."""

    def __init__(self, n: int, k: int):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.n = n
        self.k = k
        self.retained = EdgeSet(n)
        self.offers = 0
        self._net: _SplitNetwork | None = None

    def offer(self, u: int, v: int) -> bool:
        """Process one arriving edge; returns whether it was kept.

        Parallel copies collapse to the simple support: once {u,v} is
        retained, re-offers are dropped (multiplicity cannot change
        vertex connectivity). The path count is taken before the edge is
        added, so the check never sees the offered edge itself.
        """
        e = UpdateEvent(u, v, 1)
        validate_event(e, self.n)
        self.offers += 1
        if self.retained.has(u, v):
            return False
        if self._net is None:
            self._net = _SplitNetwork([()] * self.n)
        kept = max_vertex_disjoint_paths(self._net, u, v, cap=self.k) < self.k
        if kept:
            self.retained.add(u, v)
            self._net.add_edge(u, v)
            if len(self.retained) > 2 * self.k * self.n:
                raise RuntimeError(
                    f"retained set has {len(self.retained)} edges, past its bound 2kn = "
                    f"{2 * self.k * self.n}"
                )
        return kept

    def offer_event(self, e: UpdateEvent) -> bool:
        if e.delta != 1:
            if e.delta == -1:
                raise InsertionOnlyViolationError(
                    f"deletion ({e.i},{e.j},{e.delta}) in insertion-only mode"
                )
            validate_event(e, self.n)  # raises on any other delta
        return self.offer(e.i, e.j)

    def finalize(self) -> EdgeSet:
        """The retained set; k-connected iff the streamed support is."""
        return self.retained
