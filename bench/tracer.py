"""Span tracer that times streamvc's public functions from outside the package.

While a traced pass runs, every traced callable is replaced at each place it
is looked up at call time. `from .x import f` binds `f` into the importing
module, so `streamvc.forest.sample_cells` and `streamvc.l0.sample_cells` are
both patched, not only the defining module; methods are patched on their
class. Each call records a span (name, start, end, parent) in flat
in-memory arrays, and observers add counts read from the call's arguments
and result. Per-layer self time is derived from the spans afterwards: a
span's duration minus the part of it that its child spans cover.

A traced callable that a later version of the package no longer has is
skipped, and its metrics read 0.
"""
from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# span name -> every "module:attribute" that binds the callable
TARGETS = {
    "streamio.parse": ("streamvc.streamio:read_stream",),
    "graph.replay": ("streamvc.graph:replay_stream", "streamvc:replay_stream"),
    "graph.adjacency": ("streamvc.graph:EdgeSet.adjacency",),
    "seeds.subset_mask": (
        "streamvc.seeds:subset_mask",
        "streamvc.certificate:subset_mask",
    ),
    "seeds.mix_u64": ("streamvc.seeds:mix_u64", "streamvc.l0:mix_u64"),
    "certificate.setup": ("streamvc.certificate:StreamCertifier.__init__",),
    "certificate.update": ("streamvc.certificate:StreamCertifier.update",),
    "certificate.finalize": ("streamvc.certificate:StreamCertifier.finalize",),
    "certificate.offline_build": (
        "streamvc.certificate:build_certificate_offline",
        "streamvc:build_certificate_offline",
    ),
    "certificate.verdict": (
        "streamvc.certificate:decide_k_connected",
        "streamvc:decide_k_connected",
    ),
    "forest.update": ("streamvc.forest:ForestSketchBank.update",),
    "forest.extract": ("streamvc.forest:ForestSketchBank.extract",),
    "l0.active_mask": ("streamvc.l0:L0Sketch.active_mask",),
    "l0.apply_masked": ("streamvc.l0:L0Sketch.apply_masked",),
    "l0.zpow": ("streamvc.l0:L0Sketch.zpow",),
    "l0.sample_cells": ("streamvc.l0:sample_cells", "streamvc.forest:sample_cells"),
    "oracle.is_k_connected": (
        "streamvc.oracle:is_k_connected",
        "streamvc.certificate:is_k_connected",
        "streamvc:is_k_connected",
    ),
    "oracle.disjoint_paths": (
        "streamvc.oracle:max_vertex_disjoint_paths",
        "streamvc.insertion:max_vertex_disjoint_paths",
        "streamvc.certificate:max_vertex_disjoint_paths",
        "streamvc:max_vertex_disjoint_paths",
    ),
    "insertion.offer": ("streamvc.insertion:InsertionCertifier.offer",),
    "insertion.finalize": ("streamvc.insertion:InsertionCertifier.finalize",),
}

LAYERS = ("streamio", "graph", "seeds", "certificate", "forest", "l0", "oracle", "insertion")

# (name, unit, better) of every per-layer metric, in report order; seconds
# and counts are per traced pass, self_s is time in the layer's own code
PER_LAYER = (
    ("streamio.parse_s", "s", "lower"),
    ("streamio.events", "count", "higher"),
    ("graph.replay_s", "s", "lower"),
    ("graph.adjacency_calls", "count", "lower"),
    ("graph.adjacency_s", "s", "lower"),
    ("seeds.subset_mask_s", "s", "lower"),
    ("seeds.mix_u64_calls", "count", "lower"),
    ("seeds.mix_u64_s", "s", "lower"),
    ("certificate.setup_s", "s", "lower"),
    ("certificate.update_calls", "count", "higher"),
    ("certificate.update_s", "s", "lower"),
    ("certificate.bank_hits_per_event", "count", "lower"),
    ("certificate.finalize_calls", "count", "higher"),
    ("certificate.finalize_s", "s", "lower"),
    ("certificate.offline_build_s", "s", "lower"),
    ("certificate.verdict_s", "s", "lower"),
    ("certificate.forest_failures", "count", "lower"),
    ("certificate.sum_Vi", "count", "lower"),
    ("forest.update_calls", "count", "lower"),
    ("forest.update_s", "s", "lower"),
    ("forest.mask_cache_hit_ratio", "ratio", "higher"),
    ("forest.extract_calls", "count", "lower"),
    ("forest.extract_s", "s", "lower"),
    ("forest.rounds_used", "count", "lower"),
    ("forest.sample_failures", "count", "lower"),
    ("l0.active_mask_calls", "count", "lower"),
    ("l0.active_mask_s", "s", "lower"),
    ("l0.apply_masked_calls", "count", "lower"),
    ("l0.apply_masked_s", "s", "lower"),
    ("l0.cells_written", "count", "lower"),
    ("l0.zpow_calls", "count", "lower"),
    ("l0.sample_cells_calls", "count", "lower"),
    ("l0.sample_cells_s", "s", "lower"),
    ("l0.decode_ok", "count", "higher"),
    ("l0.decode_empty", "count", "lower"),
    ("l0.decode_fail", "count", "lower"),
    ("l0.decode_ok_ratio", "ratio", "higher"),
    ("oracle.is_k_connected_calls", "count", "lower"),
    ("oracle.is_k_connected_s", "s", "lower"),
    ("oracle.pivot_pairs", "count", "lower"),
    ("oracle.disjoint_paths_calls", "count", "lower"),
    ("oracle.disjoint_paths_s", "s", "lower"),
    ("insertion.offers", "count", "higher"),
    ("insertion.offer_s", "s", "lower"),
    ("insertion.kept", "count", "lower"),
    ("insertion.kept_ratio", "ratio", "lower"),
    ("insertion.retained_edges", "count", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("bench.self_s", "s", "lower"),
    ("trace.certify_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _resolve(place: str):
    """(owner, attribute) for "module:attr" or "module:Class.attr"; None if gone."""
    module_name, path = place.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


# observers: (tracer, args, result) -> None, run after the span closes


def _observe_parse(tr, args, result):
    tr.counters["streamio.events"] += len(result[2])


def _observe_certificate(tr, args, result):
    tr.counters["certificate.forest_failures"] += result.forest_failures
    tr.gauges["certificate.sum_Vi"] = result.sum_subset_sizes


def _observe_bank_update(tr, args, result):
    # each bank update looks up one (mask, z^index) per round
    tr.counters["forest.mask_lookups"] += args[0].rounds


def _observe_extract(tr, args, result):
    tr.counters["forest.rounds_used"] += result.rounds_used
    tr.counters["forest.sample_failures"] += result.sample_failures


def _observe_apply(tr, args, result):
    tr.counters["l0.cells_written"] += int(np.count_nonzero(args[1]))


def _observe_sample(tr, args, result):
    if result is tr.empty:
        tr.counters["l0.decode_empty"] += 1
    elif result is tr.fail:
        tr.counters["l0.decode_fail"] += 1
    else:
        tr.counters["l0.decode_ok"] += 1


def _observe_verdict(tr, args, result):
    # the flows a true verdict runs: each of the k+1 pivots to its non-neighbours
    g, k = args[0], args[1]
    if k <= g.n - 1:
        deg = g.degrees()
        tr.counters["oracle.pivot_pairs"] += sum(g.n - 1 - deg[s] for s in range(k + 1))


def _observe_offer(tr, args, result):
    tr.counters["insertion.kept"] += bool(result)


def _observe_retained(tr, args, result):
    tr.gauges["insertion.retained_edges"] = len(result)


OBSERVERS = {
    "streamio.parse": _observe_parse,
    "certificate.finalize": _observe_certificate,
    "certificate.offline_build": _observe_certificate,
    "forest.update": _observe_bank_update,
    "forest.extract": _observe_extract,
    "l0.apply_masked": _observe_apply,
    "l0.sample_cells": _observe_sample,
    "oracle.is_k_connected": _observe_verdict,
    "insertion.offer": _observe_offer,
    "insertion.finalize": _observe_retained,
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.wall = 0.0
        self._stack: list[int] = []
        l0 = importlib.import_module("streamvc.l0")
        self.empty, self.fail = getattr(l0, "EMPTY", None), getattr(l0, "FAIL", None)

    def _wrap(self, nid: int, fn, observe):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    @contextmanager
    def traced_pass(self):
        """Patch every target for the body of the block and time the block."""
        patched = []
        try:
            for nid, (name, places) in enumerate(TARGETS.items()):
                wrappers = {}
                for place in places:
                    found = _resolve(place)
                    if found is None:
                        continue
                    owner, attr = found
                    fn = getattr(owner, attr)
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(nid, fn, OBSERVERS.get(name))
                    patched.append((owner, attr, fn))
                    setattr(owner, attr, wrappers[id(fn)])
            t0 = perf_counter()
            yield self
            self.wall = perf_counter() - t0
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric of the pass but trace.certify_s and trace.overhead_s.

        Those two compare passes, so the caller adds them.
        """
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(nid, minlength=len(self.names))
        spent = np.bincount(nid, weights=dur, minlength=len(self.names))
        layer_of = np.array([LAYERS.index(name.split(".")[0]) for name in self.names])
        layer_self = np.bincount(layer_of[nid], weights=dur - child, minlength=len(LAYERS))

        m: dict[str, float] = dict(self.counters)
        m.update(self.gauges)
        for i, name in enumerate(self.names):
            m[f"{name}_calls"] = calls[i]
            m[f"{name}_s"] = spent[i]
        m["insertion.offers"] = m["insertion.offer_calls"]
        m["certificate.bank_hits_per_event"] = _ratio(
            m["forest.update_calls"], m["certificate.update_calls"]
        )
        lookups = m.get("forest.mask_lookups", 0.0)
        if lookups:
            m["forest.mask_cache_hit_ratio"] = 1.0 - m["l0.active_mask_calls"] / lookups
        m["l0.decode_ok_ratio"] = _ratio(m.get("l0.decode_ok", 0.0), m["l0.sample_cells_calls"])
        m["insertion.kept_ratio"] = _ratio(m.get("insertion.kept", 0.0), m["insertion.offers"])
        for layer, seconds in zip(LAYERS, layer_self):
            m[f"{layer}.self_s"] = seconds
        m["bench.self_s"] = self.wall - dur[~nested].sum()
        m["trace.spans"] = len(dur)
        skip = ("trace.certify_s", "trace.overhead_s")
        return {name: float(m.get(name, 0.0)) for name, _, _ in PER_LAYER if name not in skip}

    def save(self, path) -> None:
        """Write every recorded span as numpy arrays (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
