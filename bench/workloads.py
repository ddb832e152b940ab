"""streamvc benchmark workloads: inputs, timed certify passes and the correctness gate.

Each run is a closed loop of single-threaded passes over the same stream
file, one after another until the run's seconds are used. A pass
is what `streamvc certify` does for one user, from the stream file on disk
to the last verdict: parse, set up the certifier, feed every event as fast
as the certifier accepts it, and answer each verdict query. Every verdict is
then checked, untimed, against the streamed graph.

This module measures one pass, or one set-up, in the current process and
writes the result as JSON; bench/run.py starts it in a fresh process for
each, so every pass pays the cold start a `streamvc certify` user pays:

    python3 bench/workloads.py --spec JSON --stream FILE --seed N \\
        --task pass|setup --trace 0|1 --result FILE [--spans FILE]
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import streamvc  # noqa: E402
from streamvc import certificate, graph, insertion, instances, oracle, streamio  # noqa: E402

# the gate holds its own references, so neither tracing nor a test that
# patches the program's verdict path can change the answers it checks against
from streamvc.graph import replay_stream as _replay  # noqa: E402
from streamvc.oracle import is_k_connected as _exact_k_connected  # noqa: E402

from tracer import Tracer  # noqa: E402

if Path(streamvc.__file__).resolve().parent != (ROOT / "src" / "streamvc").resolve():
    raise ImportError(f"streamvc imported from {streamvc.__file__}, not from {ROOT / 'src'}")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a generated stream and the certifier that reads it.

    The stream is the first `events` events of
    instances.gen_random_stream(n, density, delete_fraction, seed); every
    prefix of a legal stream is legal, and a fixed length keeps the work
    per pass the same across seeds.
    """

    name: str
    mode: str  # "dynamic", "offline" or "insertion"
    n: int
    k: int
    density: float
    delete_fraction: float
    events: int
    query_every: int = 0  # a verdict after every this many events; 0 = at the end only
    setup_samples: int = 3  # fewest set-up timings per run; each untraced pass gives one
    setup_batch: int = 1  # set-ups averaged per timing, for sub-millisecond set-ups
    why: str = ""
    stresses: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dyn-churn",
            mode="dynamic",
            n=32,
            k=2,
            density=0.28,
            delete_fraction=0.5,
            events=150,
            query_every=50,
            why="churn-heavy dynamic stream with a verdict every 50 events: the per-event "
            "sketch path dominates, extraction and verdict run little",
            stresses="certificate.update -> forest.update -> l0.active_mask / apply_masked",
        ),
        Workload(
            name="dyn-query",
            mode="dynamic",
            n=32,
            k=2,
            density=0.3,
            delete_fraction=0.2,
            events=40,
            query_every=1,
            why="monitoring user querying after every event of a light dynamic stream: "
            "decode of the sketch state dyn-churn writes dominates",
            stresses="certificate.finalize -> forest.extract -> l0.sample_cells",
        ),
        Workload(
            name="offline-verdict",
            mode="offline",
            n=140,
            k=4,
            density=0.13,
            delete_fraction=0.2,
            events=1500,
            setup_samples=5,
            setup_batch=20_000,
            why="offline certificate of a k-connected graph: the pivot flows of the verdict "
            "on H dominate and no sketch runs",
            stresses="certificate.verdict -> oracle.is_k_connected",
        ),
        Workload(
            name="insertion",
            mode="insertion",
            n=60,
            k=4,
            density=0.85,
            delete_fraction=0.0,
            events=850,
            setup_samples=5,
            setup_batch=20_000,
            why="insertion-only certifier: one capped s-t flow per offer on a growing F, "
            "the only workload that runs the insertion module",
            stresses="insertion.offer -> oracle.disjoint_paths -> graph.adjacency",
        ),
    )
}

# certificate parameters of every workload: the forest-count constant C and
# the per-forest sketch failure budget
SCALE_C = 20.0
DELTA = 0.01

# (name, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ingest_eps", "events/s", "higher"),
    ("query_p50_s", "s", "lower"),
    ("query_tail_s", "s", "lower"),
    ("certify_s", "s", "lower"),
    ("peak_rss_bytes", "bytes", "lower"),
    ("sketch_bytes", "bytes", "lower"),
    ("cert_edges", "edges", "lower"),
)

# accounted state of the certifiers that hold edges, not sketches: two int64 endpoints
EDGE_BYTES = 16


def write_stream(w: Workload, seed: int, path) -> None:
    """Generate the workload's stream from the seed and write it to `path`."""
    events = instances.gen_random_stream(w.n, w.density, w.delete_fraction, seed)[: w.events]
    streamio.write_stream(
        path,
        w.n,
        w.k,
        events,
        comment=f"bench {w.name}: gen_random_stream({w.n}, {w.density}, "
        f"{w.delete_fraction}, seed={seed})[:{w.events}]",
    )


def _params(w: Workload, seed: int) -> certificate.CertParams:
    return certificate.CertParams(n=w.n, k=w.k, scale_c=SCALE_C, seed=seed, delta=DELTA)


def _setup(w: Workload, seed: int):
    """The certifier's set-up, as a callable: the state built before the first event."""
    if w.mode == "dynamic":
        params = _params(w, seed)
        return lambda: certificate.StreamCertifier(params)
    if w.mode == "offline":
        # the offline certificate keeps no state before the graph; its set-up is its parameters
        return lambda: _params(w, seed)
    return lambda: insertion.InsertionCertifier(w.n, w.k)


def time_setup(w: Workload, seed: int) -> float:
    """Seconds per set-up: the mean over a batch of `setup_batch` set-ups."""
    make = _setup(w, seed)
    t0 = perf_counter()
    for _ in range(w.setup_batch):
        make()
    return (perf_counter() - t0) / w.setup_batch


def _asks(w: Workload, total: int) -> list[int]:
    """The event counts after which a verdict is asked: every `query_every` events and at the end."""
    return [*range(w.query_every, total, w.query_every), total] if w.query_every else [total]


def run_pass(w: Workload, seed: int, stream) -> dict:
    """One timed certify pass over the stream file.

    A query is timed from the verdict request to the verdict. An exception
    in a query is recorded and counts as a failed query; any other
    exception ends the run.
    """
    make = _setup(w, seed)
    queries = []
    ingest_s = 0.0

    def ask(pos: int, answer) -> None:
        t0 = perf_counter()
        try:
            verdict, edges = answer()
        except Exception as exc:  # a failed query is counted, not fatal
            queries.append({"pos": pos, "s": perf_counter() - t0, "error": repr(exc)})
            return
        queries.append({"pos": pos, "s": perf_counter() - t0, "verdict": verdict, "edges": edges})

    t_start = perf_counter()
    n, k, events = streamio.read_stream(stream)
    t0 = perf_counter()
    state = make()
    setup_s = perf_counter() - t0
    if w.mode == "offline":
        t0 = perf_counter()
        g = graph.replay_stream(events, n).support()
        ingest_s = perf_counter() - t0

        def answer():
            cert = certificate.build_certificate_offline(g, state)
            return certificate.decide_k_connected(cert), cert.edges.edges

        ask(len(events), answer)
        state_bytes = EDGE_BYTES * len(g)
    else:
        if w.mode == "dynamic":
            feed = state.update

            def answer():
                cert = state.finalize()
                return certificate.decide_k_connected(cert), cert.edges.edges

        else:
            feed = state.offer_event

            def answer():
                retained = state.finalize()
                return oracle.is_k_connected(retained, k), retained.edges

        done = 0
        for end in _asks(w, len(events)):
            t0 = perf_counter()
            for e in events[done:end]:
                feed(e)
            ingest_s += perf_counter() - t0
            done = end
            ask(end, answer)
        state_bytes = (
            state.measured_bytes() if w.mode == "dynamic" else EDGE_BYTES * len(state.retained)
        )
    certify_s = perf_counter() - t_start
    return {
        "certify_s": certify_s,
        "setup_s": setup_s,
        "ingest_eps": len(events) / ingest_s,
        "queries": queries,
        "state_bytes": state_bytes,
    }


class Gate:
    """Checks verdict queries against the streamed graph, outside timed code.

    A query passes when it raised nothing, its certificate keeps within the
    edge budget (the forest budget sum(max(|V_i| - 1, 0)) for H, 2kn for F),
    a True verdict's certificate is a subgraph of the streamed graph with
    minimum degree at least k, and a False verdict, or any verdict of the
    dynamic certifier, equals the exact is_k_connected of the streamed graph.
    """

    def __init__(self, w: Workload, seed: int, events):
        self.w = w
        self.events = events
        if w.mode == "insertion":
            self.budget = 2 * w.k * w.n
        else:
            subsets = certificate.sample_subsets(_params(w, seed))
            self.budget = sum(max(len(s) - 1, 0) for s in subsets)
        self._support: dict[int, graph.EdgeSet] = {}
        self._exact: dict[int, bool] = {}

    def _graph(self, pos: int) -> graph.EdgeSet:
        if pos not in self._support:
            self._support[pos] = _replay(self.events[:pos], self.w.n).support()
        return self._support[pos]

    def _exact_at(self, pos: int) -> bool:
        if pos not in self._exact:
            self._exact[pos] = _exact_k_connected(self._graph(pos), self.w.k)
        return self._exact[pos]

    def _min_degree(self, edges) -> bool:
        """Whether every vertex has degree at least k, as in any k-connected graph."""
        deg = [0] * self.w.n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        return min(deg) >= self.w.k

    def passes(self, q: dict) -> bool:
        if "error" in q:
            return False
        verdict, edges = q["verdict"], q["edges"]
        if len(edges) > self.budget:
            return False
        if verdict and not (edges <= self._graph(q["pos"]).edges and self._min_degree(edges)):
            return False
        if self.w.mode == "dynamic" or not verdict:
            return verdict == self._exact_at(q["pos"])
        return True


def measure_pass(w: Workload, stream, seed: int, trace: bool = False, spans=None) -> dict:
    """One pass plus its gate; with `trace`, the pass runs traced.

    The gate runs after the pass and outside the tracer. Query certificates
    are dropped from the returned record once checked. The record's
    `setup_s` is the pass's own set-up, or, for a workload whose set-up is
    timed in batches, a batch timed after an untraced pass and its gate.
    """
    _, _, events = streamio.read_stream(stream)
    gate = Gate(w, seed, events)
    gc.collect()
    if trace:
        tracer = Tracer()
        with tracer.traced_pass():
            rec = run_pass(w, seed, stream)
        rec["per_layer"] = tracer.metrics()
        if spans:
            tracer.save(spans)
    else:
        rec = run_pass(w, seed, stream)
    rec["attempted"] = len(rec["queries"])
    rec["failed"] = sum(not gate.passes(q) for q in rec["queries"])
    rec["cert_edges"] = len(rec["queries"][-1].get("edges", ()))
    for q in rec["queries"]:
        q.pop("edges", None)
    if w.setup_batch > 1 and not trace:
        rec["setup_s"] = time_setup(w, seed)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="the Workload's fields as JSON")
    ap.add_argument("--stream", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--task", choices=("pass", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", help="where to write the traced spans (.npz)")
    args = ap.parse_args(argv)
    w = Workload(**json.loads(args.spec))
    if args.task == "setup":
        result = {"setup_s": time_setup(w, args.seed)}
    else:
        result = measure_pass(w, args.stream, args.seed, bool(args.trace), args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def spec_json(w: Workload) -> str:
    return json.dumps(dataclasses.asdict(w))


if __name__ == "__main__":
    sys.exit(main())
