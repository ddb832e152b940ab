"""Run streamvc benchmark workloads and print their metrics.

    python3 bench/run.py --workload dyn-churn --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each run generates its stream from the seed, writes it under .bench_out/,
and measures each pass and each set-up in a fresh Python process
(bench/workloads.py) with one thread for numeric libraries, so that peak
resident memory is the run's own. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced run. Each run prints
its environment, one line per metric, and last a JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
--workload all runs every workload in turn, one block each.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 170


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def _child(w, seed: int, stream: Path, task: str, trace: bool = False, spans=None):
    """Run one pass or set-up in a fresh process; returns (its result, its peak resident bytes).

    os.wait4 reports the resource use of this child alone, where
    RUSAGE_CHILDREN would carry the peak of an earlier pass into a later one.
    """
    import workloads

    result_path = stream.with_suffix(".result.json")
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        workloads.__file__,
        "--spec", workloads.spec_json(w),
        "--stream", str(stream),
        "--seed", str(seed),
        "--task", task,
        "--trace", str(int(trace)),
        "--result", str(result_path),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{task} process for {w.name} exited with {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8")), usage.ru_maxrss * 1024


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it, and its label.

    Below 21 samples that percentile would not lie above the median, and the
    maximum is reported instead.
    """
    s = sorted(samples)
    if len(s) < 21:
        return s[-1], f"max of {len(s)}"
    return s[len(s) - 11], f"p{100 * (len(s) - 10) / len(s):.0f} of {len(s)}"


def summarize(plain: list[dict], traced: list[dict], setups: list[float], peak_rss: int) -> dict:
    """Metrics of a run from its pass records (see workloads.measure_pass)."""
    query_s = [q["s"] for rec in plain for q in rec["queries"]]
    tail_s, tail_label = tail(query_s)
    attempted = sum(rec["attempted"] for rec in plain + traced)
    failed = sum(rec["failed"] for rec in plain + traced)
    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "passes": len(plain),
        "traced_passes": len(traced),
        "query_tail": tail_label,
        "setup_samples": len(setups),
        "end_to_end": {
            "setup_s": statistics.median(setups) if setups else None,
            "ingest_eps": statistics.median(r["ingest_eps"] for r in plain),
            "query_p50_s": statistics.median(query_s),
            "query_tail_s": tail_s,
            "certify_s": statistics.median(r["certify_s"] for r in plain),
            "peak_rss_bytes": peak_rss,
            "sketch_bytes": statistics.median(r["state_bytes"] for r in plain),
            "cert_edges": statistics.median(r["cert_edges"] for r in plain),
        },
    }
    if traced:
        per_layer = {
            name: statistics.fmean(r["per_layer"][name] for r in traced)
            for name in traced[0]["per_layer"]
        }
        traced_s = statistics.median(r["certify_s"] for r in traced)
        per_layer["trace.certify_s"] = traced_s
        per_layer["trace.overhead_s"] = traced_s - out["end_to_end"]["certify_s"]
        out["per_layer"] = per_layer
    return out


def pass_seed(seed: int, i: int) -> int:
    """Seed of the stream and certifier of a run's i-th pass."""
    return seed * 1000 + i


def run_workload(w, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one run of `w`; returns (the result line, the run summary).

    Every pass reads its own stream and seeds its own certifier, both made
    from the run seed, so a run's medians average over several inputs as
    well as over machine noise. Passes, each in a fresh process, follow each
    other while at least half of the last one still fits in the seconds
    left of the run; a run makes at least one. With `trace`, each input gets
    an untraced and a traced pass, and the per-layer metrics come from the
    traced ones. Otherwise every untraced pass also gives a set-up sample
    (see workloads.measure_pass), and when a run makes fewer passes than
    `setup_samples`, set-ups in fresh processes of their own make up the rest.
    """
    import workloads
    from tracer import PER_LAYER

    OUT.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    plain: list[dict] = []
    traced: list[dict] = []
    peak_rss = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        i = len(plain)
        sub = pass_seed(seed, i)
        stream = OUT / f"{tag}-pass{i}.stream"
        workloads.write_stream(w, sub, stream)
        rec, rss = _child(w, sub, stream, "pass")
        plain.append(rec)
        peak_rss = max(peak_rss, rss)
        if trace:
            spans = OUT / f"{tag}-pass{i}-spans.npz"
            traced.append(_child(w, sub, stream, "pass", trace=True, spans=spans)[0])
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > seconds:
            break
    setups = [] if trace else [rec["setup_s"] for rec in plain]
    while not trace and len(setups) < w.setup_samples:
        setups.append(_child(w, pass_seed(seed, len(setups)), stream, "setup")[0]["setup_s"])
    summary = summarize(plain, traced, setups, peak_rss)
    values, table = (summary["per_layer"], PER_LAYER) if trace else (
        summary["end_to_end"], workloads.END_TO_END
    )
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    return result, summary


def _report(w, seed: int, raw: dict, result: dict) -> None:
    import workloads

    print(
        f"# {w.name}: {w.mode} n={w.n} k={w.k} C={workloads.SCALE_C} delta={workloads.DELTA} "
        f"stream=gen_random_stream({w.n}, {w.density}, {w.delete_fraction}, seed)[:{w.events}] "
        f"queries={'every %d events' % w.query_every if w.query_every else 'final only'} "
        f"stresses: {w.stresses}"
    )
    print(
        f"# seed={seed} passes={raw['passes']} traced_passes={raw['traced_passes']} "
        f"setup_samples={raw['setup_samples']} query_tail_s is the {raw['query_tail']} queries"
    )
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {raw['failed_share']:.6g} ({raw['failed']}/{raw['attempted']} queries)")


def main(argv=None) -> int:
    if not (ROOT / "src" / "streamvc" / "__init__.py").is_file():
        print(f"bench: no streamvc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("# environment " + json.dumps(_environment()))
    for name in names:
        w = workloads.WORKLOADS[name]
        result, raw = run_workload(w, args.seed, args.seconds, bool(args.trace))
        _report(w, args.seed, raw, result)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
