"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import dataclasses
import json

import pytest

import run
import workloads
from tracer import LAYERS, PER_LAYER, TARGETS, _resolve

TINY = {
    "dyn-churn": dict(n=10, events=24),
    "dyn-query": dict(n=10, events=16, query_every=4),
    "offline-verdict": dict(n=20, k=2, density=0.6, events=120),
    "insertion": dict(n=20, k=2, density=0.4, events=60),
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(
        workloads.WORKLOADS[name], setup_samples=1, setup_batch=10, **TINY[name]
    )


def test_benchmark_json_lists_the_code_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_every_traced_callable_exists():
    for places in TARGETS.values():
        for place in places:
            assert _resolve(place) is not None, place


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name):
    result, summary = run.run_workload(tiny(name), seed=1, seconds=0, trace=False)
    assert result["correct"] and result["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (k, unit) for k, unit, _ in workloads.END_TO_END
    ]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert summary["failed_share"] == 0

    result, _ = run.run_workload(tiny(name), seed=1, seconds=0, trace=True)
    metrics = result["metrics"]
    assert [(k, m["unit"]) for k, m in metrics.items()] == [(k, unit) for k, unit, _ in PER_LAYER]
    layer_self = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
    assert 0 < layer_self <= metrics["trace.certify_s"]["value"]


def test_traced_pass_restores_the_package(tmp_path):
    w = tiny("dyn-query")
    stream = tmp_path / "s.stream"
    workloads.write_stream(w, 3, stream)
    before = {place: getattr(*_resolve(place)) for places in TARGETS.values() for place in places}
    rec = workloads.measure_pass(w, stream, 3, trace=True)
    assert {place: getattr(*_resolve(place)) for place in before} == before
    assert rec["per_layer"]["forest.extract_calls"] > 0
    assert rec["failed"] == 0


@pytest.mark.parametrize("name", list(TINY))
def test_flipped_verdict_counts_as_failed(name, monkeypatch, tmp_path):
    w = tiny(name)
    if w.mode == "insertion":
        owner, attr = workloads.oracle, "is_k_connected"
    else:
        owner, attr = workloads.certificate, "decide_k_connected"
    honest = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args: not honest(*args))
    stream = tmp_path / "s.stream"
    workloads.write_stream(w, 2, stream)
    rec = workloads.measure_pass(w, stream, 2)
    assert rec["failed"] > 0
    assert run.summarize([rec], [], [1.0], 1)["failed_share"] > 0
