"""Smoke test of the benchmark itself: every workload at a tiny size, both runs.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS


@pytest.fixture(autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_passes_its_checks(name):
    info, result = run.measure(WORKLOADS[name], seed=3, seconds=0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    again, _ = run.measure(WORKLOADS[name], seed=3, seconds=0, tiny=True)
    assert again["logits_sha256"] == info["logits_sha256"]
    assert again["traffic_logits_sha256"] == info["traffic_logits_sha256"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_passes_its_checks(name):
    _, result = run.trace_run(WORKLOADS[name], seed=3, seconds=0, tiny=True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["calibrate.sim_forward.calls"] > 0 and metrics["compensate.fit_channel_affine.calls"] > 0
    assert (metrics["intengine.im2col.calls"] > 0) == (name == "conv")


def test_tracing_restores_the_package():
    from quantcomp import intengine

    before = intengine.run_int_model
    with run.spans.traced(run.spans.Tracer()):
        assert intengine.run_int_model is not before
    assert intengine.run_int_model is before
