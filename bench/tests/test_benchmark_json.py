"""BENCHMARK.json names exactly the metrics run.py prints."""

import json

import layertrace
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layertrace.PER_LAYER


def test_workloads_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
