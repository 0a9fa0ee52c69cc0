"""The package keeps every seam the benchmark's declared per-layer metrics need."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_metrics_have_seams():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    seams = tracing.Seams()
    try:
        seams.wrap(tracing.SEAMS, tracer.make_wrapper)
        metrics, missing = tracing.layer_metrics(tracer, 1, 0.0, 0.0)
    finally:
        seams.close()
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert missing == []
    assert sorted(metrics) == sorted(declared)
