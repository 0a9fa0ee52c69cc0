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


def test_tracer_counts_real_ops(tmp_path):
    # the counters the traced benchmark reads, taken from real results
    from gatedqdot import cli

    tracing = load_tracing()
    tracer = tracing.Tracer()
    seams = tracing.Seams()
    ops = [
        ("certify", {"gate": {"kind": "fourier_mode", "n": 2}, "truncation": 30}),
        ("control", {"truncation": 20, "dynamics": {"path": [[1, 1], [2, 1]]}}),
        ("certify", {"grid": {"nx": 64, "ny": 64},
                     "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": 1}}),
        ("nonlinear", {"dynamics": {"T": 0.05, "nonlinear_nx": 32, "nonlinear_ny": 32}}),
    ]
    try:
        seams.wrap(tracing.SEAMS, tracer.make_wrapper)
        for i, (command, doc) in enumerate(ops):
            config = tmp_path / f"config{i}.json"
            config.write_text(json.dumps(doc))
            assert cli.run(command, config, tmp_path / f"out{i}") == 0
    finally:
        seams.close()
    for name in (
        "coupling.assemble_coupling_matrix.stored",
        "chains.certify_nonresonant_chain.pairs",
        "dynamics.synthesize_chain_transfer.samples",
        "dynamics.synthesize_chain_transfer.distinct_controls",
        "dynamics.strang_steps",
    ):
        assert tracer.counts[name] > 0, name
    # the chain views and the cli names no command calls are gone
    assert seams.missing == [
        "gatedqdot.cli.check_connected",
        "gatedqdot.cli.coupling_path",
        "gatedqdot.cli.spanning_chain",
        "gatedqdot.cli.propagate_nonlinear",
        "gatedqdot.chains.check_connected",
        "gatedqdot.chains.spanning_chain",
    ]
