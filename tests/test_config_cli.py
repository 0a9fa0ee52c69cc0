import errno
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedqdot import cli
from gatedqdot.cli import run
from gatedqdot.config import (
    _GATE_KEYS,
    _ROWS,
    ConfigValidationError,
    GateConfig,
    RunConfig,
    validate_config,
)
from gatedqdot.poisson import GateSegment, GridField, SpectralField


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestValidateConfig:
    def test_minimal_defaults(self):
        cfg = validate_config({})
        assert cfg.L == 1.0
        assert cfg.delta == 0.3
        assert cfg.truncation == 30
        assert cfg.grid.nx == 256
        assert cfg.dynamics.dt == 1e-3
        assert cfg.gate.kind == "fourier_mode" and cfg.gate.n == 2

    def test_echo_round_trip(self):
        cfg = validate_config({"L": 1.2, "gate": {"kind": "sine_series", "coefficients": [1, 0.5]}})
        again = validate_config(cfg.to_dict())
        assert again == cfg

    def test_negative_delta_message(self):
        with pytest.raises(ConfigValidationError, match="delta must be positive"):
            validate_config({"delta": -1})

    def test_gate_mode_zero(self):
        with pytest.raises(ConfigValidationError, match="gate.n must be >= 1"):
            validate_config({"gate": {"kind": "fourier_mode", "n": 0}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigValidationError, match="unknown key"):
            validate_config({"bogus": 1})
        with pytest.raises(ConfigValidationError, match="unknown key"):
            validate_config({"grid": {"nx": 64, "nz": 4}})

    @pytest.mark.parametrize("doc", [{"quadrature": {"panels": 8}}, {"quadrature": {"nodes": 16}}])
    def test_quadrature_keys_rejected(self, doc):
        with pytest.raises(ConfigValidationError, match="unknown key"):
            validate_config(doc)
        assert "quadrature" not in validate_config({}).to_dict()

    def test_errors_aggregated(self):
        try:
            validate_config({"delta": -1, "truncation": 0, "junk": 3})
        except ConfigValidationError as exc:
            assert len(exc.errors) == 3
        else:
            pytest.fail("expected ConfigValidationError")

    def test_rho_below_delta(self):
        with pytest.raises(ConfigValidationError, match="rho"):
            validate_config({"rho": 0.5, "delta": 0.3})
        cfg = validate_config({"rho": 0.2})
        assert cfg.effective_rho() == 0.2
        assert validate_config({}).effective_rho() == 0.15

    def test_control_values_within_delta(self):
        with pytest.raises(ConfigValidationError, match="outside"):
            validate_config({"control": {"samples": [[1.0, 0.5]]}})
        cfg = validate_config({"control": {"samples": [[1.0, 0.25]]}})
        assert cfg.control == ((1.0, 0.25),)

    def test_fraction_and_alpha_lists(self):
        with pytest.raises(ConfigValidationError, match="fractions"):
            validate_config({"gate_sweep": {"fractions": [0.9, 0.5]}})
        with pytest.raises(ConfigValidationError, match="alphas"):
            validate_config({"dynamics": {"alphas": [0.1, 0.1]}})

    def test_segment_gate(self):
        cfg = validate_config({"gate": {"kind": "segment", "a": 1.0, "b": 2.0, "trace_mode": 3}})
        assert cfg.gate.kind == "segment"
        with pytest.raises(ConfigValidationError, match="segment"):
            validate_config({"gate": {"kind": "segment", "a": 2.0, "b": 1.0}})

    def test_each_default_has_one_source(self):
        assert validate_config({}) == RunConfig()
        assert validate_config({"gate": {"kind": "segment"}}).gate == GateConfig(kind="segment")


NAN, INF, HUGE = math.nan, math.inf, 10**400
COEFFICIENTS = "gate.coefficients must be a nonempty number list"
ALPHAS = "dynamics.alphas must be a strictly increasing positive list"
SAMPLES = "control.samples must be a nonempty list of [duration, value] pairs"

# Invalid documents, each pinned to its exact `errors` list: at least one per
# rule, the fallback cascades (a type error falls back to the default, a range
# error keeps the value for the cross-field checks) and the order of sections.
# Every list is the one the hand-written validator reported before the table,
# except the three marked fixes.
CORPUS = [
    ([], ["top level: expected a JSON object"]),
    ("x", ["top level: expected a JSON object"]),
    ({"bogus": 1, "L": 1.0}, ["top level: unknown key 'bogus'"]),
    ({"L": "x"}, ["top level.L: expected a finite number"]),
    ({"L": 0}, ["top level.L must be positive"]),
    ({"L": True}, ["top level.L: expected a finite number"]),
    ({"L": INF}, ["top level.L: expected a finite number"]),
    ({"delta": -1}, ["top level.delta must be positive"]),
    ({"delta": None}, ["top level.delta: expected a finite number"]),
    ({"truncation": 1.5}, ["top level.truncation: expected a finite integer"]),
    ({"truncation": 0}, ["top level.truncation must be >= 1"]),
    ({"rho": -0.1}, ["top level.rho must be nonnegative"]),
    ({"rho": "x"}, ["top level.rho: expected a finite number"]),
    ({"rho": 0.5, "delta": 0.3}, ["rho must be smaller than delta"]),
    ({"rho": 0.3}, ["rho must be smaller than delta"]),
    (
        {"delta": "x", "rho": 0.5},
        ["top level.delta: expected a finite number", "rho must be smaller than delta"],
    ),
    (
        {"delta": -1, "control": {"samples": [[1.0, 0.1]]}},
        ["top level.delta must be positive", "control value 0.1 outside [0, delta]"],
    ),
    (
        {"delta": -1, "truncation": 0, "junk": 3},
        [
            "top level: unknown key 'junk'",
            "top level.delta must be positive",
            "top level.truncation must be >= 1",
        ],
    ),
    ({"gate": 3}, ["gate: expected an object"]),
    ({"gate": None}, ["gate: expected an object"]),
    ({"gate": {"kind": "bogus", "zzz": 1}}, ["gate.kind: unknown kind 'bogus'"]),
    ({"gate": {"kind": []}}, ["gate.kind: unknown kind []"]),
    ({"gate": {"kind": None}}, ["gate.kind: unknown kind None"]),
    ({"gate": {"n": 0}}, ["gate.n must be >= 1"]),
    ({"gate": {"n": 2.5}}, ["gate.n: expected a finite integer"]),
    ({"gate": {"n": "2"}}, ["gate.n: expected a finite integer"]),
    (
        {"gate": {"kind": "fourier_mode", "coefficients": [1.0], "n": 0}},
        ["gate: unknown key 'coefficients'", "gate.n must be >= 1"],
    ),
    ({"gate": {"kind": "sine_series"}}, ["gate.coefficients must be a nonempty number list"]),
    (
        {"gate": {"kind": "sine_series", "coefficients": []}},
        ["gate.coefficients must be a nonempty number list"],
    ),
    (
        {"gate": {"kind": "sine_series", "coefficients": [True]}},
        ["gate.coefficients must be a nonempty number list"],
    ),
    (
        {"gate": {"kind": "sine_series", "coefficients": "x", "n": 1}},
        ["gate: unknown key 'n'", "gate.coefficients must be a nonempty number list"],
    ),
    (
        {"gate": {"kind": "segment", "a": 2.0, "b": 1.0}},
        ["gate segment must satisfy 0 < a < b < pi"],
    ),
    (
        {"gate": {"kind": "segment", "a": "x", "b": 0.4}},
        ["gate.a: expected a finite number", "gate segment must satisfy 0 < a < b < pi"],
    ),
    ({"gate": {"kind": "segment", "a": "x"}}, ["gate.a: expected a finite number"]),
    ({"gate": {"kind": "segment", "a": -1}}, ["gate segment must satisfy 0 < a < b < pi"]),
    ({"gate": {"kind": "segment", "b": 4}}, ["gate segment must satisfy 0 < a < b < pi"]),
    (
        {"gate": {"kind": "segment", "trace_mode": 0, "n": 2}},
        ["gate: unknown key 'n'", "gate.trace_mode must be >= 1"],
    ),
    (
        {"gate": {"kind": "segment", "trace_mode": 1.5}},
        ["gate.trace_mode: expected a finite integer"],
    ),
    (
        {"gate": {"kind": "segment", "a": 1.0, "b": 2.0}, "grid": {"nx": 8}},
        ["grid.nx must be >= 16"],
    ),
    (
        {"gate": {"kind": "segment", "a": 2.0, "b": 1.0}, "grid": {"nx": 8}},
        ["gate segment must satisfy 0 < a < b < pi", "grid.nx must be >= 16"],
    ),
    ({"grid": []}, ["grid: expected an object"]),
    (
        {"grid": {"nx": 8, "ny": "x", "nz": 1}},
        ["grid: unknown key 'nz'", "grid.nx must be >= 16", "grid.ny: expected a finite integer"],
    ),
    ({"tolerances": "x"}, ["tolerances: expected an object"]),
    (
        {"tolerances": {"simplicity": 0, "resonance": -1, "zero_tol": -1, "q": 1}},
        [
            "tolerances: unknown key 'q'",
            "tolerances.simplicity must be positive",
            "tolerances.resonance must be positive",
            "tolerances.zero_tol must be nonnegative",
        ],
    ),
    ({"tolerances": {"simplicity": None}}, ["tolerances.simplicity: expected a finite number"]),
    (
        {"tolerances": {"resonance": "x", "zero_tol": True}},
        [
            "tolerances.resonance: expected a finite number",
            "tolerances.zero_tol: expected a finite number",
        ],
    ),
    ({"dynamics": 1}, ["dynamics: expected an object"]),
    (
        {"dynamics": {"alphas": [0.1, 0.1]}},
        ["dynamics.alphas must be a strictly increasing positive list"],
    ),
    ({"dynamics": {"alphas": []}}, ["dynamics.alphas must be a strictly increasing positive list"]),
    (
        {"dynamics": {"alphas": [-1]}},
        ["dynamics.alphas must be a strictly increasing positive list"],
    ),
    (
        {"dynamics": {"alphas": "x"}},
        ["dynamics.alphas must be a strictly increasing positive list"],
    ),
    (
        {"dynamics": {"alphas": None}},
        ["dynamics.alphas must be a strictly increasing positive list"],
    ),
    (
        {"dynamics": {"alphas": [NAN]}},
        ["dynamics.alphas must be a strictly increasing positive list"],
    ),
    ({"dynamics": {"amplitude_fraction": 0.7}}, ["dynamics.amplitude_fraction must be <= 0.5"]),
    ({"dynamics": {"amplitude_fraction": -1}}, ["dynamics.amplitude_fraction must be positive"]),
    (
        {"dynamics": {"amplitude_fraction": "x"}},
        ["dynamics.amplitude_fraction: expected a finite number"],
    ),
    (
        {"dynamics": {"dt": -1, "T": 0, "amplitude_fraction": 0.7, "alphas": [0.2, 0.1], "zz": 0}},
        [
            "dynamics: unknown key 'zz'",
            "dynamics.alphas must be a strictly increasing positive list",
            "dynamics.amplitude_fraction must be <= 0.5",
            "dynamics.dt must be positive",
            "dynamics.T must be positive",
        ],
    ),
    ({"dynamics": {"path": "x"}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    ({"dynamics": {"path": [[1]]}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    ({"dynamics": {"path": [[0, 1]]}}, ["dynamics.path: mode indices must be integers >= 1"]),
    (
        {"dynamics": {"path": [[1, 1], [1.5, 1], [0, 1]]}},
        ["dynamics.path: mode indices must be integers >= 1"],
    ),
    ({"dynamics": {"path": [[True, 1]]}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    ({"dynamics": {"path": [[1, 1], "x"]}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    ({"dynamics": {"samples_per_period": 1}}, ["dynamics.samples_per_period must be >= 2"]),
    ({"dynamics": {"duration_cap": 0}}, ["dynamics.duration_cap must be positive"]),
    (
        {"dynamics": {"nonlinear_nx": 2, "nonlinear_ny": 3.0}},
        ["dynamics.nonlinear_nx must be >= 4", "dynamics.nonlinear_ny must be >= 4"],
    ),
    (
        {"dynamics": {"log_populations": -1, "T": "x", "dt": None}},
        [
            "dynamics.dt: expected a finite number",
            "dynamics.T: expected a finite number",
            "dynamics.log_populations must be >= 0",
        ],
    ),
    ({"shape": 0}, ["shape: expected an object"]),
    (
        {"shape": {"mode": [0, 1], "wall": "middle", "x": 1}},
        [
            "shape: unknown key 'x'",
            "shape.mode: mode indices must be integers >= 1",
            "shape.wall must be one of left/right/bottom/top",
        ],
    ),
    ({"shape": {"mode": None}}, ["shape.mode: expected a list of [int, int] pairs"]),
    ({"shape": {"mode": [1]}}, ["shape.mode: expected a list of [int, int] pairs"]),
    ({"shape": {"mode": [1.5, 2]}}, ["shape.mode: mode indices must be integers >= 1"]),
    ({"shape": {"wall": []}}, ["shape.wall must be one of left/right/bottom/top"]),
    ({"gate_sweep": []}, ["gate_sweep: expected an object"]),
    (
        {"gate_sweep": {"fractions": [0.5, 1.0]}},
        ["gate_sweep.fractions must be strictly increasing within (0, 1)"],
    ),
    (
        {"gate_sweep": {"fractions": [0.9, 0.5]}},
        ["gate_sweep.fractions must be strictly increasing within (0, 1)"],
    ),
    (
        {"gate_sweep": {"fractions": [], "y": 1}},
        [
            "gate_sweep: unknown key 'y'",
            "gate_sweep.fractions must be strictly increasing within (0, 1)",
        ],
    ),
    (
        {"gate_sweep": {"fractions": [NAN]}},
        ["gate_sweep.fractions must be strictly increasing within (0, 1)"],
    ),
    ({"control": 5}, ["control: expected an object with samples"]),
    ({"control": {}}, ["control.samples must be a nonempty list of [duration, value] pairs"]),
    (
        {"control": {"samples": None}},
        ["control.samples must be a nonempty list of [duration, value] pairs"],
    ),
    (
        {"control": {"samples": []}},
        ["control.samples must be a nonempty list of [duration, value] pairs"],
    ),
    (
        {"control": {"samples": [[0, 0.5], [-1, 0.1]], "extra": 1}},
        [
            "control: unknown key 'extra'",
            "control sample durations must be positive",
            "control value 0.5 outside [0, delta]",
            "control sample durations must be positive",
        ],
    ),
    ({"control": {"samples": [[1, 1]]}}, ["control value 1 outside [0, delta]"]),
    (
        {"control": {"samples": [[1, "x"]]}},
        ["control.samples must be a nonempty list of [duration, value] pairs"],
    ),
    (
        {"control": {"samples": [1, 2]}},
        ["control.samples must be a nonempty list of [duration, value] pairs"],
    ),
    (
        {"control": {"samples": [[1, 2, 3]]}},
        ["control.samples must be a nonempty list of [duration, value] pairs"],
    ),
    (
        {"rho": 0.4, "control": {"samples": [[1, 0.35]]}, "gate_sweep": {"fractions": [2]}},
        [
            "gate_sweep.fractions must be strictly increasing within (0, 1)",
            "control value 0.35 outside [0, delta]",
            "rho must be smaller than delta",
        ],
    ),
    (
        {
            "L": -1,
            "rho": 2,
            "gate": {"kind": "segment", "a": 3.5},
            "grid": {"ny": 4},
            "tolerances": {"simplicity": -1},
            "dynamics": {"path": [[0, 0]], "amplitude_fraction": 0.6},
            "shape": {"wall": "up"},
            "gate_sweep": {"fractions": [0.5, 0.5]},
            "control": {"samples": [[-1, 1]]},
        },
        [
            "top level.L must be positive",
            "gate segment must satisfy 0 < a < b < pi",
            "grid.ny must be >= 16",
            "tolerances.simplicity must be positive",
            "dynamics.amplitude_fraction must be <= 0.5",
            "dynamics.path: mode indices must be integers >= 1",
            "shape.wall must be one of left/right/bottom/top",
            "gate_sweep.fractions must be strictly increasing within (0, 1)",
            "control sample durations must be positive",
            "control value 1 outside [0, delta]",
            "rho must be smaller than delta",
        ],
    ),
    # fix 1: integers beyond the float range used to raise OverflowError
    ({"truncation": HUGE}, ["top level.truncation: expected a finite integer"]),
    ({"L": -HUGE}, ["top level.L: expected a finite number"]),
    ({"gate": {"kind": "sine_series", "coefficients": [HUGE]}}, [COEFFICIENTS]),
    ({"dynamics": {"path": [[HUGE, 1]]}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    ({"dynamics": {"alphas": [0.1, HUGE]}}, [ALPHAS]),
    ({"control": {"samples": [[HUGE, 0.1]]}}, [SAMPLES]),
    ({"control": {"samples": [[1, HUGE]]}}, [SAMPLES]),
    ({"shape": {"mode": [1, HUGE]}}, ["shape.mode: expected a list of [int, int] pairs"]),
    # fix 2: an empty path used to pass and crash `evolve` and `nonlinear`
    ({"dynamics": {"path": []}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    # fix 3: non-finite list entries used to pass ...
    ({"gate": {"kind": "sine_series", "coefficients": [NAN]}}, [COEFFICIENTS]),
    ({"dynamics": {"alphas": [0.1, INF]}}, [ALPHAS]),
    ({"control": {"samples": [[INF, 0.1]]}}, [SAMPLES]),
    ({"control": {"samples": [[NAN, 0.1]]}}, [SAMPLES]),
    # ... or were reported by a later check; now the list's own message
    ({"control": {"samples": [[-INF, 0.1]]}}, [SAMPLES]),  # was: durations must be positive
    ({"control": {"samples": [[1, NAN]]}}, [SAMPLES]),  # was: control value nan outside
    # was: mode indices must be integers >= 1
    ({"dynamics": {"path": [[NAN, 1]]}}, ["dynamics.path: expected a list of [int, int] pairs"]),
    ({"shape": {"mode": [1, INF]}}, ["shape.mode: expected a list of [int, int] pairs"]),
]


@pytest.mark.parametrize("doc, errors", CORPUS)
def test_invalid_document_corpus(doc, errors):
    with pytest.raises(ConfigValidationError) as exc:
        validate_config(doc)
    assert exc.value.errors == errors


PLAIN = {
    "number": st.floats(0.01, 0.5),
    "integer": st.integers(16, 40),
    "optional": st.none() | st.floats(0.0, 0.2),
    "increasing": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4, unique=True).map(sorted),
    "pair": st.lists(st.integers(1, 4), min_size=2, max_size=2),
}
PLAIN["pairs"] = st.lists(PLAIN["pair"], min_size=1, max_size=3)
ODD = st.sampled_from(
    [None, True, "x", {}, [], 0, -1, 1.5, NAN, INF, -INF, HUGE, -HUGE, [NAN], [HUGE], [[1, INF]]]
)


def plain(kind, rule):
    if kind == "choice":
        return st.sampled_from(rule)
    if kind == "list":
        entry = st.floats(-2.0, 2.0)
        if rule[0] == 2:  # control samples: a duration and a value within delta
            entry = st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 0.3)).map(list)
        return st.lists(entry, min_size=1, max_size=3)
    return PLAIN[kind]


@st.composite
def documents(draw):
    """A document drawn row by row from the config table, then one value spoiled."""
    doc = {"gate": {"kind": draw(st.sampled_from(list(_GATE_KEYS)))}}
    for section, key, kind, *rule in _ROWS:
        if section == "gate" and key not in _GATE_KEYS[doc["gate"]["kind"]]:
            continue
        if draw(st.booleans()):
            target = doc if section == "top level" else doc.setdefault(section, {})
            target[key] = draw(plain(kind, rule))
    if draw(st.booleans()):
        section, key, *_ = draw(st.sampled_from(_ROWS))
        target = doc if section == "top level" else doc.setdefault(section, {})
        target[key] = draw(ODD | st.lists(ODD, max_size=2) | st.integers())
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=documents())
@example(doc={"truncation": HUGE})
@example(doc={"control": {"samples": [[1, HUGE]]}})
def test_validate_config_accepts_or_reports(doc):
    try:
        cfg = validate_config(doc)
    except ConfigValidationError:
        return
    assert validate_config(json.loads(json.dumps(cfg.to_dict()))) == cfg


BASE = {"L": 1.0, "delta": 0.3, "truncation": 20, "gate": {"kind": "fourier_mode", "n": 2}}


class TestCli:
    def test_spectrum_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert run("spectrum", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["simplicity"]["simple"] is True
        lines = (out / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0] == "j1,j2,lambda"
        assert len(lines) == 21
        # 17-significant-digit floats round-trip exactly
        lam = float(lines[1].split(",")[2])
        assert lam == 1 + math.pi**2

    def test_malformed_config_no_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"delta": -2, "oops": True})
        out = tmp_path / "out"
        assert run("certify", cfg, out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "delta must be positive" in err and "unknown key" in err

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("spectrum", path, tmp_path / "o") == 2

    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("frobnicate", cfg, tmp_path / "o") == 2

    def test_determinism_bit_identical_bodies(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("certify", cfg, out1) == 0
        assert run("certify", cfg, out2) == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        h1 = r1.pop("provenance")["body_sha256"]
        h2 = r2.pop("provenance")["body_sha256"]
        assert r1 == r2
        assert h1 == h2
        assert (out1 / "chain.json").read_text() == (out2 / "chain.json").read_text()

    def test_chain_command_components(self, tmp_path):
        doc = dict(BASE)
        doc["gate"] = {"kind": "fourier_mode", "n": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("chain", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["connected"] is False
        assert report["results"]["component_count"] == 2

    def test_certify_verdict_shape(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert run("certify", cfg, out) == 0
        verdict = json.loads((out / "report.json").read_text())["results"]
        for key in ("simplicity", "chain", "resonance_violations", "certified", "rho"):
            assert key in verdict
        assert verdict["rho"] == 0.15
        assert verdict["chain"]["connected"] is True
        assert verdict["simplicity"]["simple"] is True
        chain_doc = json.loads((out / "chain.json").read_text())
        assert chain_doc["truncation"] == 20

    def test_numerical_failure_exit_code(self, tmp_path):
        doc = dict(BASE)
        doc["dynamics"] = {"duration_cap": 1e-3}
        cfg = write_config(tmp_path, doc)
        assert run("control", cfg, tmp_path / "out") == 3

    def test_evolve_requires_control(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert run("evolve", cfg, tmp_path / "out") == 2

    def test_evolve_with_control(self, tmp_path):
        doc = dict(BASE)
        doc["control"] = {"samples": [[0.5, 0.3], [0.5, 0.1]]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("evolve", cfg, out) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + initial + two boundaries
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["final_norm"] == pytest.approx(1.0, abs=1e-10)

    def test_gate_sweep_command(self, tmp_path):
        doc = dict(BASE)
        doc["grid"] = {"nx": 64, "ny": 64}
        doc["gate_sweep"] = {"fractions": [0.5, 0.9]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("gate-sweep", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["strictly_decreasing_l2"] is True

    def test_gate_sweep_needs_fourier(self, tmp_path):
        doc = dict(BASE)
        doc["gate"] = {"kind": "sine_series", "coefficients": [1.0]}
        cfg = write_config(tmp_path, doc)
        assert run("gate-sweep", cfg, tmp_path / "out") == 2

    def test_shape_derivative_command(self, tmp_path):
        doc = dict(BASE)
        doc["shape"] = {"mode": [2, 1], "wall": "left"}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("shape-derivative", cfg, out) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["value"] == pytest.approx(-8 / math.pi, abs=1e-10)
        assert res["abs_error_vs_exact"] <= 1e-10

    def test_shape_derivative_uses_simplicity_tolerance(self, tmp_path, capsys):
        # lambda(1, 1) and lambda(2, 1) differ by 3, inside the tolerance 5
        doc = {"tolerances": {"simplicity": 5.0}, "shape": {"mode": [1, 1]}}
        cfg = write_config(tmp_path, doc)
        assert run("spectrum", cfg, tmp_path / "spec") == 0
        report = json.loads((tmp_path / "spec" / "report.json").read_text())
        assert report["results"]["simplicity"]["simple"] is False
        assert run("shape-derivative", cfg, tmp_path / "out") == 3
        assert "collides with (2, 1)" in capsys.readouterr().err

    def test_potential_segment_gate(self, tmp_path):
        doc = dict(BASE)
        doc["gate"] = {"kind": "segment", "a": 1.0, "b": 2.0, "trace_mode": 2}
        doc["grid"] = {"nx": 64, "ny": 64}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("potential", cfg, out) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["representation"] == "grid"
        assert res["residual"] <= 1e-8

    def test_resonance_command(self, tmp_path):
        doc = dict(BASE)
        doc["gate"] = {"kind": "fourier_mode", "n": 1}
        doc["rho"] = 0.2
        doc["truncation"] = 25
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert run("resonance", cfg, out) == 0
        res = json.loads((out / "report.json").read_text())["results"]
        assert res["rho"] == 0.2
        assert res["violation_count"] == len(res["violations"])

    def test_coupling_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert run("coupling", cfg, out) == 0
        doc = json.loads((out / "coupling.json").read_text())
        res = json.loads((out / "report.json").read_text())["results"]
        assert len(doc["triplets"]) == res["stored"]
        lines = (out / "coupling.csv").read_text().strip().splitlines()
        assert len(lines) == res["stored"] + 1


class TestSegmentGates:
    def test_default_segment_certifies(self, tmp_path):
        cfg = write_config(tmp_path, {"gate": {"kind": "segment"}})
        assert run("certify", cfg, tmp_path / "out") == 0

    @pytest.mark.parametrize("trace_mode", [1, 2, 3])
    def test_trace_modes_certify(self, tmp_path, trace_mode):
        doc = {
            "L": 1.03,
            "truncation": 60,
            "grid": {"nx": 64, "ny": 64},
            "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": trace_mode},
        }
        out = tmp_path / "out"
        assert run("certify", write_config(tmp_path, doc), out) == 0
        verdict = json.loads((out / "report.json").read_text())["results"]
        assert verdict["chain"]["connected"] is True

    @pytest.mark.parametrize("trace_mode", [1, 2, 3])
    def test_seeded_segments_certify_down_to_two_cells(self, tmp_path, trace_mode):
        # on 64^2 a width of two cells, 2*pi/64, leaves the snapped ends at
        # least one node apart; the first draw is that narrow, the rest
        # run from there to 3
        rng = np.random.default_rng(4000 + trace_mode)
        for k in range(10):
            width = 2 * math.pi / 64 if k == 0 else rng.uniform(2 * math.pi / 64, 3.0)
            a = rng.uniform(0.0, math.pi - width)
            doc = {
                "L": rng.uniform(0.9, 1.1),
                "truncation": 60,
                "grid": {"nx": 64, "ny": 64},
                "gate": {"kind": "segment", "a": a, "b": a + width, "trace_mode": trace_mode},
            }
            cfg = write_config(tmp_path, doc, f"config{k}.json")
            assert run("certify", cfg, tmp_path / f"out{k}") == 0, doc

    def test_segment_on_one_node_is_a_validation_error(self, tmp_path, capsys):
        # both ends round to node 20 of the 64-cell x1 axis
        doc = {
            "grid": {"nx": 64, "ny": 64},
            "gate": {"kind": "segment", "a": 1.0, "b": 1.005, "trace_mode": 1},
        }
        assert run("certify", write_config(tmp_path, doc), tmp_path / "out") == 2
        assert "collapses after snapping" in capsys.readouterr().err


# no doc has a control section: `evolve` reports the gate, the earlier stage
@pytest.mark.parametrize("command", ["coupling", "potential", "certify", "evolve"])
@pytest.mark.parametrize(
    "doc",
    [
        {"gate": {"kind": "fourier_mode", "n": 800}},
        {"L": 800.0, "truncation": 1, "gate": {"kind": "sine_series", "coefficients": [1.0]}},
        {
            "L": 400.0,
            "truncation": 1,
            "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": 2},
        },
    ],
)
def test_overflow_is_numerical_failure(tmp_path, capsys, command, doc):
    assert run(command, write_config(tmp_path, doc), tmp_path / "out") == 3
    term = {
        "fourier_mode": "m=800 at L=1",
        "sine_series": "m=1 at L=800",
        "segment": "m=2 at L=400",
    }
    expected = f"numerical failure: cosh(m*L) overflows for gate term {term[doc['gate']['kind']]}"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evolve", "nonlinear", "control"])
def test_empty_path_is_a_config_error(tmp_path, capsys, command):
    doc = {**BASE, "dynamics": {"path": []}, "control": {"samples": [[0.5, 0.1]]}}
    assert run(command, write_config(tmp_path, doc), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == "config error: dynamics.path: expected a list of [int, int] pairs\n"


# a one-mode `control` path has no pulse, but its mode must still be in the window
@pytest.mark.parametrize(
    "command, path", [("evolve", [[9, 9]]), ("control", [[9, 9]]), ("control", [[9, 9], [1, 1]])]
)
def test_path_outside_the_window_is_a_validation_error(tmp_path, capsys, command, path):
    doc = {**BASE, "truncation": 5, "dynamics": {"path": path},
           "control": {"samples": [[0.5, 0.1]]}}
    assert run(command, write_config(tmp_path, doc), tmp_path / "out") == 2
    assert capsys.readouterr().err == "validation error: mode (9, 9) not in spectrum\n"


# the 8x8 staggered grid resolves 1 <= j1, j2 <= 7: mode 9 would alias mode 7,
# and mode 8 vanishes in x1 and is not unit norm in x2
@pytest.mark.parametrize("mode", [(9, 1), (1, 9), (8, 1), (1, 8)])
def test_nonlinear_mode_off_the_grid_is_a_validation_error(tmp_path, capsys, mode):
    doc = {**BASE, "dynamics": {"path": [list(mode)], "T": 0.01, "nonlinear_nx": 8,
                                "nonlinear_ny": 8}}
    assert run("nonlinear", write_config(tmp_path, doc), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"validation error: mode {mode} not resolved on the 8x8 staggered grid\n"


# at L = 1 the first six modes reach (5, 1), which the 4x4 grid would alias to (3, 1)
def test_nonlinear_population_mode_off_the_grid_is_a_validation_error(tmp_path, capsys):
    doc = {**BASE, "dynamics": {"path": [[3, 1]], "T": 0.01, "log_populations": 6,
                                "nonlinear_nx": 4, "nonlinear_ny": 4}}
    assert run("nonlinear", write_config(tmp_path, doc), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == "validation error: mode (4, 1) not resolved on the 4x4 staggered grid\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"truncation": 1%s}' % ("0" * 400), "top level.truncation: expected a finite integer"),
        ('{"gate": {"kind": "sine_series", "coefficients": [NaN]}}', COEFFICIENTS),
        ('{"dynamics": {"alphas": [0.1, Infinity]}}', ALPHAS),
        ('{"control": {"samples": [[Infinity, 0.1]]}}', SAMPLES),
        # past the interpreter's limit on integer digits json cannot read the number
        ('{"L": 1%s}' % ("0" * 5000), "config is not valid JSON: "),
    ],
    ids=["huge-int", "nan-coefficient", "inf-alpha", "inf-duration", "over-long-int"],
)
def test_out_of_range_numbers_are_config_errors(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert run("certify", path, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    assert run("spectrum", path, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: config is not valid JSON: ")


def test_unreadable_config_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("spectrum", tmp_path, out) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read config file {tmp_path}: Is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("where", ["under a file", "a file"])
def test_unwritable_out_is_an_output_error(tmp_path, capsys, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "x" if where == "under a file" else blocker
    assert run("spectrum", write_config(tmp_path, BASE), out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error: cannot write {out}: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_os_error_while_computing_is_not_an_output_error(tmp_path, capsys, monkeypatch):
    def unreadable(*args):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(cli, "enumerate_modes", unreadable)
    with pytest.raises(OSError) as info:
        run("spectrum", write_config(tmp_path, BASE), tmp_path / "out")
    assert info.value.errno == errno.EIO
    assert "output error:" not in capsys.readouterr().err


def test_non_finite_result_is_numerical_failure(tmp_path, capsys):
    # the sweep's errors overflow to inf for this gate; report.json cannot hold them
    doc = {"gate": {"kind": "fourier_mode", "n": 700}, "grid": {"nx": 64, "ny": 64}}
    out = tmp_path / "out"
    assert run("gate-sweep", write_config(tmp_path, doc), out) == 3
    assert "numerical failure: gate-sweep produced a non-finite result" in capsys.readouterr().err
    # the artifacts are written before the check
    assert [p.name for p in out.iterdir()] == ["gate_sweep.csv"]


@pytest.mark.parametrize(
    "value, kind",
    [(np.int64(3), int), (np.bool_(True), bool), (np.float32(0.1), float), (np.arange(3), list)],
)
def test_json_hook_gives_python_values(value, kind):
    out = cli._json_default(value)
    assert type(out) is kind and out == value.tolist()
    assert json.loads(json.dumps({"v": value}, default=cli._json_default)) == {"v": out}


def test_json_hook_rejects_other_objects():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        json.dumps({"v": object()}, default=cli._json_default)


def test_csv_rows_follow_the_per_value_rule(tmp_path):
    # floats (np.float64 too) with 17 significant digits, everything else as
    # str; column 1 changes kind from row to row, and the 5000 plain rows
    # span more than one formatting block
    mixed = [
        (0, True, -0.0, math.inf),
        (np.int64(7), 1.5, -math.inf, math.nan),
        (-3, False, 5e-324, 1e16),
        (np.float64(0.1), np.int64(-2), np.float64(-0.0), np.float64(math.nan)),
        (),
        ("x", None, np.float64(-math.inf), -1e-310),
    ]
    plain = [(k, 0.1 * k, k % 3 == 0, float(k) ** 3.5) for k in range(5000)]
    rows = mixed[:3] + plain + mixed[3:]
    path = tmp_path / "rows.csv"
    cli._write_rows_csv(path, "a,b,c,d", iter(rows))
    want = ["a,b,c,d"] + [
        ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) for row in rows
    ]
    assert path.read_text() == "\n".join(want) + "\n"


def gate_sections():
    fourier = st.builds(
        lambda n: {"kind": "fourier_mode", "n": n}, st.integers(1, 1000)
    )
    # the top sine mode reaches 1000; zero coefficients drop out of the field
    sine = st.builds(
        lambda top, c, lead: {
            "kind": "sine_series",
            "coefficients": ([lead] + [0.0] * (top - 2) if top > 1 else []) + [c],
        },
        st.integers(1, 1000),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    segment = st.builds(
        lambda ends, mode: {"kind": "segment", "a": min(ends), "b": max(ends), "trace_mode": mode},
        st.lists(st.floats(0.01, math.pi - 0.01), min_size=2, max_size=2, unique=True),
        st.integers(1, 3),
    )
    return st.one_of(fourier, sine, segment)


@settings(max_examples=100, deadline=None)
@given(
    gate=gate_sections(),
    L=st.floats(0.3, 3.0),
    nx=st.integers(16, 48),
    ny=st.integers(16, 48),
    truncation=st.integers(1, 12),
)
# cosh(n*L) is finite here, but the closed-form entries overflow
@example(gate={"kind": "fourier_mode", "n": 700}, L=1.0, nx=16, ny=16, truncation=12)
def test_every_gate_section_has_a_documented_exit(gate, L, nx, ny, truncation):
    doc = {"L": L, "truncation": truncation, "grid": {"nx": nx, "ny": ny}, "gate": gate}
    with tempfile.TemporaryDirectory() as tmp:
        code = run("coupling", write_config(Path(tmp), doc), Path(tmp) / "out")
    assert code in (0, 2, 3)
    if gate["kind"] == "segment":
        # a segment runs exactly when it survives snapping to the grid
        try:
            GateSegment(gate["a"], gate["b"]).snap(nx)
        except ValueError:
            assert code == 2
        else:
            assert code == 0


def test_cli_main_help(capsys):
    from gatedqdot.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "certify" in out and "CSV columns" in out


# every library function a command's stages call through `gatedqdot.cli`
STAGE_FUNCTIONS = (
    "enumerate_modes", "solve_full_gate", "solve_partial_gate_fd", "assemble_coupling_matrix",
    "shifted_spectrum", "check_weak_nonresonance", "check_simplicity", "propagate_bilinear",
    "synthesize_chain_transfer", "alpha_scaling_study", "gate_convergence_sweep",
)
COUPLED = ("enumerate_modes", "assemble_coupling_matrix")
# the stage functions each command calls once, the gate field aside; every other is not called
COMMAND_STAGES = {
    "spectrum": ("enumerate_modes", "check_simplicity"),
    "potential": (),
    "coupling": COUPLED,
    "chain": COUPLED,
    "resonance": (*COUPLED, "shifted_spectrum", "check_weak_nonresonance"),
    "shape-derivative": ("enumerate_modes",),
    "evolve": (*COUPLED, "propagate_bilinear"),
    "control": (*COUPLED, "synthesize_chain_transfer", "propagate_bilinear"),
    "nonlinear": ("alpha_scaling_study",),
    "gate-sweep": ("gate_convergence_sweep",),
    "certify": (*COUPLED, "check_simplicity", "shifted_spectrum", "check_weak_nonresonance"),
}
FIELD_COMMANDS = {"potential", "coupling", "chain", "resonance", "evolve", "control", "nonlinear",
                  "certify"}
STAGE_GATES = {
    "fourier_mode": ({"kind": "fourier_mode", "n": 2}, "solve_full_gate"),
    "segment": ({"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": 2}, "solve_partial_gate_fd"),
}


@pytest.mark.parametrize(
    "command, gate",
    [(c, g) for c in COMMAND_STAGES for g in STAGE_GATES if (c, g) != ("gate-sweep", "segment")],
)
def test_each_stage_runs_once(tmp_path, monkeypatch, command, gate):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in STAGE_FUNCTIONS:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    gate_doc, field_function = STAGE_GATES[gate]
    doc = {
        "L": 1.03,
        "truncation": 20,
        "grid": {"nx": 32, "ny": 32},
        "gate": gate_doc,
        "control": {"samples": [[0.05, 0.1], [0.05, 0.2]]},
        "dynamics": {"path": [[1, 1], [2, 1]], "T": 0.02, "nonlinear_nx": 32, "nonlinear_ny": 32},
        "gate_sweep": {"fractions": [0.5, 0.9]},
    }
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, doc), out) == 0
    expected = Counter(COMMAND_STAGES[command])
    if command in FIELD_COMMANDS:
        expected[field_function] += 1
    assert {n: calls[n] for n in STAGE_FUNCTIONS} == {n: expected[n] for n in STAGE_FUNCTIONS}
    artifacts = json.loads((out / "report.json").read_text())["artifacts"]
    assert sorted(artifacts) == sorted(p.name for p in out.iterdir() if p.name != "report.json")


@pytest.mark.parametrize(
    "gate, field_type", [("fourier_mode", SpectralField), ("segment", GridField)]
)
def test_nonlinear_evaluates_the_gate_potential_once(tmp_path, monkeypatch, gate, field_type):
    calls = Counter()

    def counting(cls):
        values_on = cls.values_on

        def wrapper(self, x1, x2):
            calls[cls] += 1
            return values_on(self, x1, x2)
        return wrapper

    for cls in (SpectralField, GridField):
        monkeypatch.setattr(cls, "values_on", counting(cls))
    doc = {
        "L": 1.03,
        "grid": {"nx": 32, "ny": 32},
        "gate": STAGE_GATES[gate][0],
        "dynamics": {"T": 0.02, "alphas": [1e-3, 1e-2, 1e-1],
                     "nonlinear_nx": 16, "nonlinear_ny": 16},
    }
    assert run("nonlinear", write_config(tmp_path, doc), tmp_path / "out") == 0
    # the reference and the three alpha flows share one evaluation
    assert calls == {field_type: 1}


def test_control_on_a_one_mode_path_writes_the_empty_pulse(tmp_path):
    out = tmp_path / "out"
    doc = {**BASE, "dynamics": {"path": [[1, 1]]}}
    assert run("control", write_config(tmp_path, doc), out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["artifacts"] == ["control.csv"]
    assert (out / "control.csv").read_text() == "duration,value\n"
    assert report["results"]["samples"] == 0
    assert "fidelity" not in report["results"] and "final_norm" not in report["results"]


def documented_artifacts():
    """Per command, {file: columns or None} as the `--help` epilog `cli.CSV_DOC` lists them."""
    text = re.sub(r",\n\s+", ",", cli.CSV_DOC)  # join wrapped column lists
    documented, commands = {}, []
    for line in text.splitlines():
        entry = re.match(r"  (\S+)\s", line)
        if entry:
            commands = entry[1].split("/")
        for name, cols in re.findall(r"(\w+\.(?:csv|json))(?:: ([\w.,]+))?", line):
            columns = cols.split(",") if name.endswith(".csv") else None
            for command in commands:
                documented.setdefault(command, {})[name] = columns
    return documented


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_epilog_lists_every_artifact_and_csv_header(tmp_path, command):
    k = 3
    doc = {
        **BASE,
        "grid": {"nx": 32, "ny": 32},
        "control": {"samples": [[0.05, 0.1], [0.05, 0.2]]},
        "dynamics": {"path": [[1, 1], [2, 1]], "T": 0.02, "nonlinear_nx": 16, "nonlinear_ny": 16,
                     "log_populations": k},
        "gate_sweep": {"fractions": [0.5, 0.9]},
    }
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, doc), out) == 0
    documented = documented_artifacts().get(command, {})
    artifacts = json.loads((out / "report.json").read_text())["artifacts"]
    assert sorted(artifacts) == sorted(documented)
    for name, columns in documented.items():
        if columns is None:
            continue
        expanded = []
        for col in columns:
            expanded += [f"population_{i + 1}" for i in range(k)] if col == "population_1..K" else [col]
        assert (out / name).read_text().splitlines()[0] == ",".join(expanded)


@pytest.mark.parametrize(
    "command, name, header",
    [
        ("evolve", "trajectory.csv", "time,norm,h1_seminorm,control_value"),
        ("control", "trajectory.csv", "time,norm,h1_seminorm,control_value"),
        ("nonlinear", "nonlinear_trajectory.csv", "time,norm,h1_seminorm,gate_expectation,control_value"),
    ],
)
def test_zero_log_populations_writes_no_population_column(tmp_path, command, name, header):
    doc = {**BASE, "control": {"samples": [[0.05, 0.1]]},
           "dynamics": {"path": [[1, 1], [2, 1]], "T": 0.02, "nonlinear_nx": 16,
                        "nonlinear_ny": 16, "log_populations": 0}}
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, doc), out) == 0
    assert (out / name).read_text().splitlines()[0] == header
