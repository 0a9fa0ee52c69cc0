import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedqdot.cli import run
from gatedqdot.config import ConfigValidationError, validate_config
from gatedqdot.poisson import GateSegment


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

    def test_env_var_overrides_out(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE)
        target = tmp_path / "env-out"
        monkeypatch.setenv("GATEDQDOT_OUT", str(target))
        assert run("spectrum", cfg, tmp_path / "ignored") == 0
        assert (target / "report.json").exists()
        assert not (tmp_path / "ignored").exists()

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


@pytest.mark.parametrize("command", ["coupling", "potential", "certify"])
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


def test_non_finite_result_is_numerical_failure(tmp_path, capsys):
    # the sweep's errors overflow to inf for this gate; report.json cannot hold them
    doc = {"gate": {"kind": "fourier_mode", "n": 700}, "grid": {"nx": 64, "ny": 64}}
    out = tmp_path / "out"
    assert run("gate-sweep", write_config(tmp_path, doc), out) == 3
    assert "numerical failure: gate-sweep produced a non-finite result" in capsys.readouterr().err
    assert not (out / "report.json").exists()


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
