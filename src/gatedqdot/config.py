"""Run configuration: a single JSON document, validated all at once.

Unknown keys are rejected everywhere; every range constraint of the
downstream modules is checked here so commands start from a consistent
picture.  `validate_config` collects every problem before raising, so a
bad file reports all of its defects in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field


class ConfigValidationError(ValueError):
    """Aggregated validation failure; `errors` lists every defect found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class GateConfig:
    kind: str = "fourier_mode"
    n: int = 2
    coefficients: tuple[float, ...] = ()
    a: float = 0.0
    b: float = 0.0
    trace_mode: int = 2


@dataclass(frozen=True)
class GridConfig:
    nx: int = 256
    ny: int = 256


@dataclass(frozen=True)
class ToleranceConfig:
    simplicity: float = 1e-9
    resonance: float | None = None  # None: 1e-9 * spectral diameter
    zero_tol: float | None = None  # None: relative row rule


@dataclass(frozen=True)
class DynamicsConfig:
    dt: float = 1e-3
    T: float = 2.0
    alphas: tuple[float, ...] = (1e-3, 1e-2, 1e-1)
    path: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (3, 1))
    amplitude_fraction: float = 0.5
    samples_per_period: int = 40
    duration_cap: float = 1e6
    nonlinear_nx: int = 128
    nonlinear_ny: int = 128
    log_populations: int = 6


@dataclass(frozen=True)
class ShapeConfig:
    mode: tuple[int, int] = (1, 1)
    wall: str = "left"


@dataclass(frozen=True)
class RunConfig:
    L: float = 1.0
    delta: float = 0.3
    truncation: int = 30
    rho: float | None = None  # None: delta/2 for shifted-spectrum commands
    gate: GateConfig = field(default_factory=GateConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)
    shape: ShapeConfig = field(default_factory=ShapeConfig)
    gate_sweep_fractions: tuple[float, ...] = (0.5, 0.75, 0.9, 0.99)
    control: tuple[tuple[float, float], ...] | None = None

    def resonance_tol(self, eigenvalues) -> float:
        if self.tolerances.resonance is not None:
            return self.tolerances.resonance
        diameter = float(eigenvalues[-1] - eigenvalues[0]) if len(eigenvalues) > 1 else 1.0
        return 1e-9 * max(diameter, 1.0)

    def effective_rho(self) -> float:
        return self.rho if self.rho is not None else 0.5 * self.delta

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["gate_sweep"] = {"fractions": list(doc.pop("gate_sweep_fractions"))}
        doc["control"] = (
            None if self.control is None else {"samples": [list(s) for s in self.control]}
        )
        gate = {"kind": self.gate.kind}
        if self.gate.kind == "fourier_mode":
            gate["n"] = self.gate.n
        elif self.gate.kind == "sine_series":
            gate["coefficients"] = list(self.gate.coefficients)
        else:
            gate.update({"a": self.gate.a, "b": self.gate.b, "trace_mode": self.gate.trace_mode})
        doc["gate"] = gate
        doc["dynamics"]["alphas"] = list(self.dynamics.alphas)
        doc["dynamics"]["path"] = [list(p) for p in self.dynamics.path]
        doc["shape"]["mode"] = list(self.shape.mode)
        return doc


def _expect_keys(section: dict, allowed: set, where: str, errors: list):
    for key in section:
        if key not in allowed:
            errors.append(f"{where}: unknown key {key!r}")


def _number(section, key, where, errors, *, default, positive=False, nonnegative=False,
            integer=False, minimum=None, optional=False):
    if key not in section:
        return default
    value = section[key]
    if value is None and optional:
        return None
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if ok and integer and not float(value).is_integer():
        ok = False
    if not ok:
        errors.append(f"{where}.{key}: expected a finite {'integer' if integer else 'number'}")
        return default
    value = int(value) if integer else float(value)
    if positive and value <= 0:
        errors.append(f"{where}.{key} must be positive")
    if nonnegative and value < 0:
        errors.append(f"{where}.{key} must be nonnegative")
    if minimum is not None and value < minimum:
        errors.append(f"{where}.{key} must be >= {minimum}")
    return value


def _parse_gate(section, errors) -> GateConfig:
    if not isinstance(section, dict):
        errors.append("gate: expected an object")
        return GateConfig()
    kind = section.get("kind", "fourier_mode")
    if kind == "fourier_mode":
        _expect_keys(section, {"kind", "n"}, "gate", errors)
        n = _number(section, "n", "gate", errors, default=2, integer=True, minimum=1)
        return GateConfig(kind="fourier_mode", n=n)
    if kind == "sine_series":
        _expect_keys(section, {"kind", "coefficients"}, "gate", errors)
        coeffs = section.get("coefficients", [])
        if (
            not isinstance(coeffs, list)
            or not coeffs
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)
        ):
            errors.append("gate.coefficients must be a nonempty number list")
            coeffs = [1.0]
        return GateConfig(kind="sine_series", coefficients=tuple(float(c) for c in coeffs))
    if kind == "segment":
        _expect_keys(section, {"kind", "a", "b", "trace_mode"}, "gate", errors)
        a = _number(section, "a", "gate", errors, default=0.5)
        b = _number(section, "b", "gate", errors, default=math.pi - 0.5)
        trace_mode = _number(section, "trace_mode", "gate", errors, default=2, integer=True, minimum=1)
        if not 0.0 < a < b < math.pi:
            errors.append("gate segment must satisfy 0 < a < b < pi")
        return GateConfig(kind="segment", a=a, b=b, trace_mode=trace_mode)
    errors.append(f"gate.kind: unknown kind {kind!r}")
    return GateConfig()


def _parse_pairs(raw, where, errors, default):
    if raw is None:
        return default
    good = (
        isinstance(raw, list)
        and all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in p)
            for p in raw
        )
    )
    if not good:
        errors.append(f"{where}: expected a list of [int, int] pairs")
        return default
    pairs = []
    for p in raw:
        if not (float(p[0]).is_integer() and float(p[1]).is_integer() and p[0] >= 1 and p[1] >= 1):
            errors.append(f"{where}: mode indices must be integers >= 1")
            return default
        pairs.append((int(p[0]), int(p[1])))
    return tuple(pairs)


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw JSON document, raising ConfigValidationError with all defects."""
    errors: list[str] = []
    if not isinstance(raw, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])
    allowed = {
        "L", "delta", "truncation", "rho", "gate", "grid", "tolerances",
        "dynamics", "shape", "gate_sweep", "control",
    }
    _expect_keys(raw, allowed, "top level", errors)

    L = _number(raw, "L", "top level", errors, default=1.0, positive=True)
    delta = _number(raw, "delta", "top level", errors, default=0.3, positive=True)
    truncation = _number(raw, "truncation", "top level", errors, default=30, integer=True, minimum=1)
    rho = _number(raw, "rho", "top level", errors, default=None, optional=True, nonnegative=True)

    gate = _parse_gate(raw.get("gate", {}), errors)

    grid_raw = raw.get("grid", {})
    if not isinstance(grid_raw, dict):
        errors.append("grid: expected an object")
        grid_raw = {}
    _expect_keys(grid_raw, {"nx", "ny"}, "grid", errors)
    grid = GridConfig(
        nx=_number(grid_raw, "nx", "grid", errors, default=256, integer=True, minimum=16),
        ny=_number(grid_raw, "ny", "grid", errors, default=256, integer=True, minimum=16),
    )

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        errors.append("tolerances: expected an object")
        tol_raw = {}
    _expect_keys(tol_raw, {"simplicity", "resonance", "zero_tol"}, "tolerances", errors)
    tolerances = ToleranceConfig(
        simplicity=_number(tol_raw, "simplicity", "tolerances", errors, default=1e-9, positive=True),
        resonance=_number(tol_raw, "resonance", "tolerances", errors, default=None, optional=True, positive=True),
        zero_tol=_number(tol_raw, "zero_tol", "tolerances", errors, default=None, optional=True, nonnegative=True),
    )

    dyn_raw = raw.get("dynamics", {})
    if not isinstance(dyn_raw, dict):
        errors.append("dynamics: expected an object")
        dyn_raw = {}
    _expect_keys(
        dyn_raw,
        {"dt", "T", "alphas", "path", "amplitude_fraction", "samples_per_period",
         "duration_cap", "nonlinear_nx", "nonlinear_ny", "log_populations"},
        "dynamics", errors,
    )
    alphas_raw = dyn_raw.get("alphas", [1e-3, 1e-2, 1e-1])
    if (
        not isinstance(alphas_raw, list)
        or not alphas_raw
        or not all(
            isinstance(a, (int, float)) and not isinstance(a, bool) and a > 0 for a in alphas_raw
        )
        or any(b <= a for a, b in zip(alphas_raw[:-1], alphas_raw[1:]))
    ):
        errors.append("dynamics.alphas must be a strictly increasing positive list")
        alphas_raw = [1e-3, 1e-2, 1e-1]
    amplitude_fraction = _number(
        dyn_raw, "amplitude_fraction", "dynamics", errors, default=0.5, positive=True
    )
    if amplitude_fraction is not None and amplitude_fraction > 0.5:
        errors.append("dynamics.amplitude_fraction must be <= 0.5")
    dynamics = DynamicsConfig(
        dt=_number(dyn_raw, "dt", "dynamics", errors, default=1e-3, positive=True),
        T=_number(dyn_raw, "T", "dynamics", errors, default=2.0, positive=True),
        alphas=tuple(float(a) for a in alphas_raw),
        path=_parse_pairs(dyn_raw.get("path"), "dynamics.path", errors, ((1, 1), (2, 1), (3, 1))),
        amplitude_fraction=amplitude_fraction,
        samples_per_period=_number(
            dyn_raw, "samples_per_period", "dynamics", errors, default=40, integer=True, minimum=2
        ),
        duration_cap=_number(dyn_raw, "duration_cap", "dynamics", errors, default=1e6, positive=True),
        nonlinear_nx=_number(dyn_raw, "nonlinear_nx", "dynamics", errors, default=128, integer=True, minimum=4),
        nonlinear_ny=_number(dyn_raw, "nonlinear_ny", "dynamics", errors, default=128, integer=True, minimum=4),
        log_populations=_number(dyn_raw, "log_populations", "dynamics", errors, default=6, integer=True, minimum=0),
    )

    shape_raw = raw.get("shape", {})
    if not isinstance(shape_raw, dict):
        errors.append("shape: expected an object")
        shape_raw = {}
    _expect_keys(shape_raw, {"mode", "wall"}, "shape", errors)
    shape_mode = _parse_pairs(
        [shape_raw["mode"]] if "mode" in shape_raw else None, "shape.mode", errors, ((1, 1),)
    )[0]
    wall = shape_raw.get("wall", "left")
    if wall not in ("left", "right", "bottom", "top"):
        errors.append("shape.wall must be one of left/right/bottom/top")
        wall = "left"
    shape = ShapeConfig(mode=shape_mode, wall=wall)

    sweep_raw = raw.get("gate_sweep", {})
    if not isinstance(sweep_raw, dict):
        errors.append("gate_sweep: expected an object")
        sweep_raw = {}
    _expect_keys(sweep_raw, {"fractions"}, "gate_sweep", errors)
    fracs = sweep_raw.get("fractions", [0.5, 0.75, 0.9, 0.99])
    if (
        not isinstance(fracs, list)
        or not fracs
        or not all(
            isinstance(f, (int, float)) and not isinstance(f, bool) and 0 < f < 1 for f in fracs
        )
        or any(b <= a for a, b in zip(fracs[:-1], fracs[1:]))
    ):
        errors.append("gate_sweep.fractions must be strictly increasing within (0, 1)")
        fracs = [0.5, 0.75, 0.9, 0.99]

    control_raw = raw.get("control")
    control = None
    if control_raw is not None:
        if not isinstance(control_raw, dict):
            errors.append("control: expected an object with samples")
        else:
            _expect_keys(control_raw, {"samples"}, "control", errors)
            samples = control_raw.get("samples")
            good = isinstance(samples, list) and samples and all(
                isinstance(s, list) and len(s) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in s)
                for s in samples
            )
            if not good:
                errors.append("control.samples must be a nonempty list of [duration, value] pairs")
            else:
                for dur, val in samples:
                    if dur <= 0:
                        errors.append("control sample durations must be positive")
                    if delta is not None and not 0 <= val <= delta:
                        errors.append(f"control value {val} outside [0, delta]")
                control = tuple((float(d), float(v)) for d, v in samples)

    if rho is not None and delta is not None and rho >= delta:
        errors.append("rho must be smaller than delta")
    if errors:
        raise ConfigValidationError(errors)
    return RunConfig(
        L=L, delta=delta, truncation=truncation, rho=rho, gate=gate, grid=grid,
        tolerances=tolerances, dynamics=dynamics, shape=shape,
        gate_sweep_fractions=tuple(float(f) for f in fracs), control=control,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigValidationError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config is not valid JSON: {exc}"])
    return validate_config(raw)
