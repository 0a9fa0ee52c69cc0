"""Run configuration: a single JSON document, validated all at once.

Unknown keys are rejected everywhere; every range constraint of the
downstream modules is checked here so commands start from a consistent
picture.  `validate_config` collects every problem before raising, so a
bad file reports all of its defects in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields


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
    a: float = 0.5
    b: float = math.pi - 0.5
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


def _finite(value) -> bool:
    """The one number test: a JSON number, not a bool, finite as a float.

    An integer beyond the float range counts as non-finite.
    """
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _entries(value, width=0) -> bool:
    """Whether value is a nonempty list of finite numbers, or of `width`-long lists of them."""
    return isinstance(value, list) and bool(value) and all(
        isinstance(e, list) and len(e) == width and all(map(_finite, e)) if width else _finite(e)
        for e in value
    )


_POSITIVE = ("must be positive", lambda v: v > 0)
_NONNEGATIVE = ("must be nonnegative", lambda v: v >= 0)


def _at_least(m):
    return (f"must be >= {m}", lambda v: v >= m)


# One row per settable key, in the order validate_config reports its
# messages: (section, key, kind, *rule).  Defaults are the dataclass fields.
#   number, integer, optional (a number or null): rule = range checks, each
#     (message, test); a type error keeps the default, a range error the value
#   list: rule = (width, message); required, a nonempty list of finite
#     numbers (of width-long lists if width)
#   increasing: rule = (message, entry test); a strictly increasing list
#   pairs: a list of [int, int] mode indices >= 1 (null keeps the default);
#     pair: one such [int, int]
#   choice: rule = the allowed values
_ROWS = (
    ("top level", "L", "number", _POSITIVE),
    ("top level", "delta", "number", _POSITIVE),
    ("top level", "truncation", "integer", _at_least(1)),
    ("top level", "rho", "optional", _NONNEGATIVE),
    ("gate", "n", "integer", _at_least(1)),
    ("gate", "coefficients", "list", 0, "must be a nonempty number list"),
    ("gate", "a", "number"),
    ("gate", "b", "number"),
    ("gate", "trace_mode", "integer", _at_least(1)),
    ("grid", "nx", "integer", _at_least(16)),
    ("grid", "ny", "integer", _at_least(16)),
    ("tolerances", "simplicity", "number", _POSITIVE),
    ("tolerances", "resonance", "optional", _POSITIVE),
    ("tolerances", "zero_tol", "optional", _NONNEGATIVE),
    ("dynamics", "alphas", "increasing", "must be a strictly increasing positive list", lambda a: a > 0),
    ("dynamics", "amplitude_fraction", "number", _POSITIVE, ("must be <= 0.5", lambda v: v <= 0.5)),
    ("dynamics", "dt", "number", _POSITIVE),
    ("dynamics", "T", "number", _POSITIVE),
    ("dynamics", "path", "pairs"),
    ("dynamics", "samples_per_period", "integer", _at_least(2)),
    ("dynamics", "duration_cap", "number", _POSITIVE),
    ("dynamics", "nonlinear_nx", "integer", _at_least(4)),
    ("dynamics", "nonlinear_ny", "integer", _at_least(4)),
    ("dynamics", "log_populations", "integer", _at_least(0)),
    ("shape", "mode", "pair"),
    ("shape", "wall", "choice", "left", "right", "bottom", "top"),
    ("gate_sweep", "fractions", "increasing", "must be strictly increasing within (0, 1)",
     lambda f: 0 < f < 1),
    ("control", "samples", "list", 2, "must be a nonempty list of [duration, value] pairs"),
)
# The sections in order, each with the dataclass that holds its values.
_SECTIONS = {
    "top level": RunConfig, "gate": GateConfig, "grid": GridConfig, "tolerances": ToleranceConfig,
    "dynamics": DynamicsConfig, "shape": ShapeConfig, "gate_sweep": RunConfig, "control": RunConfig,
}
_FIELDS = {"fractions": "gate_sweep_fractions", "samples": "control"}
# The gate keys of each gate kind, besides `kind`.
_GATE_KEYS = {"fourier_mode": ("n",), "sine_series": ("coefficients",), "segment": ("a", "b", "trace_mode")}


def _parse(value, name, kind, rule, default, errors):
    """One row's value: the default after a type error, the value itself after a range error."""
    if kind in ("number", "integer", "optional"):
        if value is None and kind == "optional":
            return None
        integer = kind == "integer"
        if not _finite(value) or (integer and not float(value).is_integer()):
            errors.append(f"{name}: expected a finite {'integer' if integer else 'number'}")
            return default
        value = int(value) if integer else float(value)
        errors.extend(f"{name} {message}" for message, test in rule if not test(value))
        return value
    if kind == "choice":
        if value in rule:
            return value
        errors.append(f"{name} must be one of {'/'.join(rule)}")
        return default
    if kind == "pair":
        return _parse([value], name, "pairs", rule, (default,), errors)[0]
    if kind == "pairs":
        if value is None:
            return default
        if not _entries(value, 2):
            errors.append(f"{name}: expected a list of [int, int] pairs")
        elif not all(float(j).is_integer() and j >= 1 for pair in value for j in pair):
            errors.append(f"{name}: mode indices must be integers >= 1")
        else:
            return tuple((int(j1), int(j2)) for j1, j2 in value)
        return default
    if kind == "increasing":
        (message, test), width = rule, 0
        ok = _entries(value) and all(map(test, value)) and all(a < b for a, b in zip(value, value[1:]))
    else:
        width, message = rule
        ok = _entries(value, width)
    if not ok:
        errors.append(f"{name} {message}")
        return default
    return tuple(tuple(map(float, e)) if width else float(e) for e in value)


def validate_config(raw: dict) -> RunConfig:
    """Validate a raw JSON document, raising ConfigValidationError with all defects."""
    if not isinstance(raw, dict):
        raise ConfigValidationError(["top level: expected a JSON object"])
    errors: list[str] = []
    values = {cls: {f.name: f.default for f in fields(cls)} for cls in _SECTIONS.values()}
    for where, cls in _SECTIONS.items():
        if where == "control" and raw.get(where) is None:
            continue
        doc = raw if where == "top level" else raw.get(where, {})
        if not isinstance(doc, dict):
            errors.append(f"{where}: expected an object{' with samples' if where == 'control' else ''}")
            continue
        found = values[cls]
        keys = [row[1] for row in _ROWS if row[0] == where]
        if where == "top level":
            keys += [name for name in _SECTIONS if name != where]
        elif where == "gate":
            gate_kind = doc.get("kind", found["kind"])
            if not (isinstance(gate_kind, str) and gate_kind in _GATE_KEYS):
                errors.append(f"gate.kind: unknown kind {gate_kind!r}")
                continue
            keys = ["kind", *_GATE_KEYS[gate_kind]]
            found["kind"] = gate_kind
        errors.extend(f"{where}: unknown key {key!r}" for key in doc if key not in keys)
        for section, key, kind, *rule in _ROWS:
            if section == where and key in keys and (key in doc or kind == "list"):
                name = _FIELDS.get(key, key)
                found[name] = _parse(doc.get(key), f"{where}.{key}", kind, rule, found[name], errors)
        if where == "gate" and found["kind"] == "segment" and not 0.0 < found["a"] < found["b"] < math.pi:
            errors.append("gate segment must satisfy 0 < a < b < pi")

    top = values[RunConfig]
    # the messages quote each control value as the document wrote it
    for duration, value in raw["control"]["samples"] if top["control"] is not None else ():
        if duration <= 0:
            errors.append("control sample durations must be positive")
        if not 0 <= value <= top["delta"]:
            errors.append(f"control value {value} outside [0, delta]")
    if top["rho"] is not None and top["rho"] >= top["delta"]:
        errors.append("rho must be smaller than delta")
    if errors:
        raise ConfigValidationError(errors)
    sections = {name: cls(**values[cls]) for name, cls in _SECTIONS.items() if cls is not RunConfig}
    return RunConfig(**{**top, **sections})


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigValidationError([f"config file not found: {path}"])
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ConfigValidationError([f"cannot read config file {path}: {exc.strerror}"])
    except ValueError as exc:  # a JSONDecodeError, an undecodable byte or an over-long integer
        raise ConfigValidationError([f"config is not valid JSON: {exc}"])
    return validate_config(raw)
