"""Command-line entry point: one staged run behind every command.

Every command reads one JSON config (see config.py) and takes the stages it
needs from one `_Run`, which computes each stage of the chain at most once:
spectrum -> gate field -> coupling matrix -> shifted spectrum and weak scan,
plus the configured pulse.  A command returns its results and artifacts;
`run` writes the artifacts and a report.json into the output directory, and
exits 0 on success, 2 on validation errors, 3 on numerical failures.
Reports carry a sha256 over their deterministic body; timestamps and timings
live only in the provenance section, so identical configs give
bit-identical bodies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .chains import breadth_first_forest, build_graph, certify, witness_paths
from .config import ConfigValidationError, RunConfig, load_config
from .coupling import assemble_coupling_matrix
from .dynamics import (
    ControlSignal,
    NonlinearConfig,
    alpha_scaling_study,
    galerkin_mode_state,
    grid_mode_state,
    propagate_bilinear,
    synthesize_chain_transfer,
    transfer_fidelity,
)
from .errors import NumericalError
from .poisson import (
    GateSegment,
    SpectralField,
    StaggeredGrid,
    fourier_term,
    gate_convergence_sweep,
    segment_trace,
    solve_full_gate,
    solve_partial_gate_fd,
)
from .spectral import (
    check_simplicity,
    check_weak_nonresonance,
    eigenvalue_shape_derivative,
    enumerate_modes,
    shifted_spectrum,
)

CSV_DOC = """\
artifact CSV columns per command:
  spectrum          spectrum.csv: j1,j2,lambda
  potential         potential.csv: x1,x2,value (row-major lattice)
  coupling          coupling.csv: a1,a2,b1,b2,value; coupling.json: modes + triplets
  chain             chain.json: connectivity, components, witness paths
  resonance         shifted_spectrum.csv: position,lambda
  evolve/control    trajectory.csv: time,norm,h1_seminorm,
                    population_1..K,control_value
  control           control.csv: duration,value
  nonlinear         alpha_study.csv: alpha,deviation,max_norm_drift,max_h1
                    nonlinear_trajectory.csv: time,norm,h1_seminorm,
                    gate_expectation,population_1..K,control_value
  gate-sweep        gate_sweep.csv: fraction,a_snapped,b_snapped,l2_error,h1_error
  certify           chain.json (full certificate)
All floats use 17 significant digits.
"""


def _json_default(obj):
    """`json.dumps` hook: numpy scalars and arrays as Python numbers and lists."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class _Run:
    """The stages of one config, each computed on first read and then kept.

    Each stage calls its library function through this module's name for
    it, so a wrapper set on `gatedqdot.cli.<name>` sees every call.  A stage
    reads the stages it needs in the chain's order, which decides the error
    a failing run reports.
    """

    def __init__(self, config: RunConfig):
        self.config = config

    @cached_property
    def spectrum(self):
        return enumerate_modes(self.config.L, self.config.truncation)

    @cached_property
    def field(self):
        """Gate potential for the configured profile; FD solve for segment gates."""
        config, gate = self.config, self.config.gate
        if gate.kind == "fourier_mode":
            return solve_full_gate([fourier_term(gate.n, config.L)], config.L)
        if gate.kind == "sine_series":
            return solve_full_gate(enumerate(gate.coefficients, start=1), config.L)
        segment = GateSegment(gate.a, gate.b)
        trace = segment_trace(segment, gate.trace_mode, config.L, config.grid.nx)
        return solve_partial_gate_fd(segment, trace, config.L, config.grid.nx, config.grid.ny)

    @cached_property
    def matrix(self):
        """Coupling matrix of the gate field over the spectrum."""
        spectrum = self.spectrum
        return assemble_coupling_matrix(self.field, spectrum, self.config.tolerances.zero_tol)

    @cached_property
    def resonance(self):
        """Shifted eigenvalues at `effective_rho()`, their tolerance and the weak scan."""
        config = self.config
        shifted, _ = shifted_spectrum(self.spectrum, self.matrix, config.effective_rho())
        tol = config.resonance_tol(shifted)
        return shifted, tol, check_weak_nonresonance(shifted, tol)

    @cached_property
    def control(self) -> ControlSignal:
        """The pulse of the config's control section."""
        if self.config.control is None:
            raise ValueError("this command needs a control section in the config")
        return ControlSignal(samples=self.config.control, delta=self.config.delta)


def _write_rows_csv(path, header, rows):
    """The one CSV writer: floats with 17 significant digits, other values as str."""
    # one `%` operation formats each block of up to 4096 rows
    with open(path, "w") as fh:
        fh.write(header + "\n")
        lines, flat = [], []
        for row in rows:
            lines.append(",".join(["%.17g" if isinstance(x, float) else "%s" for x in row]) + "\n")
            flat.extend(row)
            if len(lines) == 4096:
                fh.write("".join(lines) % tuple(flat))
                lines, flat = [], []
        fh.write("".join(lines) % tuple(flat))


def _write_json(path, doc):
    """The one JSON writer: indent 2, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n")


def _forest_json(modes, components, witness) -> dict:
    """The `components` and `witness_paths` keys of a chain.json document.

    Positions are named by `modes`; the witness paths are sorted by their
    (from, to) mode pair, which need not be their order by position.
    """
    paths = sorted(
        ((modes[a], modes[b]), [list(modes[p]) for p in path]) for (a, b), path in witness.items()
    )
    return {
        "components": [[list(modes[i]) for i in comp] for comp in components],
        "witness_paths": [{"from": list(a), "to": list(b), "path": p} for (a, b), p in paths],
    }


def _simplicity_results(spectrum, tol):
    collisions = check_simplicity(spectrum, tol)
    modes = spectrum.modes
    return {
        "tol": tol,
        "simple": not collisions,
        "collisions": [[list(modes[a]), list(modes[b]), gap] for a, b, gap in collisions],
    }


def _cmd_spectrum(run: _Run):
    config, spectrum = run.config, run.spectrum
    results = {
        "truncation": config.truncation,
        "L": config.L,
        "lambda_min": float(spectrum.eigenvalues[0]),
        "lambda_max": float(spectrum.eigenvalues[-1]),
        "simplicity": _simplicity_results(spectrum, config.tolerances.simplicity),
    }
    rows = zip(spectrum.j1.tolist(), spectrum.j2.tolist(), spectrum.eigenvalues.tolist())
    return results, {"spectrum.csv": ("j1,j2,lambda", rows)}


def _cmd_potential(run: _Run):
    field = run.field
    if isinstance(field, SpectralField):
        grid_field = field.rasterize(run.config.grid.nx, run.config.grid.ny)
        results = {"representation": "spectral", "terms": [[m, c] for m, c in field.terms]}
    else:
        grid_field = field
        results = {"representation": "grid", **field.meta}
    # row-major: x1 outer, x2 inner
    x1, x2 = np.meshgrid(grid_field.x1, grid_field.x2, indexing="ij")
    rows = np.column_stack((x1.ravel(), x2.ravel(), grid_field.values.ravel())).tolist()
    return results, {"potential.csv": ("x1,x2,value", rows)}


def _cmd_coupling(run: _Run):
    matrix = run.matrix
    a, b = np.nonzero(np.triu(matrix.values))
    triplets = [list(t) for t in zip(a.tolist(), b.tolist(), matrix.values[a, b].tolist())]
    modes = run.spectrum.modes
    rows = ((*modes[i], *modes[j], v) for i, j, v in triplets)
    doc = {"modes": [list(m) for m in modes], "triplets": triplets,
           "zero_tol": matrix.zero_tol, "dropped": matrix.dropped}
    results = {
        "truncation": run.config.truncation,
        "stored": len(triplets),
        "dropped": matrix.dropped,
        "zero_tol": matrix.zero_tol,
        "max_entry": float(np.abs(matrix.values).max()),
    }
    return results, {"coupling.csv": ("a1,a2,b1,b2,value", rows), "coupling.json": doc}


def _cmd_chain(run: _Run):
    config, matrix = run.config, run.matrix
    adj = build_graph(matrix)
    components, parent = breadth_first_forest(adj)
    connected = len(components) == 1
    doc = {
        "connected": connected,
        **_forest_json(run.spectrum.modes, components, witness_paths(parent)),
        "truncation": config.truncation,
        "zero_tol": matrix.zero_tol,
    }
    results = {
        "connected": connected,
        "component_count": len(components),
        "component_sizes": [len(c) for c in components],
        "edges": int(np.count_nonzero(np.triu(adj))),
        "truncation": config.truncation,
    }
    return results, {"chain.json": doc}


def _cmd_resonance(run: _Run):
    modes = run.spectrum.modes
    shifted, tol, violations = run.resonance
    results = {
        "rho": run.config.effective_rho(),
        "tol": tol,
        "truncation": run.config.truncation,
        "violation_count": violations.count,
        "violations": [
            {
                "pair_s": [list(modes[s[0]]), list(modes[s[1]])],
                "pair_t": [list(modes[t[0]]), list(modes[t[1]])],
                "gap": gap,
            }
            for s, t, gap in violations.rows
        ],
        "weakly_nonresonant": violations.count == 0,
    }
    rows = [(i, float(v)) for i, v in enumerate(shifted)]
    return results, {"shifted_spectrum.csv": ("position,lambda", rows)}


def _cmd_shape_derivative(run: _Run):
    config = run.config
    mode = config.shape.mode
    wall = config.shape.wall
    value = eigenvalue_shape_derivative(
        run.spectrum, mode, wall, simplicity_tol=config.tolerances.simplicity
    )
    j1, j2 = mode
    if wall in ("left", "right"):
        exact = -2.0 * j1**2 / math.pi
        lam = lambda t: j1**2 * math.pi**2 / (math.pi + t) ** 2 + j2**2 * math.pi**2 / config.L**2
    else:
        exact = -2.0 * math.pi**2 * j2**2 / config.L**3
        lam = lambda t: j1**2 + j2**2 * math.pi**2 / (config.L + t) ** 2
    h = 1e-5
    oracle = (lam(h) - lam(-h)) / (2 * h)
    results = {
        "mode": list(mode),
        "wall": wall,
        "value": value,
        "widened_rectangle_oracle": oracle,
        "exact": exact,
        "abs_error_vs_exact": abs(value - exact),
    }
    return results, {}


def _propagate_stage(run: _Run, control):
    """Bilinear flow from the first path mode.

    Returns the final Galerkin coefficients, the final norm and the K
    final populations (the trajectory's last row) and the (header, rows)
    of trajectory.csv.  Each column is computed on the whole trajectory
    with the arithmetic of `np.linalg.norm` and of `abs(z) ** 2` on one
    coefficient, bit for bit.
    """
    config, spectrum = run.config, run.spectrum
    initial = galerkin_mode_state(spectrum, config.dynamics.path[0])
    times, values = propagate_bilinear(spectrum, run.matrix, control, initial)
    k = min(config.dynamics.log_populations, len(spectrum))
    re, im = values.real, values.imag
    # np.linalg.norm of a complex vector: the real and imaginary dot products
    norms = re[:, None, :] @ re[:, :, None]
    norms += im[:, None, :] @ im[:, :, None]
    np.sqrt(norms, out=norms)
    weighted = np.abs(values)
    weighted **= 2
    weighted *= spectrum.eigenvalues
    h1 = np.sqrt(np.sum(weighted, axis=1))
    # abs(z) ** 2 on a numpy scalar is hypot and then libm pow, not a square
    pops = np.float_power(np.hypot(re[:, :k], im[:, :k]), 2.0)
    # one row per sample boundary; the control value applied after it
    controls = [value for _, value in control.samples] + [0.0]
    cols = ["time", "norm", "h1_seminorm", *(f"population_{i + 1}" for i in range(k)), "control_value"]
    rows = np.column_stack((times, norms[:, 0, 0], h1, pops, controls)).tolist()
    return values[-1], norms[-1, 0, 0], pops[-1], (",".join(cols), rows)


def _cmd_evolve(run: _Run):
    run.matrix  # first, so a failing gate is reported before a missing control
    control = run.control
    _, norm, pops, trajectory = _propagate_stage(run, control)
    results = {
        "total_duration": control.total_duration,
        "final_norm": norm,
        "final_populations": {str(m): p for m, p in zip(run.spectrum.modes, pops)},
    }
    return results, {"trajectory.csv": trajectory}


def _cmd_control(run: _Run):
    config = run.config
    path = config.dynamics.path
    control = synthesize_chain_transfer(
        path,
        run.spectrum,
        run.matrix,
        config.delta,
        config.dynamics.amplitude_fraction,
        samples_per_period=config.dynamics.samples_per_period,
        duration_cap=config.dynamics.duration_cap,
    )
    artifacts = {"control.csv": ("duration,value", control.samples)}
    results = {
        "path": [list(p) for p in path],
        "samples": len(control.samples),
        "total_duration": control.total_duration,
    }
    if control.samples:
        final, norm, _, artifacts["trajectory.csv"] = _propagate_stage(run, control)
        results["fidelity"] = transfer_fidelity(run.spectrum, final, path[-1])
        results["final_norm"] = norm
    return results, artifacts


def _cmd_nonlinear(run: _Run):
    config, dyn, field = run.config, run.config.dynamics, run.field
    grid = StaggeredGrid(L=config.L, nx=dyn.nonlinear_nx, ny=dyn.nonlinear_ny)
    initial = grid_mode_state(grid, dyn.path[0])
    control = (run.control if config.control is not None
               else ControlSignal.constant(dyn.T, 0.5 * config.delta, config.delta))
    base = NonlinearConfig(alpha=0.0, dt=dyn.dt, grid=grid, log_populations=dyn.log_populations)
    # one read-only potential array serves every flow of the study
    v0 = field.values_on(grid.x1, grid.x2)
    study = alpha_scaling_study(dyn.alphas, control, dyn.T, base, v0, initial)
    # the largest eigenvalue the grid resolves, of mode (nx - 1, ny)
    j1, j2 = np.array([grid.nx - 1]), np.array([grid.ny])
    lam_max = (j1**2 + (j2 * math.pi / grid.L) ** 2)[0]
    study_header = "alpha,deviation,max_norm_drift,max_h1"
    study_rows = [[r[k] for k in study_header.split(",")] for r in study["rows"]]
    logged = study["runs"][-1]
    pops = logged.populations
    cols = ["time", "norm", "h1_seminorm", "gate_expectation",
            *(f"population_{i + 1}" for i in range(pops.shape[1])), "control_value"]
    rows = np.column_stack((logged.times, logged.norms, logged.h1_seminorms,
                            logged.gate_expectations, pops, logged.control_values))
    results = {
        "alphas": list(dyn.alphas),
        "deviations": [r["deviation"] for r in study["rows"]],
        "slope": study["slope"],
        "max_norm_drift": max(r["max_norm_drift"] for r in study["rows"]),
        "max_h1_seminorm": max(r["max_h1"] for r in study["rows"]),
        "dt_lambda_max": float(dyn.dt * lam_max),
        "T": dyn.T,
    }
    return results, {
        "alpha_study.csv": (study_header, study_rows),
        "nonlinear_trajectory.csv": (",".join(cols), rows.tolist()),
    }


def _cmd_gate_sweep(run: _Run):
    config = run.config
    if config.gate.kind != "fourier_mode":
        raise ValueError("gate-sweep requires a fourier_mode gate profile")
    rows = gate_convergence_sweep(
        config.gate_sweep_fractions, config.gate.n, config.L, config.grid.nx, config.grid.ny
    )
    errors = [r["l2_error"] for r in rows]
    results = {
        "rows": rows,
        "strictly_decreasing_l2": all(b < a for a, b in zip(errors[:-1], errors[1:])),
    }
    header = "fraction,a_snapped,b_snapped,l2_error,h1_error"
    return results, {"gate_sweep.csv": (header, [[r[k] for k in header.split(",")] for r in rows])}


def _cmd_certify(run: _Run):
    config, matrix, modes = run.config, run.matrix, run.spectrum.modes
    simplicity = _simplicity_results(run.spectrum, config.tolerances.simplicity)
    shifted, tol, weak = run.resonance
    cert = certify(matrix, shifted, tol)
    doc = {
        "connected": cert.connected,
        "certified": cert.certified,
        **_forest_json(modes, cert.components, cert.witness_paths),
        "violations": [
            {"chain_pair": [list(modes[p]) for p in s], "other_pair": [list(modes[p]) for p in t],
             "gap": gap}
            for s, t, gap in cert.violations
        ],
        "truncation": config.truncation,
        "tolerances": {"resonance": tol, "zero": matrix.zero_tol},
    }
    verdict = {
        "hypothesis": "non-resonant connectedness chain at finite truncation",
        "truncation": config.truncation,
        "rho": config.effective_rho(),
        "tolerances": {"resonance": tol, "simplicity": config.tolerances.simplicity,
                       "zero": matrix.zero_tol},
        "simplicity": simplicity,
        "chain": {
            "connected": cert.connected,
            "component_count": len(cert.components),
            "chain_edges": len(matrix) - len(cert.components),
        },
        "resonance_violations": len(cert.violations),
        "weak_nonresonance_violations": weak.count,
        "certified": bool(simplicity["simple"] and cert.certified),
    }
    return verdict, {"chain.json": doc}


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "potential": _cmd_potential,
    "coupling": _cmd_coupling,
    "chain": _cmd_chain,
    "resonance": _cmd_resonance,
    "shape-derivative": _cmd_shape_derivative,
    "evolve": _cmd_evolve,
    "control": _cmd_control,
    "nonlinear": _cmd_nonlinear,
    "gate-sweep": _cmd_gate_sweep,
    "certify": _cmd_certify,
}
COMMANDS = tuple(_DISPATCH)


def _output_error(outdir, exc: OSError) -> int:
    """Report an output directory or file that cannot be written; exit code 2."""
    print(f"output error: cannot write {exc.filename or outdir}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def run(command: str, config_path, out_dir=None, verbose: bool = False) -> int:
    """Execute one command; returns the process exit code."""
    if command not in _DISPATCH:
        print(f"unknown command: {command}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        config = load_config(config_path)
    except ConfigValidationError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    outdir = Path(out_dir or "gatedqdot-out")
    if verbose:
        print(f"[gatedqdot] {command} -> {outdir}", file=sys.stderr)
    try:
        results, artifacts = _DISPATCH[command](_Run(config))
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # written before the body is checked: a non-finite result keeps them
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, content in artifacts.items():
            if name.endswith(".csv"):
                _write_rows_csv(outdir / name, *content)
            else:
                _write_json(outdir / name, content)
    except OSError as exc:
        return _output_error(outdir, exc)

    body = {"command": command, "config": config.to_dict(), "results": results,
            "artifacts": list(artifacts)}
    try:
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"), allow_nan=False,
                               default=_json_default)
    except ValueError:
        print(f"numerical failure: {command} produced a non-finite result", file=sys.stderr)
        return 3
    report = dict(body)
    report["provenance"] = {
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - t0,
        "body_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    try:
        _write_json(outdir / "report.json", report)
    except OSError as exc:
        return _output_error(outdir, exc)
    if command == "certify":
        print(json.dumps(body["results"], indent=2, sort_keys=True, default=_json_default))
    if verbose:
        print(f"[gatedqdot] wrote report.json and {len(artifacts)} artifact(s)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gatedqdot",
        description="Spectral simulator and controllability certifier for a gated 2-D quantum device.",
        epilog=CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: ./gatedqdot-out)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.out, args.verbose)


if __name__ == "__main__":
    sys.exit(main())
