"""Identity manifest of the CLI: every command on a fixed list of configs.

Usage: python tools/identity.py SRC_DIR OUT.json

Runs `python -m gatedqdot COMMAND` with PYTHONPATH=SRC_DIR, one BLAS
thread, in a fresh temporary directory, for each of the 11 commands on
each config below (64^2 grid, T = 0.1, 32^2 for `nonlinear`).  For every
run it records the exit code, the last stderr line, the `body_sha256` of
report.json and the sha256 of every other file written to the output
directory.  The tool's own last stderr line gives the run count and the
total wall time.  The manifest is sorted JSON, so two source trees compare with

    python tools/identity.py parent/src parent.json
    python tools/identity.py src change.json
    diff parent.json change.json
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = (
    "spectrum", "potential", "coupling", "chain", "resonance",
    "shape-derivative", "evolve", "control", "nonlinear", "gate-sweep", "certify",
)

BASE = {
    "grid": {"nx": 64, "ny": 64},
    "dynamics": {"T": 0.1, "nonlinear_nx": 32, "nonlinear_ny": 32},
}
SERIES = {"kind": "sine_series", "coefficients": [1.0, -0.5, 0.25]}
SEGMENT = {"L": 1.03, "truncation": 60}

CONFIGS = {
    "fourier-n1-t20": {"gate": {"kind": "fourier_mode", "n": 1}, "truncation": 20},
    "fourier-n2-t30": {"gate": {"kind": "fourier_mode", "n": 2}, "truncation": 30},
    "fourier-n1-t30": {"gate": {"kind": "fourier_mode", "n": 1}, "truncation": 30},
    "fourier-n2-t20": {"gate": {"kind": "fourier_mode", "n": 2}, "truncation": 20},
    # the smallest window: one mode, so `control` cannot find mode (2, 1)
    "fourier-n2-t1": {"gate": {"kind": "fourier_mode", "n": 2}, "truncation": 1},
    "sine-series": {"gate": SERIES, "L": 1.07, "truncation": 20},
    "control-path": {
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 20,
        "control": {"samples": [[0.05, 0.1], [0.05, 0.2]]},
        "dynamics": {"path": [[1, 1], [2, 1]]},
    },
    # values that recur non-adjacently: 0.1 with its first duration, 0.2
    # with a new one
    "control-recur": {
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 20,
        "control": {"samples": [[0.05, 0.1], [0.05, 0.2], [0.05, 0.1], [0.03, 0.2]]},
    },
    # a one-mode path: `control` synthesizes an empty pulse, so it writes
    # control.csv (header only) and no trajectory
    "control-one-mode": {
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 20,
        "dynamics": {"path": [[1, 1]]},
    },
    # four alphas, so the alpha study runs all three logging modes, on a
    # control with a zero value and a repeated (duration, value) sample
    "nonlinear-logs": {
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 20,
        "control": {"samples": [[0.05, 0.0], [0.03, 0.2], [0.05, 0.0]]},
        "dynamics": {"T": 0.13, "alphas": [1e-3, 4e-3, 2e-2, 1e-1]},
    },
    # no population columns: the fully logged run keeps an empty (steps+1, 0) log
    "nonlinear-no-populations": {
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 20,
        "dynamics": {"log_populations": 0},
    },
    # a two-edge pulse whose edges each end on a remainder sample, with an
    # odd period whose middle sample is its own mirror image
    "chain-3mode": {
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 30,
        "dynamics": {"path": [[1, 1], [2, 1], [3, 1]], "samples_per_period": 41},
    },
    **{
        f"segment-trace{m}": {
            **SEGMENT, "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": m}
        }
        for m in (1, 2, 3)
    },
    # cosh(2 * 400) overflows in the segment's trace
    "segment-overflow": {
        "L": 400.0, "truncation": 1, "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": 2}
    },
    "fourier-n700": {"gate": {"kind": "fourier_mode", "n": 700}},
    "fourier-n3-t400": {"gate": {"kind": "fourier_mode", "n": 3}, "truncation": 400},
    "sine-series-t400": {"gate": SERIES, "L": 1.07, "truncation": 400},
    # criterion 05 at rho = 0: exact resonances of the unshifted rectangle
    "resonant-rho0": {
        "gate": {"kind": "fourier_mode", "n": 1},
        "truncation": 40,
        "rho": 0.0,
        "tolerances": {"resonance": 1e-6},
    },
    # the square at rho = 0: over 10**6 weak non-resonance violations,
    # more than one chunk of the scan
    "resonant-square-t200": {
        "gate": {"kind": "fourier_mode", "n": 1},
        "L": math.pi,
        "truncation": 200,
        "rho": 0.0,
        "tolerances": {"resonance": 1e-6},
    },
    # L = pi: a square, with exact eigenvalue ties
    "square-L-pi": {"gate": {"kind": "fourier_mode", "n": 2}, "L": math.pi, "truncation": 30},
    # mode (1, 1) lies within the simplicity tolerance 5 of (2, 1): not simple
    "shape-simplicity-tol": {"tolerances": {"simplicity": 5.0}, "shape": {"mode": [1, 1]}},
}


def config_doc(name: str) -> dict:
    doc = {**BASE, **CONFIGS[name]}
    doc["dynamics"] = {**BASE["dynamics"], **CONFIGS[name].get("dynamics", {})}
    return doc


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_one(src: Path, name: str, command: str, workdir: Path) -> dict:
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config_doc(name)))
    out = workdir / "out"
    env = {k: v for k, v in os.environ.items() if k != "GATEDQDOT_OUT"}
    env.update(PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "gatedqdot", command, "--config", str(cfg), "--out", str(out)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stderr.strip().splitlines()
    record = {"exit": proc.returncode, "stderr_last": lines[-1] if lines else "", "artifacts": {}}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "report.json":
                record["body_sha256"] = json.loads(path.read_text())["provenance"]["body_sha256"]
            else:
                record["artifacts"][path.name] = sha256(path)
    return record


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "gatedqdot" / "__init__.py").is_file():
        print(f"error: no gatedqdot package under {src}", file=sys.stderr)
        return 2
    manifest = {}
    start = time.perf_counter()
    for name in CONFIGS:
        for command in COMMANDS:
            key = f"{name}/{command}"
            with tempfile.TemporaryDirectory() as tmp:
                manifest[key] = run_one(src, name, command, Path(tmp))
            print(f"{key}: exit {manifest[key]['exit']}", file=sys.stderr)
    with open(argv[1], "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(manifest)} runs in {time.perf_counter() - start:.1f} s wall", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
