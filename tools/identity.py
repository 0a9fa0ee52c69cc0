"""Identity manifest of the CLI: every command on a fixed list of configs.

Usage: python tools/identity.py

Imports `gatedqdot` from this checkout's `src/` with one BLAS thread and,
in this one interpreter, calls `cli.main([COMMAND, "--config", ..., "--out",
...])` in a fresh temporary directory for each of the 11 commands on each
config below (64^2 grid unless a config sets its own, T = 0.1, 32^2 for
`nonlinear`).  Each run captures its own stdout and stderr and resets
the warnings state; an uncaught exception is exit 1 with the traceback
the interpreter would print.  For every run it records the exit code,
the last stderr line, the `body_sha256` of report.json and the sha256 of
every other file written to the output directory.

It rewrites tools/identity.json next to it: the Python, numpy and scipy
versions, then one line per run.  A change that keeps every output byte
leaves the committed manifest as it is:

    python tools/identity.py
    git diff --stat tools/identity.json

A change that moves bodies on purpose commits the new manifest, whose diff
names every run it moved.  The tool's own last stderr line gives the run
count and the total wall time.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MANIFEST = Path(__file__).resolve().with_name("identity.json")

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
    # a gate that snaps to i = 1 and i = nx - 1, next to both Dirichlet
    # sides, on a lattice that is not square
    "segment-corners": {
        **SEGMENT,
        "grid": {"nx": 64, "ny": 48},
        "gate": {"kind": "segment", "a": 0.03, "b": 3.11, "trace_mode": 2},
    },
    # the partial-gate benchmark's shape: trace mode 1 on a 256^2 lattice
    "segment-256": {
        **SEGMENT,
        "grid": {"nx": 256, "ny": 256},
        "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": 1},
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
    # by delta/2 the shifted levels at sorted positions 9/10, 14/15, 36/37 and
    # 48/49 have crossed and swapped modes: the pulse along (1, 1) -> (1, 3)
    # drives a wrong level
    "crossing-n3": {
        "gate": {"kind": "fourier_mode", "n": 3},
        "L": 1.5,
        "delta": 1.0,
        "truncation": 60,
        "dynamics": {"path": [[1, 1], [1, 3]]},
    },
}


def config_doc(name: str) -> dict:
    doc = {**BASE, **CONFIGS[name]}
    doc["dynamics"] = {**BASE["dynamics"], **CONFIGS[name].get("dynamics", {})}
    return doc


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def record(code: int, stderr: str, out: Path) -> dict:
    """The manifest line of a run that exited `code`, printed `stderr` and wrote `out`."""
    lines = stderr.strip().splitlines()
    entry = {"exit": code, "stderr_last": lines[-1] if lines else "", "artifacts": {}}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "report.json":
                entry["body_sha256"] = json.loads(path.read_text())["provenance"]["body_sha256"]
            else:
                entry["artifacts"][path.name] = sha256(path)
    return entry


def run_one(name: str, command: str, workdir: Path) -> dict:
    from gatedqdot import cli

    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config_doc(name)))
    out = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        except Exception as exc:
            traceback.print_exception(exc)
            code = 1
    return record(code, stderr.getvalue(), out)


def run_keys(keys):
    """Yield (key, record) for each "config/command" key, each run in a fresh temporary directory."""
    for key in keys:
        name, command = key.split("/")
        with tempfile.TemporaryDirectory() as tmp:
            yield key, run_one(name, command, Path(tmp))


def main() -> int:
    if sys.argv[1:]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from gatedqdot import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported gatedqdot from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    manifest = {
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    }
    start = time.perf_counter()
    for key, entry in run_keys(f"{name}/{command}" for name in CONFIGS for command in COMMANDS):
        manifest[key] = entry
        print(f"{key}: exit {entry['exit']}", file=sys.stderr)
    lines = (f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}" for key, entry in manifest.items())
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(manifest) - 1} runs in {time.perf_counter() - start:.1f} s wall", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
