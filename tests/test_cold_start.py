"""No command loads scipy.fft or scipy.special, and closed-form commands
never load scipy.sparse or concurrent.futures either.

Nothing in the package imports scipy.fft (which pulls in scipy.special):
lattice couplings are cosine sums, and the nonlinear flow's transforms are
dense tables.  scipy.sparse (which pulls in concurrent.futures) is imported
inside the finite-difference solve, and concurrent.futures (which pulls in
logging) inside the alpha study, for its thread pool.  Each check runs in a
fresh interpreter, because this test process has long imported all four.
"""

import json
import os
import subprocess
import sys
from pathlib import Path


SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.fft", "scipy.special", "scipy.sparse", "concurrent.futures")

# runs each (command, config) through cli.run, then reports the exit codes
# and which of HEAVY are in sys.modules
PROBE = """
import json, sys
from gatedqdot import cli
jobs = json.loads(sys.argv[1])
codes = [cli.run(command, config, out) for command, config, out in jobs]
print(json.dumps({"codes": codes, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)

CLOSED_FORM = {"gate": {"kind": "fourier_mode", "n": 2}, "truncation": 20}
NONLINEAR = {**CLOSED_FORM, "dynamics": {"T": 0.01, "nonlinear_nx": 16, "nonlinear_ny": 16}}
SEGMENT = {
    "gate": {"kind": "segment", "a": 0.6, "b": 2.2, "trace_mode": 2},
    "grid": {"nx": 64, "ny": 64},
    "truncation": 20,
}


def probe(tmp_path, *jobs):
    args = []
    for k, (command, doc) in enumerate(jobs):
        config = tmp_path / f"config{k}.json"
        config.write_text(json.dumps(doc))
        args.append((command, str(config), str(tmp_path / f"out{k}")))
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(args)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_leaves_heavy_modules_unloaded(tmp_path):
    assert probe(tmp_path) == {"codes": [], "loaded": []}


def test_closed_form_certify_and_control_leave_heavy_modules_unloaded(tmp_path):
    result = probe(tmp_path, ("certify", CLOSED_FORM), ("control", CLOSED_FORM))
    assert result == {"codes": [0, 0], "loaded": []}


def test_nonlinear_leaves_scipy_fft_unloaded(tmp_path):
    # the alpha study's thread pool is the only heavy module it loads
    result = probe(tmp_path, ("nonlinear", NONLINEAR))
    assert result == {"codes": [0], "loaded": ["concurrent.futures"]}


def test_segment_coupling_and_certify_leave_scipy_fft_unloaded(tmp_path):
    result = probe(tmp_path, ("coupling", SEGMENT), ("certify", SEGMENT))
    assert result["codes"] == [0, 0]
    assert "scipy.sparse" in result["loaded"]
    assert "scipy.fft" not in result["loaded"] and "scipy.special" not in result["loaded"]
