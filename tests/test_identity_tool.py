"""The identity oracle in tools/identity.py runs every command of the CLI."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatedqdot import cli
from gatedqdot.config import validate_config

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    path = ROOT / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = load_tool()


def test_identity_tool_runs_every_command():
    assert TOOL.COMMANDS == cli.COMMANDS


@pytest.mark.parametrize("name", TOOL.CONFIGS)
def test_identity_configs_are_valid(name):
    validate_config(TOOL.config_doc(name))


def test_loading_the_tool_keeps_the_environment():
    before = dict(os.environ)
    load_tool()
    assert dict(os.environ) == before


def test_manifest_has_every_run():
    manifest = json.loads(TOOL.MANIFEST.read_text())
    assert set(manifest.pop("versions")) == {"python", "numpy", "scipy"}
    assert list(manifest) == [f"{name}/{command}" for name in TOOL.CONFIGS for command in TOOL.COMMANDS]


def test_uncaught_exception_is_exit_1(tmp_path, monkeypatch):
    def boom(argv):
        print("partial output")
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "main", boom)
    stdout, stderr = sys.stdout, sys.stderr
    record = TOOL.run_one("fourier-n2-t20", "spectrum", tmp_path)
    assert record == {"exit": 1, "stderr_last": "RuntimeError: boom", "artifacts": {}}
    assert sys.stdout is stdout and sys.stderr is stderr


def child_env():
    """The environment of a fresh interpreter on this checkout, with one BLAS thread as the tool sets."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return env


def subprocess_record(name, command, workdir):
    """The record of one run of `python -m gatedqdot` in a fresh interpreter."""
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(TOOL.config_doc(name)))
    out = workdir / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "gatedqdot", command, "--config", str(cfg), "--out", str(out)],
        cwd=workdir, env=child_env(), capture_output=True, text=True, timeout=300,
    )
    return TOOL.record(proc.returncode, proc.stderr, out)


@pytest.mark.parametrize(
    "key, code",
    [("fourier-n2-t20/certify", 0), ("fourier-n2-t1/control", 2), ("segment-overflow/certify", 3)],
)
def test_in_process_run_matches_a_fresh_interpreter(tmp_path, key, code):
    name, command = key.split("/")
    (tmp_path / "in").mkdir()
    (tmp_path / "sub").mkdir()
    record = TOOL.run_one(name, command, tmp_path / "in")
    assert record["exit"] == code
    assert record == subprocess_record(name, command, tmp_path / "sub")


# every manifest run that reaches the finite-difference partial-gate solver
FD_RUNS = [
    *(
        f"{name}/{command}"
        for name in ("segment-trace1", "segment-trace2", "segment-trace3", "segment-corners")
        for command in ("potential", "coupling", "certify")
    ),
    "fourier-n2-t30/gate-sweep",
    "segment-overflow/certify",
    "segment-256/certify",
]

REPLAY = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("identity_tool", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
print(json.dumps(dict(tool.run_keys(sys.argv[2:]))))
"""


# every manifest run of the bilinear layer: the pulse and the propagator
BILINEAR_RUNS = [f"{name}/{command}" for name in TOOL.CONFIGS for command in ("evolve", "control")]


# every manifest run of the nonlinear layer: the Strang flows of the alpha study
NONLINEAR_RUNS = [f"{name}/nonlinear" for name in TOOL.CONFIGS]


# every manifest run of the certify side: the bytes that name modes, read
# shifted spectra and take the shape derivative
CERTIFY_RUNS = [
    f"{name}/{command}"
    for name in TOOL.CONFIGS
    for command in ("spectrum", "shape-derivative", "resonance", "certify")
]


def assert_replay(keys):
    """Rerun `keys` through the tool in one fresh interpreter; each record must match the manifest."""
    import numpy
    import scipy

    manifest = json.loads(TOOL.MANIFEST.read_text())
    running = {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}
    if manifest["versions"] != running:
        pytest.skip(f"manifest written with {manifest['versions']}, running {running}")
    proc = subprocess.run(
        [sys.executable, "-c", REPLAY, str(ROOT / "tools" / "identity.py"), *keys],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {key: manifest[key] for key in keys}


def test_fd_runs_replay_the_manifest():
    assert_replay(FD_RUNS)


def test_bilinear_runs_replay_the_manifest():
    assert_replay(BILINEAR_RUNS)


def test_nonlinear_runs_replay_the_manifest():
    assert_replay(NONLINEAR_RUNS)


def test_certify_runs_replay_the_manifest():
    assert len(CERTIFY_RUNS) == 104
    assert_replay(CERTIFY_RUNS)
