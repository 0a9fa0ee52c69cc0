"""The identity oracle in tools/identity.py runs every command of the CLI."""

import importlib.util
from pathlib import Path

from gatedqdot import cli

ROOT = Path(__file__).resolve().parent.parent


def test_identity_tool_runs_every_command():
    path = ROOT / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.COMMANDS == cli.COMMANDS
