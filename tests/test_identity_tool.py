"""The identity oracle in tools/identity.py runs every command of the CLI."""

import importlib.util
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
