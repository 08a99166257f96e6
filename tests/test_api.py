"""Public API guard: the demos use only names the package exports, and run."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import mhroots

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_import_only_exported_names():
    assert len(DEMOS) >= 5
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text(), filename=str(demo))):
            if not isinstance(node, ast.ImportFrom) or (node.module or "").split(".")[0] != "mhroots":
                continue
            for alias in node.names:
                if node.module == "mhroots":
                    assert alias.name in mhroots.__all__, f"{demo.name}: {alias.name}"
                else:
                    assert hasattr(importlib.import_module(node.module), alias.name), (
                        f"{demo.name}: {node.module}.{alias.name}"
                    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
