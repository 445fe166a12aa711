"""The package runs on the standard library alone: numpy, scipy and
networkx serve only as test oracles."""

import os
import re
import subprocess
import sys
from pathlib import Path

import aranlp

SRC = Path(aranlp.__file__).resolve().parent.parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

IMPORT_EVERYTHING = """
import importlib, pkgutil, sys
import aranlp, aranlp.cli
for module in pkgutil.walk_packages(aranlp.__path__, "aranlp."):
    importlib.import_module(module.name)
print(" ".join(sorted(name for name in sys.modules if name.split(".")[0] == "aranlp")))
print(" ".join(sorted(
    name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy", "networkx")
)))
"""


def test_importing_every_module_loads_no_oracle_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERYTHING],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded, oracle_modules = result.stdout.split("\n")[:2]
    assert {"aranlp.cli", "aranlp.synonymy", "aranlp.wsd"} <= set(loaded.split())
    assert oracle_modules == ""


def test_pyproject_declares_no_runtime_dependencies():
    text = PYPROJECT.read_text("utf-8")
    project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.MULTILINE)
