"""Each engine module imports cleanly when it is the first one loaded."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import brauerval

SRC = pathlib.Path(brauerval.__file__).resolve().parent.parent

# records which brauerval submodule the import system looks for first
FIRST_LOADED = """
import sys

class Spy:
    order = []

    def find_spec(self, name, path=None, target=None):
        if name.startswith("brauerval."):
            Spy.order.append(name)

sys.meta_path.insert(0, Spy())
import brauerval.{module}
print(Spy.order[0])
"""


@pytest.mark.parametrize(
    "module",
    [
        "cli", "scenario", "verify", "division", "towers", "symbols", "lattices", "report",
        "errors", "__main__",
    ],
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # a cycle shows only in some import orders; the package root imports nothing,
    # so each module runs its own imports from a cold start here
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", FIRST_LOADED.format(module=module)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"brauerval.{module}"


# prints the top-level names of the modules that importing the CLI loads
NEWLY_LOADED = """
import sys

before = set(sys.modules)
import brauerval.cli
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_cli_needs_nothing_outside_the_standard_library():
    # the package declares no runtime dependencies, so nothing else may load
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", NEWLY_LOADED], capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "brauerval" in loaded
    assert loaded - {"brauerval"} <= set(sys.stdlib_module_names), loaded


def test_cli_start_up_loads_no_code_generation_or_introspection_module():
    # every CLI process pays for what importing the CLI loads; records are built
    # without dataclasses, and a verifier's defaults are read without inspect
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", NEWLY_LOADED],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "brauerval" in loaded
    unwanted = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize", "copy"}
    assert not loaded & unwanted, sorted(loaded & unwanted)
