"""Smoke tests: every example script runs to completion at small scale.

The examples carry their own assertions (output equivalence, accuracy
floors); running them at the ``small`` scale keeps them fast while
still executing every code path they demonstrate.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.costmodel import get_cost_models

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))

# ``python -c CHILD <script> <cache_dir>``: loads the models the examples
# select with (device="h100", scale "small") from the session's files,
# then runs the script as ``python <script> small`` would
CHILD = """\
import os, runpy, sys
from repro.core.costmodel import get_cost_models
script, cache_dir = sys.argv[1:]
get_cost_models("h100", "small", cache_dir=cache_dir)
sys.argv, sys.path[0] = [script, "small"], os.path.dirname(script)
runpy.run_path(script, run_name="__main__")
"""


@pytest.fixture(scope="session")
def fitted_cost_model_dir(tmp_path_factory):
    """Cost-model files for child processes, written from this process's
    cache: a key some test already fitted is saved, not refitted."""
    root = tmp_path_factory.mktemp("cost_models")
    get_cost_models("h100", "small", cache_dir=root)
    return root


def test_all_examples_present():
    assert len(EXAMPLES) >= 5
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, fitted_cost_model_dir):
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(EXAMPLES_DIR / script), str(fitted_cost_model_dir)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, (
        f"{script} failed:\nstdout:\n{result.stdout[-2000:]}\n"
        f"stderr:\n{result.stderr[-2000:]}"
    )
