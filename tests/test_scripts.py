"""The experiment scripts run end to end on the estimators they drive."""

import os
import subprocess
import sys

import pytest

import manlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    src = os.path.dirname(os.path.dirname(manlab.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name, args, marker", [
    ("markov_grid.py", ("--samples", "20", "--state-samples", "2"), "Pr[d >= eps]"),
    ("protocol_accuracy.py", ("--seed", "3"), "direct oracle"),
])
def test_script_exits_cleanly(name, args, marker):
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
