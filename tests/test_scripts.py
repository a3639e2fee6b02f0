"""The experiment scripts and the README example run end to end."""

import os
import re
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
    ("lattice_sweep.py", ("--sites", "4"), "log-MAN"),
])
def test_script_exits_cleanly(name, args, marker):
    proc = _run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout


def test_readme_quick_start(capsys):
    # the README's python example runs as written and prints the values it claims
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    exact, oracle = capsys.readouterr().out.splitlines()
    s, s2 = (float(x) for x in exact.split()[:2])
    assert abs(s - 0.75) <= 1e-12 and abs(s2 - 2.0) <= 1e-12
    estimate, std_error = (float(x) for x in oracle.split())
    assert abs(estimate - s) <= 5 * std_error
