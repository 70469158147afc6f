"""Smoke test: the demos and the README example run to completion
against the package in src."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["01_dual_geometry.py", "03_gaussian_divergence_fit.py", "04_beta_mixture_mle.py"],
)
def test_demo_runs(demo, tmp_path):
    proc = _run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_converges(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = _run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Converged"), proc.stdout


def _run_python(args, cwd):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
    )
