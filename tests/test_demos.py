"""Smoke test: the demos and the README example run to completion
against the package in src."""

import re
from pathlib import Path

import pytest
from helpers import run_python

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    [
        "01_dual_geometry.py",
        "03_gaussian_divergence_fit.py",
        "04_beta_mixture_mle.py",
        "02_newton_vs_first_order.py",
        "05_descent_certificates.py",
    ],
)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_converges(tmp_path):
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Converged"), proc.stdout
