"""Smoke test: the demos run to completion against the package in src."""

import os
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
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))),
    )
    assert proc.returncode == 0, proc.stderr
