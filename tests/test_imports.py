"""What the package loads: numpy, ``scipy.linalg`` (LAPACK) and
``scipy.special`` (the Beta mixture) are all a run reads, so importing
the package or running an experiment loads none of scipy's other
subpackages; only the validation suite's quadrature check loads
``scipy.integrate``.  Each case runs in a fresh interpreter, since this
process has imported whatever the other tests needed."""

import json

import pytest
from helpers import run_python

UNREAD = {
    "scipy.integrate",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.fft",
    "scipy.constants",
}

# the last line the child prints: every scipy module it has loaded
_REPORT = """
import json, sys
print(json.dumps([m for m in sys.modules if m.startswith("scipy.")]))
"""


def _loaded_scipy_subpackages(body, cwd):
    proc = run_python(["-c", body + _REPORT], cwd)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    return {".".join(m.split(".")[:2]) for m in modules}


@pytest.mark.parametrize(
    "body",
    [
        "import dualnewton",
        "import dualnewton.cli\n"
        "assert dualnewton.cli.main(['run', '--experiment', 'exp2', '--method',"
        " 'newton', '--alpha', '0.0', '--out', 'out']) == 0",
    ],
    ids=["import", "exp2-run"],
)
def test_a_run_loads_only_the_scipy_it_reads(body, tmp_path):
    loaded = _loaded_scipy_subpackages(body, tmp_path)
    assert {"scipy.linalg", "scipy.special"} <= loaded
    assert loaded.isdisjoint(UNREAD), sorted(loaded & UNREAD)


def test_validation_loads_the_quadrature_it_checks_against(tmp_path):
    body = "from dualnewton import run_validation\nassert run_validation()['passed']"
    assert "scipy.integrate" in _loaded_scipy_subpackages(body, tmp_path)
