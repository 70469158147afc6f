"""What the package loads.  The runs call four LAPACK routines, which
``linalg`` takes from scipy's compiled ``scipy.linalg._flapack``, loaded
from its file: importing the package, or running exp1 or exp2, loads
that one module of scipy and none of the ``scipy`` and ``scipy.linalg``
package imports, whose array-API layer would bring in ``numpy.f2py``,
``numpy.testing`` and ``unittest``.  The Beta mixture loads
``scipy.special._special_ufuncs`` the same way when it is built, so an
exp3 run loads that one module more and not the ``scipy.special``
package; a later ``import scipy.special`` exports the very functions
the mixture binds.  Only the validation suite's quadrature check loads
``scipy.integrate``.  Each case runs in a fresh interpreter, since this
process has imported whatever the other tests needed."""

import json

import pytest
from helpers import run_python

UNREAD = {
    "scipy._lib._array_api",
    "scipy.special",
    "numpy.f2py",
    "numpy.testing",
    "unittest",
}

# the last line the child prints: every module it has loaded
_REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_modules(body, cwd):
    proc = run_python(["-c", body + _REPORT], cwd)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _scipy_modules(loaded):
    return {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def _run(*args):
    """A child body that runs one experiment through the CLI."""
    argv = ["run", *args, "--out", "out"]
    return f"import dualnewton.cli\nassert dualnewton.cli.main({argv!r}) == 0\n"


@pytest.mark.parametrize(
    "body",
    [
        "import dualnewton",
        _run("--experiment", "exp1", "--method", "newton", "--alpha", "0.0"),
        _run("--experiment", "exp2", "--method", "newton", "--alpha", "0.0"),
    ],
    ids=["import", "exp1-run", "exp2-run"],
)
def test_a_run_loads_only_the_scipy_it_reads(body, tmp_path):
    loaded = _loaded_modules(body, tmp_path)
    assert _scipy_modules(loaded) == {"scipy.linalg._flapack"}
    assert loaded.isdisjoint(UNREAD), sorted(loaded & UNREAD)


def test_an_exp3_run_loads_the_special_functions_of_its_mixture(tmp_path):
    body = _run(
        "--experiment", "exp3", "--method", "adam", "--max-iters", "3",
        "--n-samples", "200", "--quad-nodes", "16",
    )
    loaded = _loaded_modules(body, tmp_path)
    assert _scipy_modules(loaded) == {
        "scipy.linalg._flapack",
        "scipy.special._special_ufuncs",
    }
    assert loaded.isdisjoint(UNREAD), sorted(loaded & UNREAD)


def test_the_mixture_binds_the_functions_scipy_special_exports(tmp_path):
    # scipy.special, imported after a mixture is built, takes the module
    # object the mixture loaded: its digamma and betaln are the bound ones
    body = (
        "import sys\nfrom dualnewton.experiments import gen_dataset\n"
        "model, _ = gen_dataset(n_samples=10, quad_nodes=4)\n"
        "assert 'scipy.special' not in sys.modules\n"
        "import scipy.special\n"
        "assert model._digamma is scipy.special.digamma\n"
        "assert model._betaln is scipy.special.betaln\n"
        "assert model._zeta is sys.modules['scipy.special._special_ufuncs']._zeta\n"
    )
    proc = run_python(["-c", body], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_validation_loads_the_quadrature_it_checks_against(tmp_path):
    body = "from dualnewton import run_validation\nassert run_validation()['passed']"
    assert "scipy.integrate" in _loaded_modules(body, tmp_path)


def test_the_package_calls_the_routines_scipy_linalg_exports(tmp_path):
    # scipy.linalg, imported after the package, takes the module object
    # the package loaded, so the bit tests in test_linalg.py compare
    # against the very routines the runs call
    body = (
        "import sys\nimport dualnewton\nimport scipy.linalg.lapack\n"
        "ours = dualnewton.linalg.lapack\n"
        "assert sys.modules['scipy.linalg._flapack'] is ours\n"
        "for name in ('dtrtrs', 'dgetrf', 'dgetrs', 'dpotrf'):\n"
        "    assert getattr(ours, name) is getattr(scipy.linalg.lapack, name), name\n"
    )
    proc = run_python(["-c", body], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_missing_lapack_module_fails_the_import_and_names_the_file(tmp_path):
    # the loader takes the interpreter's first extension suffix
    body = (
        "import importlib.machinery\n"
        "importlib.machinery.EXTENSION_SUFFIXES.insert(0, '.absent.so')\n"
        "import dualnewton\n"
    )
    proc = run_python(["-c", body], tmp_path)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert "_flapack.absent.so" in proc.stderr
