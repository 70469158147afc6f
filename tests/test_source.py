"""Static checks over the package source."""

import ast
import re
from pathlib import Path

import dualnewton
from dualnewton import errors

PACKAGE = Path(dualnewton.__file__).parent
REPO = Path(__file__).resolve().parents[1]

# imported but not called, each marked ``# noqa: F401``: the benchmark's
# tracer test checks that installing the tracer rebinds these names
KEPT_IMPORTS = {
    ("geometry.py", "solve_spd"),
    ("optimizers.py", "solve_spd"),
    ("models/betamix.py", "solve_spd"),
    ("models/loglinear.py", "solve_spd"),
}


def _imported_names(tree):
    """(name bound by the import, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (name, line) for name, line in _imported_names(tree) if name not in used
    ]


def test_no_module_imports_a_name_it_does_not_use():
    # an __init__ imports names to re-export them
    unused = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.relative_to(PACKAGE).as_posix()
        names = [
            (name, line)
            for name, line in _unused_imports(path)
            if (module, name) not in KEPT_IMPORTS
        ]
        if names:
            unused[module] = names
    assert unused == {}


def test_the_kept_imports_are_still_unused():
    # an exception that no longer applies is dropped from the list
    for module, name in KEPT_IMPORTS:
        assert name in {unused for unused, _ in _unused_imports(PACKAGE / module)}


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import os\nimport numpy as np\nfrom .geometry import a, b\n\n"
        "def f():\n    return np.zeros(a)\n"
    )
    assert _unused_imports(module) == [("os", 1), ("b", 3)]


# G is factored and solved against only where the geometry is evaluated:
# in linalg, in geometry's DualPoint and in the models' passes and
# points.  An objective or an optimizer asks the model's point instead,
# so each point has one factor of G, taken in one place.
FACTOR_NAMES = {"cholesky_lower", "solve_spd", "spd_factor", "cho_solve"}


def _factor_imports(path):
    """(name, line) of each import of a ``FACTOR_NAMES`` name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(name, line) for name, line in _imported_names(tree) if name in FACTOR_NAMES]


def _factoring_modules(package):
    """module: (name, line) of each module outside linalg, geometry and
    the models that imports a factor or a solve against G, apart from
    the ``KEPT_IMPORTS``; an ``__init__`` only re-exports."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if path.name == "__init__.py" or module.startswith("models/"):
            continue
        if module in ("linalg.py", "geometry.py"):
            continue
        names = [
            (name, line)
            for name, line in _factor_imports(path)
            if (module, name) not in KEPT_IMPORTS
        ]
        if names:
            found[module] = names
    return found


def test_only_the_geometry_and_the_models_factor_or_solve_against_g():
    assert _factoring_modules(PACKAGE) == {}


def test_an_objective_module_that_solves_against_g_is_found(tmp_path):
    package = tmp_path / "package"
    (package / "models").mkdir(parents=True)
    (package / "__init__.py").write_text("from .linalg import solve_spd\n")
    (package / "linalg.py").write_text("def solve_spd(A, b):\n    return b\n")
    (package / "models" / "gaussian.py").write_text(
        "from ..linalg import cholesky_lower, solve_spd\n"
    )
    (package / "optimizers.py").write_text("from .linalg import solve_spd\n")
    (package / "objectives.py").write_text(
        "import numpy as np\nfrom .linalg import fd_jacobian, solve_spd\n"
    )
    # only the objective is named: the optimizers' import is a kept one
    assert _factoring_modules(package) == {"objectives.py": [("solve_spd", 2)]}


# Every factor of G is a checked one: only linalg calls the bare
# ``cholesky_lower``, inside ``spd_factor``, which checks G once first.
def _bare_factor_calls(package):
    """module: lines where a module other than linalg calls
    ``cholesky_lower``, by its name or as an attribute."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if module == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = sorted(
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "cholesky_lower"
        )
        if lines:
            found[module] = lines
    return found


def test_only_linalg_calls_the_bare_cholesky_factor():
    assert _bare_factor_calls(PACKAGE) == {}


def test_a_model_that_factors_g_unchecked_is_found(tmp_path):
    package = tmp_path / "package"
    (package / "models").mkdir(parents=True)
    (package / "linalg.py").write_text(
        "def cholesky_lower(A):\n    return A\n\n\n"
        "def spd_factor(A):\n    return cholesky_lower(A)\n"
    )
    (package / "models" / "betamix.py").write_text(
        "from ..linalg import spd_factor\n\n\n"
        "def L(G):\n    return spd_factor(G)\n"
    )
    (package / "models" / "loglinear.py").write_text(
        "from .. import linalg\nfrom ..linalg import cholesky_lower\n\n\n"
        "def L(G):\n    return cholesky_lower(G)\n\n\n"
        "def again(G):\n    return linalg.cholesky_lower(G)\n"
    )
    # linalg's own call and the checked factor pass; both bare calls are found
    assert _bare_factor_calls(package) == {"models/loglinear.py": [6, 10]}


# A DualPoint is made in one place, ``DualStructure.at``, around the
# model's evaluation at xi; a model implements only that evaluation (G,
# its factor L, solve(b) and connection(alpha, a)) and never sees the point.
def _dual_point_uses(package):
    """module: lines where a module other than geometry constructs a
    DualPoint, or a model imports it."""
    found = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        if module == "geometry.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "DualPoint":
                    lines.append(node.lineno)
            elif isinstance(node, ast.ImportFrom) and module.startswith("models/"):
                if any(alias.name == "DualPoint" for alias in node.names):
                    lines.append(node.lineno)
        if lines:
            found[module] = sorted(lines)
    return found


def test_only_the_geometry_makes_a_dual_point():
    assert _dual_point_uses(PACKAGE) == {}


def test_a_model_that_makes_a_dual_point_is_found(tmp_path):
    package = tmp_path / "package"
    (package / "models").mkdir(parents=True)
    (package / "__init__.py").write_text("from .geometry import DualPoint\n")
    (package / "geometry.py").write_text(
        "class DualPoint:\n    pass\n\n\n"
        "def at(structure, xi):\n    return DualPoint(structure, xi, None)\n"
    )
    (package / "models" / "gaussian.py").write_text(
        "from ..geometry import DualStructure\n"
        "from ..geometry import DualPoint as Point\n\n\n"
        "def point(structure, xi):\n    return Point(structure, xi, None)\n"
    )
    (package / "optimizers.py").write_text(
        "from . import geometry\n\n\n"
        "def point(structure, xi):\n    return geometry.DualPoint(structure, xi, None)\n"
    )
    # the package re-exports DualPoint and geometry makes it; the model's
    # import is found, and the optimizers' construction
    assert _dual_point_uses(package) == {
        "models/gaussian.py": [2],
        "optimizers.py": [5],
    }


# A point holds only what a run reads: its metric, its factor, the point
# at its own xi, the solve against G and Newton's two contractions of the
# connection, ``dual_dot`` and ``quad``.  The full symbols, which only the
# structural checks read, are the structure's ``gamma``.
POINT_SURFACE = {"G", "L", "at", "solve", "dual_dot", "quad"}


def _class_methods(path, name):
    """The methods and properties, private ones too, that the module's
    class ``name`` defines in its body, by ``def`` or by assignment."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            defined = set()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.add(item.name)
                elif isinstance(item, ast.Assign):
                    defined.update(t.id for t in item.targets if isinstance(t, ast.Name))
            return defined
    return None


def test_a_point_holds_only_what_a_run_reads():
    assert _class_methods(PACKAGE / "geometry.py", "DualPoint") == POINT_SURFACE


def test_a_point_method_beyond_the_run_reads_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass DualPoint:\n"
        "    xi: object\n\n"
        "    @property\n    def G(self):\n        return self.xi\n\n"
        "    def _symbols(self, alpha):\n        return alpha\n\n"
        "    @lazy\n    def gamma(self):\n        return self._symbols(1.0)\n\n"
        "    gamma_dual = property(lambda self: self._symbols(-1.0))\n"
    )
    # the field is not a method; the property, the private helper, the
    # lazy attribute and the assigned property are
    assert _class_methods(module, "DualPoint") == {"G", "_symbols", "gamma", "gamma_dual"}
    assert _class_methods(module, "DualStructure") is None


# A trial candidate is rejected in one place: ``_evaluate`` forms the
# point and evaluates it inside one guard.  The loop and the functions
# that build a trial or form its point catch nothing, so an error that
# the guard does not name stops the run instead of being taken for a
# rejection.
UNGUARDED_FUNCTIONS = {"_iterate", "trial", "record", "pullback"}


def _guarded_trial_code(path):
    """(function, line) of each ``try`` inside a function, nested or
    not, named in ``UNGUARDED_FUNCTIONS``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in UNGUARDED_FUNCTIONS:
            found.update(
                (node.name, inner.lineno)
                for inner in ast.walk(node)
                if isinstance(inner, (ast.Try, ast.TryStar))
            )
    return sorted(found, key=lambda entry: entry[1])


def test_the_loop_and_the_trial_builders_hold_no_try():
    assert _guarded_trial_code(PACKAGE / "optimizers.py") == []


def test_a_try_in_the_loop_or_a_trial_builder_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def _iterate(trial):\n"
        "    try:\n        return trial(1.0)\n    except ValueError:\n        return None\n\n\n"
        "def propose(curve):\n"
        "    def pullback(s):\n"
        "        try:\n            return curve(s)\n        finally:\n            pass\n\n"
        "    try:\n        return pullback\n    except ValueError:\n        return None\n\n\n"
        "def _evaluate(form):\n"
        "    try:\n        return form()\n    except ValueError:\n        return None\n"
    )
    # propose's own try and _evaluate's guard are allowed
    assert _guarded_trial_code(module) == [("_iterate", 2), ("pullback", 10)]


# A point is usable by one finiteness rule, the loop's per-point
# record's: ``_Evaluation`` refuses a non-finite value or gradient where
# it is made and a non-finite norm where it is measured.  No other code
# in the loop tests a record's value, gradient or norm for finiteness,
# so the start and the trials cannot disagree on a point.
RECORD_FIELDS = {"f", "grad", "l2"}


def _finiteness_reads_outside_the_record(path):
    """(field, line) of each ``isfinite`` call, or call that passes
    ``isfinite`` on, outside the ``_Evaluation`` class that reads a
    ``RECORD_FIELDS`` attribute in its arguments."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and top.name == "_Evaluation":
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            names = {
                getattr(named, "id", getattr(named, "attr", None))
                for named in (node.func, *node.args)
            }
            if "isfinite" not in names:
                continue
            found.update(
                (inner.attr, node.lineno)
                for arg in node.args
                for inner in ast.walk(arg)
                if isinstance(inner, ast.Attribute) and inner.attr in RECORD_FIELDS
            )
    return sorted(found, key=lambda entry: (entry[1], entry[0]))


def test_only_the_record_tests_a_records_finiteness():
    assert _finiteness_reads_outside_the_record(PACKAGE / "optimizers.py") == []


def test_a_finiteness_test_of_a_record_outside_it_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import math\n\nimport numpy as np\n\n\n"
        "class _Evaluation:\n"
        "    def __init__(self, f):\n"
        "        self.f = f\n        assert math.isfinite(self.f)\n\n\n"
        "def usable(record, slope):\n"
        "    if not all(map(math.isfinite, record.grad.tolist())):\n"
        "        return None\n"
        "    if math.isfinite(slope) and np.isfinite(record.a).all():\n"
        "        return record\n"
        "    return record if math.isfinite(record.l2 + record.f) else None\n"
    )
    # the record's own test, a plain value and a field outside the rule
    # pass
    assert _finiteness_reads_outside_the_record(module) == [
        ("grad", 13),
        ("f", 17),
        ("l2", 17),
    ]


# The failure policy is stated once, by the exceptions' categories in
# errors.py: a guard in the run loop or the drivers catches PointError,
# DomainError or NumericalError, never a list of concrete classes that
# has to be kept in step with the models.
CATEGORY_GUARDED = ("optimizers.py", "experiments.py")
CATEGORIES = (errors.PointError, errors.DomainError, errors.NumericalError)
CONCRETE_POINT_ERRORS = {
    name
    for name, value in vars(errors).items()
    if isinstance(value, type)
    and issubclass(value, errors.PointError)
    and value not in CATEGORIES
}


def _concrete_point_error_handlers(path):
    """(name, line) of each concrete PointError class that an ``except``
    clause of the module names, bare or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for inner in ast.walk(node.type):
                name = getattr(inner, "id", getattr(inner, "attr", None))
                if name in CONCRETE_POINT_ERRORS:
                    found.append((name, node.lineno))
    return sorted(found, key=lambda entry: entry[1])


def test_the_guards_catch_the_point_error_categories():
    found = {
        module: names
        for module in CATEGORY_GUARDED
        if (names := _concrete_point_error_handlers(PACKAGE / module))
    }
    assert found == {}


def test_a_guard_that_names_a_concrete_point_error_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from . import errors\n"
        "from .errors import DimensionMismatch, DomainViolation, PointError\n\n\n"
        "def f(g):\n"
        "    try:\n        return g()\n    except PointError:\n        return None\n"
        "    except (errors.SingularMatrix, DimensionMismatch):\n        raise\n"
        "    except DomainViolation as exc:\n        raise ValueError() from exc\n"
    )
    # the category and an error outside PointError are allowed
    assert _concrete_point_error_handlers(module) == [
        ("SingularMatrix", 10),
        ("DomainViolation", 12),
    ]


# The per-point path calls reductions in method form: np.max, np.sum and
# the like dispatch through Python wrappers that cost several times the
# reduction itself on the short arrays of a pass.
METHOD_FORM_MODULES = (
    "linalg.py",
    "objectives.py",
    "optimizers.py",
    "geometry.py",
    "models/loglinear.py",
    "models/betamix.py",
    "models/gaussian.py",
)
FUNCTION_FORM_REDUCTIONS = {"max", "min", "sum", "all", "any"}


def _function_form_reductions(path):
    """(name, line) of each ``np.<reduction>(...)`` call in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        (node.func.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in FUNCTION_FORM_REDUCTIONS
    )


def test_the_per_point_modules_reduce_in_method_form():
    found = {
        module: calls
        for module in METHOD_FORM_MODULES
        if (calls := _function_form_reductions(PACKAGE / module))
    }
    assert found == {}


def test_a_function_form_reduction_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\n\n"
        "def f(u):\n"
        "    return np.max(u) + u.sum() + np.maximum(u, 0).min() + np.any(u)\n"
    )
    assert _function_form_reductions(module) == [("any", 4), ("max", 4)]


# The package imports of scipy.linalg and scipy.special load hundreds of
# modules that no run reads: linalg loads the compiled LAPACK module,
# and the Beta mixture its special functions' compiled module, from its
# file.  An import inside a function runs only when it is called, so it
# stays allowed.
HEAVY_PACKAGES = ("scipy.linalg", "scipy.special")


def _module_level_imports(path):
    """(module, line) of each import of a ``HEAVY_PACKAGES`` package or
    one of its submodules that runs when the module itself is imported:
    anywhere but inside a function body."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def heavy(name):
        return any(name == p or name.startswith(p + ".") for p in HEAVY_PACKAGES)

    found = []
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # ``from scipy import special`` imports scipy.special
            names = [node.module]
            if not heavy(node.module):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
        found.extend((name, node.lineno) for name in names if heavy(name))
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(found, key=lambda entry: entry[1])


def test_no_module_imports_scipy_linalg_or_special_at_module_level():
    found = {
        path.relative_to(PACKAGE).as_posix(): imports
        for path in sorted(PACKAGE.rglob("*.py"))
        if (imports := _module_level_imports(path))
    }
    assert found == {}


def test_a_module_level_scipy_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy as np\nimport scipy\nfrom scipy.linalg import lapack\n"
        "import scipy.special as sc\nfrom scipy import special, integrate\n\n"
        "try:\n    import scipy.linalg.blas\nexcept ImportError:\n    pass\n\n\n"
        "def f():\n    from scipy.special import polygamma\n\n    return polygamma\n\n\n"
        "class A:\n    from scipy.special import digamma\n\n"
        "    def g(self):\n        import scipy.linalg\n"
    )
    # a class body runs on import; the imports in f and g only when called
    assert _module_level_imports(module) == [
        ("scipy.linalg", 3),
        ("scipy.special", 4),
        ("scipy.special", 5),
        ("scipy.linalg.blas", 8),
        ("scipy.special", 20),
    ]


# Python 3.11's functools.cached_property takes a lock on every first
# read, several times the cost of the lock-free ``geometry.lazy`` that
# the per-point records use instead.
def _cached_property_uses(path):
    """Lines where the module imports or reads ``cached_property``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "cached_property" for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "cached_property") or (
            isinstance(node, ast.Attribute) and node.attr == "cached_property"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_uses_functools_cached_property():
    found = {
        path.relative_to(PACKAGE).as_posix(): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _cached_property_uses(path))
    }
    assert found == {}


def test_a_cached_property_use_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import functools\nfrom functools import cache, cached_property\n\n"
        "class A:\n"
        "    @functools.cached_property\n    def x(self):\n        return 1\n\n"
        "    @cache\n    def y(self):\n        return 2\n"
    )
    assert _cached_property_uses(module) == [2, 5]


# A point memo is a ``functools.lru_cache`` keyed by the point's bytes,
# whose ``cache_info()`` counts its hits and misses: no module keeps an
# ``OrderedDict`` of points and evicts from it by hand.
HAND_EVICTION = {"popitem", "move_to_end"}


def _hand_written_memos(path):
    """Lines where the module imports or reads ``OrderedDict`` or calls
    ``.popitem(...)`` or ``.move_to_end(...)``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "OrderedDict" for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "OrderedDict") or (
            isinstance(node, ast.Attribute) and node.attr == "OrderedDict"
        ):
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in HAND_EVICTION
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_keeps_a_hand_written_point_memo():
    found = {
        path.relative_to(PACKAGE).as_posix(): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _hand_written_memos(path))
    }
    assert found == {}


def test_a_hand_written_point_memo_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import collections\nfrom collections import OrderedDict, deque\n"
        "from functools import lru_cache\n\n"
        "_memo = collections.OrderedDict()\n\n\n"
        "def get(key):\n"
        "    if key in _memo:\n        _memo.move_to_end(key)\n"
        "    elif len(_memo) > 8:\n        _memo.popitem(last=False)\n"
        "    return _memo.get(key)\n\n\n"
        "@lru_cache(maxsize=8)\ndef cached(key):\n    return {}.pop(key, None)\n"
    )
    # the cache, the plain dict's pop and deque's import pass
    assert _hand_written_memos(module) == [2, 5, 10, 12]


# Besides the package's own modules, the places whose code may call a
# public name: a name that only tests call is code that nothing uses.
CALLERS = ("demos", "perfbench", "README.md", "tests/test_acceptance.py")

# public names kept although only tests call them, each with its reason
UNCALLED_KEPT = {
    # the reference oracle the tests hold the contracted log-linear
    # connection to: the first-kind symbols straight from the third
    # central moment
    "christoffel_first_kind",
}


def _public_definitions(tree):
    """(name, node, is_method) of each public top-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield item.name, item, True


def _read_names(tree):
    """(name, line, is_attribute) for each name and attribute name the
    code reads.  A method is only ever read as an attribute, so a local
    variable of the same name does not count as a read of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


# a line that imports names, ``import a`` or ``from a import b, c`` or
# ``from a import (b, c)``
_IMPORT_LINE = re.compile(
    r"^[ \t]*(?:from[ \t]+[\w.]+[ \t]+)?import[ \t]+(\([^)]*\)|[^\n]*)", re.M
)


def _caller_mentions(callers):
    """What the caller files mention: each word, each ``module.name``
    pair of words, each attribute name and each name an import names."""
    words, pairs, attributes, imported = set(), set(), set(), set()
    for path in callers:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for file in files:
            if file.suffix in (".py", ".md"):
                text = file.read_text()
                words.update(re.findall(r"\w+", text))
                pairs.update(re.findall(r"\b(?=(\w+)\.(\w+))", text))
                attributes.update(re.findall(r"\.(\w+)", text))
                for names in _IMPORT_LINE.findall(text):
                    imported.update(re.findall(r"\w+", names))
    return words, pairs, attributes, imported


def _uncalled_public_names(package, callers):
    """``module:name`` of each public name of the package that no module
    reads outside the name's own definition and no caller file mentions.
    A caller file mentions a module-level function by ``module.name`` or
    by importing it, so another module's function of the same name does
    not count; a method by reading it as an attribute; a class by its
    name.  An ``__init__.py`` only re-exports, so its imports do not
    count."""
    words, pairs, attributes, imported = _caller_mentions(callers)
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(package.rglob("*.py"))
        if path.name != "__init__.py"
    }
    reads = {path: list(_read_names(tree)) for path, tree in trees.items()}
    uncalled = []
    for path, tree in trees.items():
        for name, node, is_method in _public_definitions(tree):
            if is_method:
                mentioned = name in attributes
            elif isinstance(node, ast.ClassDef):
                mentioned = name in words
            else:
                mentioned = (path.stem, name) in pairs or name in imported
            if mentioned:
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                read == name
                and (attribute or not is_method)
                and (other != path or line not in inside)
                for other, names in reads.items()
                for read, line, attribute in names
            ):
                uncalled.append(f"{path.relative_to(package).as_posix()}:{name}")
    return uncalled


def test_every_public_name_has_a_caller_besides_the_tests():
    callers = [REPO / place for place in CALLERS]
    uncalled = [
        entry
        for entry in _uncalled_public_names(PACKAGE, callers)
        if entry.split(":")[1] not in UNCALLED_KEPT
    ]
    assert uncalled == []


def test_the_kept_uncalled_names_are_still_uncalled():
    callers = [REPO / place for place in CALLERS]
    uncalled = {entry.split(":")[1] for entry in _uncalled_public_names(PACKAGE, callers)}
    assert UNCALLED_KEPT <= uncalled


def test_an_uncalled_public_name_is_found(tmp_path):
    package = tmp_path / "package"
    package.mkdir()
    (package / "__init__.py").write_text("from .module import exported\n")
    (package / "module.py").write_text(
        "def exported():\n    return exported()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def _private(size):\n    return helper() + size\n\n\n"
        "def symbols():\n    return 0\n\n\n"
        "class Reader:\n"
        "    def read(self):\n        return self.read()\n\n"
        "    def open(self):\n        return 2\n\n"
        "    def size(self):\n        return 3\n"
    )
    (package / "other.py").write_text(
        "def symbols():\n    return 4\n\n\n"
        "def loaded():\n    return 5\n\n\n"
        "def mentioned():\n    return 6\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text(
        "from package import module\n"
        "from package.module import Reader\n"
        "from package.other import (\n    loaded,\n)\n\n"
        "Reader().open()\nmodule.symbols(loaded())\n"
    )
    notes = tmp_path / "notes.md"
    notes.write_text("`other` has `symbols` and `mentioned`, and `Reader` has `size`.\n")
    # exported calls only itself, and the package's __init__ only
    # re-exports it; read is called only from its own body, and size
    # is only the name of another function's parameter and a bare word.
    # The demo names module.symbols and imports loaded: other's symbols
    # and mentioned are only bare words in the notes
    assert _uncalled_public_names(package, [demo, notes]) == [
        "module.py:exported",
        "module.py:read",
        "module.py:size",
        "other.py:symbols",
        "other.py:mentioned",
    ]


# A model states its domain once, in its point check, and each of its
# passes at a point starts with it.  A structure is only the model's
# evaluation and alpha, and neither the optimizers nor the geometry call
# a point check, so no point is checked again around the passes.
MODEL_CHECKS = {
    "models/gaussian.py": "check",
    "models/loglinear.py": "_check_theta",
    "models/betamix.py": "_check_shapes",
}
UNCHECKING = ("optimizers.py", "geometry.py")


def _structure_fields(path):
    """The annotated fields of the module's ``DualStructure`` class."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "DualStructure":
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            return [item.target.id for item in fields]
    return None


def _point_check_calls(path):
    """(name, line) of each call of a model's point check in the module,
    by its name or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in MODEL_CHECKS.values():
                found.append((name, node.lineno))
    return sorted(found, key=lambda entry: entry[1])


def test_a_structure_holds_no_check_and_the_run_code_calls_none():
    # each name is its model's top-level point check
    for module, name in MODEL_CHECKS.items():
        tree = ast.parse((PACKAGE / module).read_text())
        assert name in {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
    assert _structure_fields(PACKAGE / "geometry.py") == ["evaluate", "alpha"]
    found = {
        module: calls
        for module in UNCHECKING
        if (calls := _point_check_calls(PACKAGE / module))
    }
    assert found == {}


def test_a_structure_check_and_a_point_check_call_are_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from dataclasses import dataclass\n\n"
        "from .models import betamix, gaussian\n\n\n"
        "@dataclass\nclass DualStructure:\n"
        "    evaluate: object\n    alpha: float\n    check: object\n\n"
        "    def at(self, xi):\n"
        "        self.check(xi)\n        return self.evaluate(xi)\n\n\n"
        "def retract(structure, xi):\n"
        "    gaussian.check(xi)\n    betamix._check_shapes(xi, 3)\n"
        "    return structure.checked(xi)\n"
    )
    # the field is found, and the three calls; a name that only starts
    # like a check is not one
    assert _structure_fields(module) == ["evaluate", "alpha", "check"]
    assert _point_check_calls(module) == [
        ("check", 13),
        ("check", 18),
        ("_check_shapes", 19),
    ]
