"""Static checks over the package source."""

import ast
from pathlib import Path

import dualnewton

PACKAGE = Path(dualnewton.__file__).parent

# imported but not called, each marked ``# noqa: F401``: the benchmark's
# tracer test checks that installing the tracer rebinds these names
KEPT_IMPORTS = {
    ("optimizers.py", "solve_spd"),
    ("models/betamix.py", "solve_spd"),
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
