"""The package needs Python and nothing else: every module imports only
the standard library and the package itself.  Inside the package, a module
reads another module's underscore names only where PRIVATE_IMPORTS allows
it."""

import ast
import sys
from pathlib import Path

import curvepart

ALLOWED = set(sys.stdlib_module_names) | {"curvepart"}


def test_imports_are_stdlib_only():
    paths = sorted(Path(curvepart.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []


# (importing module, defining module, name): the explorer reuses the
# oracle's chase and the pipeline's shift residual
PRIVATE_IMPORTS = {
    ("explore", "oracle", "_chase"),
    ("explore", "oracle", "_Chaser"),
    ("explore", "oracle", "_shift_one_roots"),
    ("explore", "pipeline", "_shift_residual"),
}


def test_no_module_reads_another_modules_private_names():
    # both `from .mod import _name` and `from . import mod` ... `mod._name`
    paths = sorted(Path(curvepart.__file__).parent.glob("*.py"))
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        local = {}  # names bound by `from . import mod`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        local[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in local):
                found.add((path.stem, local[node.value.id], node.attr))
    assert found - PRIVATE_IMPORTS == set()
