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
# oracle's chase, its affine numbers and their slopes for the Newton
# Jacobian, and the pipeline's shift residual
PRIVATE_IMPORTS = {
    ("explore", "oracle", "_Affine"),
    ("explore", "oracle", "_chase"),
    ("explore", "oracle", "_value_slope"),
    ("explore", "oracle", "_vector_roots"),
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


def test_every_module_level_definition_is_used_or_exported():
    # a function or class defined at module level is named somewhere in
    # the package besides its own definition, or is public API
    # (curvepart.__all__): no helper lives on for the tests alone
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in
             sorted(Path(curvepart.__file__).parent.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[module, node.name] = node
    named = {}  # name -> the definitions that name it
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                named.setdefault(name, set()).add(id(top))
    unused = sorted(f"{module}.{name}"
                    for (module, name), node in defined.items()
                    if not named.get(name, set()) - {id(node)}
                    and name not in curvepart.__all__)
    assert unused == []
