"""The package needs Python and nothing else: every module imports only
the standard library, the package itself and the optional gmpy2 (whose
absence scalar.py handles)."""

import ast
import sys
from pathlib import Path

import curvepart

ALLOWED = set(sys.stdlib_module_names) | {"curvepart", "gmpy2"}


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
