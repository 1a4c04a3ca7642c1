import ast
import sys
from pathlib import Path

import scalefit

SRC = Path(scalefit.__file__).parent


def test_runtime_imports_are_stdlib_numpy_or_relative():
    """numpy is the one declared runtime dependency: every module of the
    package imports only the standard library, numpy and its own modules.
    scipy is often installed alongside, so a stray scipy.optimize would pass
    every other test and fail only where it is missing."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    modules = sorted(SRC.rglob("*.py"))
    assert modules, SRC
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert found == []
