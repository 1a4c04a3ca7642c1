"""README's library sketch and names against the package."""

import ast
import re
import types
from functools import reduce
from pathlib import Path

import scalefit

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_sketch_imports_exactly_the_exported_names():
    """The sketch's one `from scalefit import ...` is the package namespace:
    an export it leaves out is one nobody documents, and a name it adds does
    not import."""
    imports = [node for block in re.findall(r"```python\n(.*?)```", README, re.S)
               for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module == "scalefit"]
    assert len(imports) == 1
    exported = {name for name, value in vars(scalefit).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert {alias.name for alias in imports[0].names} == exported


def test_qualified_names_resolve():
    """Each `scalefit.module.name` README gives exists, so prose that names a
    function by its module still points at it."""
    missing = []
    for dotted in sorted(set(re.findall(r"\bscalefit(?:\.\w+)+", README))):
        try:
            reduce(getattr, dotted.split(".")[1:], scalefit)
        except AttributeError:
            missing.append(dotted)
    assert missing == []
