"""Every function, class and method in the library has a caller in the
library, every module's ``__all__`` names only what the module has, and
no module holds a writeable array.

An ``ast`` scan of ``src/qsteer``: each top-level function and class and
each method (special ``__dunder__`` methods aside, which the language
calls) must be named by an ``ast.Name`` or ``ast.Attribute`` somewhere in
the package. Code that only tests reach belongs in ``tests/``. The scan
matches bare identifiers, so a definition whose name is also used for
something else (``fidelity`` is a field as well) escapes it.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qsteer"


def test_every_definition_is_used_by_the_library():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    defined, used = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name for name in defined - used if not name.startswith("__")}
    assert not unused, f"defined in src/qsteer but used only outside it: {sorted(unused)}"


def _module(path):
    return importlib.import_module("qsteer" if path.stem == "__init__" else f"qsteer.{path.stem}")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_all_names_exist(path):
    module = _module(path)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names what the module lacks: {missing}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_arrays_are_read_only(path):
    # every config's set-up reads the module tables: a write to one would
    # change each env built after it
    module = _module(path)
    writeable = [name for name, value in vars(module).items()
                 for v in (value.values() if isinstance(value, dict) else [value])
                 if isinstance(v, np.ndarray) and v.flags.writeable]
    assert not writeable, f"{module.__name__} holds writeable arrays: {sorted(set(writeable))}"
