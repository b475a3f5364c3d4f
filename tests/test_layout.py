"""Every function, class and method in the library has a caller in the library.

An ``ast`` scan of ``src/qsteer``: each top-level function and class and
each method (special ``__dunder__`` methods aside, which the language
calls) must be named by an ``ast.Name`` or ``ast.Attribute`` somewhere in
the package. Code that only tests reach belongs in ``tests/``. The scan
matches bare identifiers, so a definition whose name is also used for
something else (``fidelity`` is a field as well) escapes it.
"""

import ast
from pathlib import Path

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
