"""Every module-level import in ``src/repro`` is used by its module.

A stdlib ``ast`` scan: a name bound by a module-level ``import`` counts
as used when it appears as an ``ast.Name`` anywhere in the module, or as
a word inside a string (string annotations, ``__all__``, doctests).
Package ``__init__.py`` files re-export names and are skipped, as are
``from __future__`` imports.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _module_level_imports(tree: ast.Module):
    """``(bound name, line)`` for every import outside functions and classes."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
    text = "\n".join(strings)
    return [
        (name, line)
        for name, line in _module_level_imports(tree)
        if name not in names and not re.search(rf"\b{re.escape(name)}\b", text)
    ]


def test_no_module_imports_an_unused_name():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
