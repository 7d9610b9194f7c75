"""Every function, method and class defined in ``src/repro`` is named somewhere.

A stdlib ``ast`` scan plus a name scan: a definition counts as used
when its name appears as a word in ``src/``, ``tests/``, ``benchmarks/``
or ``scripts/`` more often than it is defined (a call, an attribute
access, an import, a docstring or a string all count).  Dunder methods
are called by the language and are skipped; :data:`ALLOWED` names the
overrides of stdlib hooks that only the stdlib calls.  This file is
left out of the scan, so the allowlist does not count as a use.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "tests", "benchmarks", "scripts")
SUFFIXES = (".py", ".sh")

#: ``(module under src/repro, name)`` of overrides the stdlib calls by name.
ALLOWED = {
    ("service/api.py", "do_GET"),
    ("service/api.py", "do_POST"),
    ("service/api.py", "log_message"),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _word_counts() -> Counter:
    counts: Counter = Counter()
    this_file = Path(__file__).resolve()
    for directory in SCANNED:
        for path in (ROOT / directory).rglob("*"):
            if path.suffix in SUFFIXES and path.resolve() != this_file:
                counts.update(_WORD.findall(path.read_text(errors="replace")))
    return counts


def _definitions():
    """``(module, name, line)`` of every non-dunder definition under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, _DEFINITIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                yield module, node.name, node.lineno


def test_every_definition_is_named_somewhere_else():
    definitions = list(_definitions())
    defined = Counter(name for _, name, _ in definitions)
    words = _word_counts()
    dead = [
        f"src/repro/{module}:{line}: {name}"
        for module, name, line in definitions
        if words[name] <= defined[name] and (module, name) not in ALLOWED
    ]
    assert not dead, "definitions named nowhere else:\n" + "\n".join(dead)
