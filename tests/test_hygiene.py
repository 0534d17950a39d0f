"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import hwprobe

PACKAGE = Path(hwprobe.__file__).resolve().parent


def _unused_relative_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_relative_imports_are_detected():
    src = "from .a import used, unused\n\nprint(used)\n"
    assert _unused_relative_imports(src) == [(1, "unused")]


def test_no_unused_relative_imports():
    # __init__.py imports names to re-export them, so it is not checked
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            found = _unused_relative_imports(path.read_text())
            if found:
                unused[path.name] = found
    assert unused == {}
