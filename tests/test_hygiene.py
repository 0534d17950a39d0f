"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from collections import defaultdict
from pathlib import Path

import hwprobe

PACKAGE = Path(hwprobe.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]


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


def _public_defs(tree):
    """Module-level functions and class methods whose names are public."""
    defs = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs += node.body
        else:
            defs.append(node)
    return [d for d in defs
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not d.name.startswith("_")]


def _unreferenced_public_defs(def_sources, ref_sources):
    """Public functions and methods that nothing mentions outside their def.

    A mention is a name, an attribute or an imported name anywhere in
    ``ref_sources`` (path -> source).  Returns ``(path, line, name)``.
    """
    mentions = defaultdict(list)
    for path, source in ref_sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                mentions[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                mentions[node.attr].append((path, node.lineno))
            elif isinstance(node, ast.alias):
                mentions[node.name].append((path, node.lineno))
    found = []
    for path, source in def_sources.items():
        for d in _public_defs(ast.parse(source)):
            if all(p == path and d.lineno <= line <= d.end_lineno
                   for p, line in mentions[d.name]):
                found.append((path, d.lineno, d.name))
    return sorted(found)


def test_unreferenced_public_defs_are_detected():
    lib = ("def used():\n    return 1\n\n\n"
           "def unused(n):\n    return unused(n - 1) if n else 0\n\n\n"
           "class C:\n    def method(self):\n        return used()\n")
    caller = "from lib import C\n\nC().method()\n"
    assert _unreferenced_public_defs(
        {"lib.py": lib}, {"lib.py": lib, "main.py": caller}) == [
            ("lib.py", 5, "unused")]


def test_every_public_def_is_referenced():
    # references may come from the package, the tests, the demos or the
    # benchmark harness
    defs = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    refs = dict(defs)
    for sub in ("tests", "demos", "bench"):
        for p in sorted((REPO / sub).rglob("*.py")):
            refs[str(p)] = p.read_text()
    assert _unreferenced_public_defs(defs, refs) == []
