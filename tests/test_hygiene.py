"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import importlib
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from test_cli import child_env

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


def _unreferenced_public_defs(def_sources, ref_sources, ref_names):
    """Public functions and methods that nothing mentions outside their def.

    A mention is a name, an attribute or an imported name anywhere in
    ``ref_sources`` (path -> source), or a name in ``ref_names``.  Returns
    ``(path, line, name)``.
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
            if d.name not in ref_names and all(
                    p == path and d.lineno <= line <= d.end_lineno
                    for p, line in mentions[d.name]):
                found.append((path, d.lineno, d.name))
    return sorted(found)


def _code_names(markdown):
    """The identifiers inside the code spans and blocks of a markdown text."""
    return {name for spans in re.findall(r"```(.*?)```|`([^`]+)`", markdown,
                                         re.S)
            for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_unreferenced_public_defs_are_detected():
    lib = ("def used():\n    return 1\n\n\n"
           "def unused(n):\n    return unused(n - 1) if n else 0\n\n\n"
           "class C:\n    def method(self):\n        return used()\n\n\n"
           "def documented():\n    return 2\n")
    caller = "from lib import C\n\nC().method()\n"
    doc = "Call `lib.documented()`; the unused helper is not in code.\n"
    assert _unreferenced_public_defs(
        {"lib.py": lib}, {"lib.py": lib, "main.py": caller},
        _code_names(doc)) == [("lib.py", 5, "unused")]


def test_every_public_def_is_referenced():
    # a public def needs a caller in the package, the demos or the benchmark
    # harness (a name, or a string target the harness traces), or a mention
    # in the README or docs; the tests alone do not keep it
    defs = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    demos, bench = ({str(p): p.read_text()
                     for p in sorted((REPO / sub).rglob("*.py"))}
                    for sub in ("demos", "bench"))
    names = {part for _, attr in _bench_references(bench)
             for part in attr.split(".")}
    for p in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        names |= _code_names(p.read_text())
    assert _unreferenced_public_defs(defs, {**defs, **demos, **bench},
                                     names) == []


def _unset_defaults(def_sources, call_sources):
    """Defaulted parameters that no call sets.

    A call ``f(...)`` or ``obj.f(...)`` matches every def named ``f``, and
    ``C(...)`` matches ``C.__init__``.  It sets a parameter when it passes it
    by keyword, passes enough positional arguments to reach it, or uses
    ``*`` or ``**``.  A ``partial(f, ...)`` sets every parameter of ``f``:
    the calls of the partial object are not traced.  Returns
    ``(path, line, def name, parameter)``.
    """
    calls = defaultdict(list)  # callee name -> [(positional count, keywords)]
    for source in call_sources.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "partial" and node.args:
                name = getattr(node.args[0], "id",
                               getattr(node.args[0], "attr", None))
                calls[name].append((float("inf"), set()))
            elif any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                calls[name].append((float("inf"), set()))
            else:
                calls[name].append((len(node.args),
                                    {k.arg for k in node.keywords}))
    found = []
    for path, source in def_sources.items():
        tree = ast.parse(source)
        owner = {}  # method -> callee name, with self not passed positionally
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for d in node.body:
                    if isinstance(d, ast.FunctionDef):
                        owner[d] = node.name if d.name == "__init__" else d.name
        for d in ast.walk(tree):
            if not isinstance(d, ast.FunctionDef):
                continue
            name = owner.get(d, d.name)
            params = d.args.posonlyargs + d.args.args
            skip = 1 if d in owner else 0
            defaulted = [(a.arg, i - skip) for i, a in enumerate(params)
                         if i >= len(params) - len(d.args.defaults)]
            defaulted += [(a.arg, None) for a, dv in
                          zip(d.args.kwonlyargs, d.args.kw_defaults)
                          if dv is not None]
            for arg, pos in defaulted:
                if not any(arg in kws or (pos is not None and npos > pos)
                           for npos, kws in calls[name]):
                    found.append((path, d.lineno, d.name, arg))
    return sorted(found)


def test_unset_defaults_are_detected():
    lib = ("def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n\n"
           "class C:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
           "    def m(self, z=0):\n        return z\n\n\n"
           "def g(u=0):\n    return u\n\n\n"
           "def h(v, w=0):\n    return v + w\n")
    caller = ("f(0, 1, d=2)\nC(1)\nC().m()\ng(*[])\n"
              "functools.partial(h, 1)(2)\n")
    assert _unset_defaults({"lib.py": lib}, {"main.py": caller}) == [
        ("lib.py", 1, "f", "c"), ("lib.py", 1, "f", "e"),
        ("lib.py", 6, "__init__", "y"), ("lib.py", 9, "m", "z")]


def test_every_default_is_set_by_some_call():
    # a parameter that no call in the package, the tests, the demos or the
    # benchmark harness sets has one value in use: make it a constant
    defs = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    calls = dict(defs)
    for sub in ("tests", "demos", "bench"):
        for p in sorted((REPO / sub).rglob("*.py")):
            calls[str(p)] = p.read_text()
    assert _unset_defaults(defs, calls) == []


def _memo_breaches(sources, helper=("ring.py", "memoized")):
    """Caches kept outside the one memo helper.

    Flags ``__dict__`` and ``vars`` anywhere but inside the helper's def, and
    any attribute whose name ends in ``_cache`` assigned inside a class.
    Returns ``(path, line, what)``.
    """
    found = []
    for path, source in sources.items():
        tree = ast.parse(source)
        inside = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node.name == helper[1]
                    and Path(path).name == helper[0]):
                inside.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.value if isinstance(node, ast.Constant) else None)
            if name in ("__dict__", "vars") and node.lineno not in inside:
                found.append((path, node.lineno, name))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(
                               node, (ast.AnnAssign, ast.AugAssign)) else [])
                for t in targets:
                    name = getattr(t, "attr", getattr(t, "id", None))
                    if isinstance(name, str) and name.endswith("_cache"):
                        found.append((path, t.lineno, name))
    return sorted(set(found))


def test_memo_breaches_are_detected():
    ring = ("def memoized(fn):\n"
            "    def memo(owner):\n"
            "        return owner.__dict__\n"
            "    return memo\n")
    lib = ("class A:\n    def __init__(self):\n        self._cache = {}\n\n\n"
           "class B:\n    _cache = {}\n\n\n"
           "def f(ring):\n    return ring.__dict__.setdefault('k', {})\n\n\n"
           "def g(obj):\n    return vars(obj), getattr(obj, '__dict__')\n\n\n"
           "class C:\n    def __init__(self):\n"
           "        self._mono_deg_cache = {}\n        self.cached = 0\n")
    assert _memo_breaches({"pkg/ring.py": ring, "pkg/lib.py": lib}) == [
        ("pkg/lib.py", 3, "_cache"), ("pkg/lib.py", 7, "_cache"),
        ("pkg/lib.py", 11, "__dict__"), ("pkg/lib.py", 15, "__dict__"),
        ("pkg/lib.py", 15, "vars"), ("pkg/lib.py", 20, "_mono_deg_cache")]


def test_one_memo_mechanism():
    # derived data is cached on its owner through ring.memoized alone
    sources = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _memo_breaches(sources) == []


def _accumulate_loops(sources, allowed=("isub", "isub_shifted")):
    """Sparse F_p accumulate loops written outside the allowed functions.

    Flags a ``d.get(k, 0)`` read inside an expression reduced ``%`` something,
    within a ``for`` loop over ``.items()``, unless the innermost function
    around it is allowed.  Returns ``(path, line, function)``, the function
    None at module level.
    """
    found = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        defs = [d for d in ast.walk(tree) if isinstance(d, ast.FunctionDef)]
        for loop in ast.walk(tree):
            if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                    and getattr(loop.iter.func, "attr", None) == "items"):
                continue
            for mod in ast.walk(loop):
                if not (isinstance(mod, ast.BinOp)
                        and isinstance(mod.op, ast.Mod)):
                    continue
                for get in ast.walk(mod.left):
                    if (isinstance(get, ast.Call)
                            and getattr(get.func, "attr", None) == "get"
                            and len(get.args) == 2
                            and isinstance(get.args[1], ast.Constant)
                            and get.args[1].value == 0):
                        around = [d for d in defs
                                  if d.lineno <= get.lineno <= d.end_lineno]
                        name = max(around, key=lambda d: d.lineno).name \
                            if around else None
                        if name not in allowed:
                            found.add((path, get.lineno, name))
    return sorted(found, key=lambda f: (f[0], f[1]))


def test_accumulate_loops_are_detected():
    lib = ("def isub(acc, v, c, p):\n"
           "    for t, cc in v.items():\n"
           "        val = (acc.get(t, 0) - c * cc) % p\n"
           "        acc[t] = val\n\n\n"
           "def add(f, g, p):\n"
           "    out = dict(f)\n"
           "    for m, c in g.items():\n"
           "        v = (out.get(m, 0) + c) % p\n"
           "        out[m] = v\n"
           "    return out\n\n\n"
           "def sum_rows(row, v, p):\n"
           "    out = {}\n"
           "    for j, coef in v.items():\n"
           "        for k, a in row(j).items():\n"
           "            out[k] = (out.get(k, 0) + a * coef) % self.p\n"
           "    return out\n\n\n"
           "def tpoly_add(a, b):\n"
           "    out = dict(a)\n"
           "    for e, c in b.items():\n"
           "        out[e] = out.get(e, 0) + c\n"
           "    return out\n\n\n"
           "def reduce(work, quot, d, c, p):\n"
           "    while work:\n"
           "        qc = (quot.get(d, 0) + c) % p\n"
           "        work.popitem()\n\n\n"
           "for k, c in TABLE.items():\n"
           "    TOTAL[k] = (TOTAL.get(k, 0) + c) % 7\n")
    assert _accumulate_loops({"lib.py": lib}) == [
        ("lib.py", 10, "add"), ("lib.py", 19, "sum_rows"),
        ("lib.py", 37, None)]


def test_one_accumulate_loop():
    # acc -= c*v mod p is written out once on keys of any kind (ring.isub)
    # and once on packed ones (freemod.isub_shifted); every other sparse
    # F_p sum calls one of the two
    sources = {str(p): p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _accumulate_loops(sources) == []


def _bench_references(sources):
    """The hwprobe names a benchmark harness relies on.

    These are the ``(module, attribute)`` pairs of a ``TARGETS`` list, the
    names imported from hwprobe modules, and the attributes read from a
    module imported by ``from hwprobe import ...``.  Returns sorted
    ``(module, dotted attribute)`` pairs.
    """
    refs = set()
    for source in sources.values():
        tree = ast.parse(source)
        modules = {}  # local name -> hwprobe module path
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "TARGETS" for t in node.targets):
                for entry in node.value.elts:
                    module, attr = entry.elts[0].value, entry.elts[1].value
                    refs.add((f"hwprobe.{module}", attr))
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "hwprobe":
                for alias in node.names:
                    refs.add((node.module, alias.name))
                    if node.module == "hwprobe":
                        modules[alias.asname or alias.name] = \
                            f"hwprobe.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id in modules:
                refs.add((modules[node.value.id], node.attr))
    return sorted(refs)


def _unresolved(refs):
    """The pairs whose dotted attribute the installed package lacks."""
    missing = []
    for module, attr in refs:
        try:
            obj = importlib.import_module(module)
            for part in attr.split("."):
                obj = getattr(obj, part) if hasattr(obj, part) else \
                    importlib.import_module(f"{obj.__name__}.{part}")
        except (ImportError, AttributeError):
            missing.append((module, attr))
    return missing


def test_bench_references_are_detected():
    tracing = ('TARGETS = [\n    ("groebner", "reduce_poly", None),\n'
               '    ("quotient", "QuotientRing.no_such_method", None),\n]\n')
    workloads = ("from hwprobe import jobs, selftest\n"
                 "from hwprobe.catalog import catalog, no_such_entry\n\n"
                 "jobs.build_modules\njobs.no_such_builder(1)\n"
                 "selftest._check_expected\nother.no_such_name\n")
    refs = _bench_references({"tracing.py": tracing,
                              "workloads.py": workloads})
    assert refs == [
        ("hwprobe", "jobs"), ("hwprobe", "selftest"),
        ("hwprobe.catalog", "catalog"), ("hwprobe.catalog", "no_such_entry"),
        ("hwprobe.groebner", "reduce_poly"),
        ("hwprobe.jobs", "build_modules"), ("hwprobe.jobs", "no_such_builder"),
        ("hwprobe.quotient", "QuotientRing.no_such_method"),
        ("hwprobe.selftest", "_check_expected")]
    assert _unresolved(refs) == [
        ("hwprobe.catalog", "no_such_entry"),
        ("hwprobe.jobs", "no_such_builder"),
        ("hwprobe.quotient", "QuotientRing.no_such_method")]


def test_bench_references_resolve():
    # a deletion that the benchmark harness still names would break the
    # traced benchmark run, so it fails here first
    sources = {str(p): p.read_text()
               for p in sorted((REPO / "bench").glob("*.py"))}
    refs = _bench_references(sources)
    assert ("hwprobe.groebner", "reduce_poly") in refs
    assert ("hwprobe.jobs", "build_modules") in refs
    assert ("hwprobe.selftest", "_check_expected") in refs
    assert _unresolved(refs) == []


# hashlib loads OpenSSL and dataclasses loads inspect, ast, dis and tokenize:
# several MB of resident memory that no hwprobe path needs
HEAVY_IMPORTS = {"hashlib", "_hashlib", "dataclasses", "inspect", "ast", "dis",
                 "tokenize"}


def _import_footprint(snippet=""):
    """Import every module of the package in a fresh interpreter, then run
    ``snippet``.  Returns the modules outside hwprobe that this loaded and
    the lines the snippet printed."""
    code = "".join(
        ["import sys\n_before = set(sys.modules)\nimport hwprobe\n"]
        + [f"import hwprobe.{p.stem}\n" for p in sorted(PACKAGE.glob("*.py"))
           if p.stem != "__init__"]
        + [snippet, "\nprint(*sorted(set(sys.modules) - _before))\n"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    *printed, added = out.stdout.splitlines()
    return {m for m in added.split() if m.partition(".")[0] != "hwprobe"}, \
        printed


def test_import_footprint_is_measured():
    added, printed = _import_footprint("import dataclasses\nprint('ok')")
    assert "dataclasses" in added and printed == ["ok"]


def test_package_import_is_lean():
    added, _ = _import_footprint()
    assert added & HEAVY_IMPORTS == set()


def test_catalog_jobs_load_no_heavy_module():
    # run and emit every catalog job: hashing a job uses CPython's built-in
    # SHA-256, so neither hashlib nor OpenSSL is loaded; the printed value is
    # the cusp-hw input_hash of the goldens
    added, printed = _import_footprint(
        "from hwprobe.catalog import catalog, catalog_names\n"
        "for name in catalog_names():\n"
        "    report = hwprobe.jobs.run_job(catalog(name))\n"
        "    hwprobe.jobs.emit(report)\n"
        "    if name == 'cusp-hw':\n"
        "        print(report.input_hash)")
    assert added & HEAVY_IMPORTS == set()
    assert printed == ["sha256:cb7de1836b365e5badab48fa39f060c4f8418b831133f4e"
                       "c185bc94b5a7da8e0"]
