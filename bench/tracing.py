"""Spans around calls into hwprobe's public functions, for the traced run.

The wrappers are installed from here, so ``src/`` carries no tracing code.
A wrapped function is replaced in every ``hwprobe`` module namespace that
binds it, because modules import each other's names (``from .groebner import
...``); a wrapped method is replaced on its class.  Spans stay in memory as
``[name, start, end, parent, op, extra]`` and per-layer metrics are derived
from them after each pass.

``field``, ``ring``, ``freemod`` and ``grammar`` are not wrapped: they are
called hundreds of thousands of times per pass.
"""

import functools
import gzip
import importlib
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

from hwprobe.catalog import catalog_names


def _minimal_generators(args, kwargs, result):
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    return {"rows_in": len(vectors), "rows_kept": len(result)}


# (module, attribute, annotate(args, kwargs, result) -> extra or None)
TARGETS = [
    ("quotient", "QuotientRing.nf", None),
    ("groebner", "reduce_poly", None),
    ("groebner", "groebner_basis",
     lambda a, k, r: {"basis_size": len(r.elements)}),
    ("groebner", "syzygy_generators", lambda a, k, r: {"syz_out": len(r)}),
    ("groebner", "syzygies_over_quotient", None),
    ("groebner", "kernel_into_quotient", None),
    ("groebner", "minimal_generators", _minimal_generators),
    ("groebner", "saturate", None),
    ("resolution", "Resolution.extend", lambda a, k, r: {"resolution": a[0]}),
    ("modules", "subquotient", None),
    ("modules", "homology_length", None),
    ("modules", "tensor", None),
    ("modules", "PresentedModule.hilbert_numerator", None),
    ("hilbert", "hilbert_numerator", None),
    ("homalg", "tor_length", None),
    ("homalg", "ext", None),
    ("homalg", "dual", None),
    ("homalg", "torsion_submodule", None),
    ("homalg", "depth", None),
    ("tate", "complete_resolution", None),
    ("tate", "CompleteResolution.verify", None),
    ("tate", "tate_tor_length", None),
    ("tate", "tate_ext_length", None),
    ("tate", "matrix_factorization_of", None),
    ("isomorphism", "is_isomorphic",
     lambda a, k, r: {f"verdict.{r.verdict}": 1}),
    ("isomorphism", "degree_zero_homs", None),
    ("theta", "hw_check", None),
    ("theta", "theta", None),
    ("jobs", "run_job", lambda a, k, r: {"job": a[0].get("name")}),
    ("jobs", "build_modules", None),
    ("jobs", "emit", lambda a, k, r: {"bytes": len(r)}),
]

SPAN_COUNTERS = {
    "groebner.groebner_basis": ["basis_size"],
    "groebner.syzygy_generators": ["syz_out"],
    "groebner.minimal_generators": ["rows_in", "rows_kept"],
    "isomorphism.is_isomorphic": ["verdict.ISO", "verdict.NOT_ISO",
                                  "verdict.UNDECIDED"],
    "jobs.emit": ["bytes"],
}
EXTEND = "resolution.Resolution.extend"
LEVEL_STEPS = ("groebner.syzygies_over_quotient", "groebner.minimal_generators")
BETTI_LEVELS = range(0, 7)
# F_0 and F_1 come from the presentation; Resolution.extend builds F_2 on.
BUILT_LEVELS = range(2, 7)


class Tracer:
    """In-memory spans of the wrapped calls made during one pass."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.op = None
        self.per_pass = []
        self.last = []
        self._restore = []

    def wrap(self, name, fn, annotate):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                rec[5] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "hwprobe" or n.startswith("hwprobe.")]
        for module, attr, annotate in TARGETS:
            mod = importlib.import_module(f"hwprobe.{module}")
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, annotate))
                continue
            orig = getattr(mod, attr)
            wrapper = self.wrap(name, orig, annotate)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._set(ns, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def end_pass(self):
        """Derive the finished pass's metrics; keep its spans as the last."""
        self.last = self.spans[:]
        self.spans.clear()
        self.per_pass.append(layer_metrics(self.last))

    def discard(self):
        """Drop spans recorded outside a pass, such as by output checks."""
        self.spans.clear()


def per_layer_names():
    """Every per-layer metric name, in report order, with its unit."""
    out = []
    for module, attr, _ in TARGETS:
        name = f"{module}.{attr}"
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
        out += [(f"{name}.{c}", "bytes" if c == "bytes" else "count")
                for c in SPAN_COUNTERS.get(name, [])]
        if name == "groebner.minimal_generators":
            out.append((f"{name}.kept_frac", "ratio"))
    out += [(f"jobs.job_s.{job}", "s") for job in catalog_names()]
    out.append(("resolution.levels_built", "count"))
    out += [(f"resolution.betti.{i}", "count") for i in BETTI_LEVELS]
    out += [(f"resolution.level_s.{i}", "s") for i in BUILT_LEVELS]
    out.append(("trace.overhead_frac", "ratio"))
    return out


def layer_metrics(spans):
    """Per-layer metrics of one pass, derived from its spans."""
    m = defaultdict(int)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _op, _extra in spans:
        if parent >= 0:
            child_s[parent] += end - start
    resolutions = {}
    pairs = defaultdict(list)
    for idx, (name, start, end, parent, _op, extra) in enumerate(spans):
        dur = end - start
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += dur - child_s[idx]
        if not _inside_same(spans, parent, name):
            m[f"{name}.total_s"] += dur
        if parent >= 0 and spans[parent][0] == EXTEND and name in LEVEL_STEPS:
            pairs[id((spans[parent][5] or {}).get("resolution"))].append(dur)
        for key, value in (extra or {}).items():
            if key == "job":
                m[f"jobs.job_s.{value}"] += dur
            elif key == "resolution":
                resolutions.setdefault(id(value), value)
            else:
                m[f"{name}.{key}"] += value
    for steps in pairs.values():
        # The j-th (syzygies, minimal generators) pair of one resolution
        # builds F_{j+1}: empty levels, once reached, need no pair.
        for j in range(0, len(steps) - 1, 2):
            m[f"resolution.level_s.{j // 2 + 2}"] += steps[j] + steps[j + 1]
    rows_in = m["groebner.minimal_generators.rows_in"]
    if rows_in:
        m["groebner.minimal_generators.kept_frac"] = \
            m["groebner.minimal_generators.rows_kept"] / rows_in
    if resolutions:
        deepest = max(resolutions.values(), key=lambda r: r.length)
        m["resolution.levels_built"] = deepest.length
        for i in BETTI_LEVELS:
            if i < len(deepest.level_twists):
                m[f"resolution.betti.{i}"] = len(deepest.level_twists[i])
    return m


def _inside_same(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def median_metrics(per_pass):
    """The median of each per-layer metric over the traced passes."""
    names = [n for n, _ in per_layer_names()]
    return {n: statistics.median(p.get(n, 0) for p in per_pass) for n in names}


def write_spans(path, spans, header):
    """Write one pass's spans, with the names interned, as gzipped JSON."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    ops = sorted({str(s[4]) for s in spans})
    op_index = {o: i for i, o in enumerate(ops)}
    rows = [[index[s[0]], s[1], s[2], s[3], op_index[str(s[4])]] for s in spans]
    doc = dict(header, names=names, ops=ops,
               fields=["name", "start", "end", "parent", "op"], spans=rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        json.dump(doc, f)
