"""Batch jobs: parse a job description, run its tasks, emit a report.

A job file is a JSON document: one ring (field, variables, weights, ideal),
named module definitions (each may reference the others, in any order), a
task list, and optional bounds.  Task failures from violated mathematical
hypotheses are captured as task-level errors, never crashes; malformed input
raises :class:`JobError`.  Structured reports are canonical JSON: identical
job and tool version give byte-identical output (timing is therefore kept
out of the structured format unless explicitly requested).
"""

import json
import random
import time

# CPython's own SHA-256, the one hashlib falls back to: hashlib itself loads
# OpenSSL, several MB of resident memory for one small digest per report
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    from _sha256 import sha256  # CPython 3.10 and 3.11

from . import __version__
from .grammar import ParseError, parse_polynomial
from .homalg import depth, dual, grade, tensor, tor_length, torsion_submodule, transpose
from .isomorphism import is_isomorphic
from .modules import (
    HypothesisError,
    PresentedModule,
    free_module,
    ideal_module,
    quotient_module,
)
from .quotient import QuotientRing
from .resolution import complexity_estimate, syzygy_module
from .ring import PolyRing
from .tate import complete_resolution, tate_ext_length, tate_tor_length
from .theta import (
    COUNTEREXAMPLE_CANDIDATE,
    depth_zero_check,
    even_dim_torsion_check,
    hw_check,
    random_short_exact_sequence,
    rigidity_probe,
    theta,
    theta_additivity_check,
)

DEFAULT_BOUNDS = {"degree": 20, "window": 10, "iso_budget": 500}
JOB_KEYS = {"field", "variables", "weights", "ideal", "domain", "modules",
            "tasks", "bounds", "name", "expected"}
# field -> (what it must be, its kind), checked by ``_job_bounds``: a kind is
# a type (an int is no bool), [kind] a list of it, a tuple of choices, a value
_FIELD_KINDS = {key: (text, kind) for text, kind, keys in (
    ("a string", str, "name module against on other of left right"),
    ("an integer", int, "field n s lo hi count seed window"),
    ("an integer", (int, None), "q"),  # or null: the period is chosen
    ("a boolean", bool, "domain trim allow_twist"),
    ("an object", dict, "expected"),
    ("a list", list, "weights twists"),
    ("a list of strings", [str], "variables ideal gens"),
    ("a list of lists of strings", [[str]], "matrix"),
    ("'auto', 'saturation' or 'biduality'",
     ("auto", "saturation", "biduality"), "method")) for key in keys.split()}


class JobError(Exception):
    """Invalid job input: parse errors, undefined names, bad bounds."""


def canonical_text(spec: dict) -> str:
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def job_hash(spec: dict) -> str:
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return "sha256:" + sha256(blob.encode()).hexdigest()


def load_jobspec(text: str) -> dict:
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise JobError(f"job file is not valid JSON: {e}") from e
    if not isinstance(spec, dict):
        raise JobError("job file must contain a JSON object")
    for key in ("field", "variables", "weights", "tasks"):
        if key not in spec:
            raise JobError(f"job file is missing the {key!r} field")
    _job_bounds(spec)
    return spec


def _check_keys(what, entry, known):
    unknown = sorted(set(entry) - set(known))
    if unknown:
        raise JobError(f"unknown {what} key {unknown[0]!r}; known keys are "
                       f"{sorted(known)}")


def _job_bounds(spec: dict) -> dict:
    """The defaults overridden by the spec's bounds.

    A key that nothing reads is an error: at the top level, in the bounds,
    in a module definition (per type) and in a task (per op).  So is a field
    whose JSON value is not of its kind in ``_FIELD_KINDS``.
    """
    _check_keys("job", spec, JOB_KEYS)
    modules = spec.get("modules", {})
    tasks = spec.get("tasks", [])
    if not isinstance(modules, dict) or not all(
            isinstance(d, dict) for d in modules.values()):
        raise JobError("modules must be an object of module definitions")
    if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
        raise JobError("tasks must be a list of task objects")
    for name, d in modules.items():
        kind = d.get("type")
        if kind not in MODULE_TYPES:
            raise JobError(f"module {name!r}: unknown module type {kind!r}")
        _check_keys(f"{kind!r} module", d, ("type",) + MODULE_TYPES[kind][1])
    for t in tasks:
        op = t.get("op")
        if op not in TASKS:
            raise JobError(f"unknown task op {op!r}; available: "
                           + ", ".join(sorted(TASKS)))
        _check_keys(f"{op!r} task", t, ("op",) + TASKS[op][1])
    for where, entry in [("job", spec),
                         *((f"module {n!r}", d) for n, d in modules.items()),
                         *((t["op"], t) for t in tasks)]:
        for key, value in entry.items():
            if key in _FIELD_KINDS and not _fits(value, _FIELD_KINDS[key][1]):
                raise JobError(f"{where}: {key} must be "
                               f"{_FIELD_KINDS[key][0]}, got {value!r}")
    given = spec.get("bounds", {})
    if not isinstance(given, dict):
        raise JobError(f"bounds must be an object, got {given!r}")
    bounds = dict(DEFAULT_BOUNDS)
    bounds.update(given)
    for k, v in bounds.items():
        if k not in DEFAULT_BOUNDS:
            raise JobError(f"unknown bound {k!r}; known bounds are "
                           f"{sorted(DEFAULT_BOUNDS)}")
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise JobError(f"bound {k!r} must be a positive integer, got {v!r}")
    return bounds


def _fits(value, kind):
    """Whether a JSON value is of the kind, as ``_FIELD_KINDS`` reads it."""
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(_fits(value, k) for k in kind)
    if isinstance(kind, type):
        return isinstance(value, kind) and (
            kind is bool or not isinstance(value, bool))
    return value == kind


def _at_least(where, key, value, least):
    """A task field, whose type is checked on loading, at least ``least``."""
    if value < least:
        raise JobError(f"{where}: {key} must be >= {least}, got {value}")
    return value


def _parse(ring_amb, text, where):
    try:
        return parse_polynomial(ring_amb, text)
    except ParseError as e:
        raise JobError(f"in {where}: {e}") from e


def build_ring(spec: dict):
    try:
        amb = PolyRing(spec["variables"], spec["weights"], spec["field"])
    except ValueError as e:
        raise JobError(f"invalid ring data: {e}") from e
    gens = [_parse(amb, s, f"ideal generator {i}")
            for i, s in enumerate(spec.get("ideal", []))]
    try:
        return QuotientRing(amb, gens, domain=spec.get("domain", False))
    except ValueError as e:
        raise JobError(f"invalid ring data: {e}") from e


def _polys(ring, texts, where):
    return [_parse(ring.ambient, s, where) for s in texts]


def _presentation(ring, d, get, where):
    twists = tuple(d["twists"])
    rows = [_polys(ring, row, where) for row in d["matrix"]]
    if any(len(r) != len(rows[0]) for r in rows):
        raise JobError(f"{where}: ragged matrix")
    cols = [{(j, m): coef for j, row in enumerate(rows)
             for m, coef in row[c].items()}
            for c in range(len(rows[0]) if rows else 0)]
    return PresentedModule(ring, twists, cols)


# type -> (builder(ring, definition, get, where), the fields it reads besides
# "type"); ``get`` looks up a module the definition refers to, by one of
# ``_REFERENCE_FIELDS``
MODULE_TYPES = {
    "quotient": (lambda r, d, get, w: quotient_module(
        r, _polys(r, d["ideal"], w)), ("ideal",)),
    "ideal": (lambda r, d, get, w: ideal_module(r, _polys(r, d["gens"], w)),
              ("gens",)),
    "free": (lambda r, d, get, w: free_module(r, tuple(d.get("twists", (0,)))),
             ("twists",)),
    "presentation": (_presentation, ("twists", "matrix")),
    "syzygy": (lambda r, d, get, w: syzygy_module(
        get(d["of"]), d["n"], trim=d.get("trim", False)),
        ("of", "n", "trim")),
    "dual": (lambda r, d, get, w: dual(get(d["of"])), ("of",)),
    "transpose": (lambda r, d, get, w: transpose(get(d["of"])), ("of",)),
    "tensor": (lambda r, d, get, w: tensor(get(d["left"]), get(d["right"])),
               ("left", "right")),
    "direct_sum": (lambda r, d, get, w: get(d["left"]).direct_sum(
        get(d["right"])), ("left", "right")),
    "twist": (lambda r, d, get, w: get(d["of"]).twist(d["s"]), ("of", "s")),
}


_REFERENCE_FIELDS = ("of", "left", "right")


def _definition_order(modules: dict) -> list:
    """The names of ``modules``, each after the names its definition refers
    to, and otherwise in the given order.

    A reference to an undefined name or a cycle of references is a
    :class:`JobError` naming the module that holds it.  The walk keeps its
    own stack: nested functions recursing through each other would form a
    reference cycle.
    """
    order, placed = [], set()
    for root in modules:
        path = [] if root in placed else [root]  # each refers to the next
        while path:
            name = path[-1]
            d = modules[name]
            for ref in (d[k] for k in _REFERENCE_FIELDS if k in d):
                if ref not in modules:
                    raise JobError(f"module {name!r}: undefined module {ref!r}")
                if ref in path:
                    raise JobError(f"module {name!r}: reference to {ref!r} "
                                   "is cyclic")
                if ref not in placed:
                    path.append(ref)
                    break
            else:
                placed.add(path.pop())
                order.append(name)
    return order


def build_modules(spec: dict, ring) -> dict:
    modules = spec.get("modules", {})
    out = {}
    for name in _definition_order(modules):
        d = modules[name]
        where = f"module {name!r}"
        build = MODULE_TYPES[d["type"]][0]
        try:
            out[name] = build(ring, d, out.__getitem__, where)
        except KeyError as e:
            raise JobError(f"{where}: missing field {e}") from e
        except (HypothesisError, ValueError) as e:
            if isinstance(e, JobError):
                raise
            raise JobError(f"{where}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# task handlers


def _fmt_len(v):
    return "infinite" if v is None else v


def _iso_payload(res, ring):
    amb = ring.ambient
    out = {"verdict": res.verdict, "twist": res.twist}
    if res.invariant:
        out["distinguishing_invariant"] = res.invariant
    if res.certificate is not None:
        cert = res.certificate
        matrix = []
        for k in range(cert.target.ngens):
            row = []
            for col in cert.cols:
                entry = {m: c for (kk, m), c in col.items() if kk == k}
                row.append(amb.format_poly(entry))
            matrix.append(row)
        out["certificate_matrix"] = matrix
    out.update({k: v for k, v in res.detail.items()})
    return out


class TaskContext:
    def __init__(self, ring, modules, bounds, seed):
        self.ring = ring
        self.modules = modules
        self.bounds = bounds
        self.seed = seed

    def module(self, name):
        if name not in self.modules:
            raise JobError(f"undefined module name {name!r}")
        return self.modules[name]


def _index_range(t, lo, hi):
    """The task's ``lo`` and ``hi``; a swapped range would report nothing."""
    lo, hi = t.get("lo", lo), t.get("hi", hi)
    if lo > hi:
        raise JobError(f"{t['op']}: lo must be <= hi, got lo {lo} and hi {hi}")
    return lo, hi


def _task_tor_lengths(ctx, t):
    m = ctx.module(t["module"])
    n = ctx.module(t["against"])
    lo, hi = _index_range(t, 0, ctx.bounds["window"])
    _at_least("tor_lengths", "lo", lo, 0)
    cap = lo + ctx.bounds["window"] * 4
    out = {"lengths": {str(i): _fmt_len(tor_length(m, n, i))
                       for i in range(lo, min(hi, cap) + 1)}}
    if hi > cap:
        out["truncated"] = True
        out["truncated_at"] = cap
    return out


def _task_theta(ctx, t):
    m = ctx.module(t["module"])
    n = ctx.module(t["against"])
    res = theta(m, n)
    return res.to_dict()


def _task_theta_additivity(ctx, t):
    m = ctx.module(t["module"])
    y = ctx.module(t["on"])
    # no runs would make all_additive a verdict drawn from nothing
    count = _at_least("theta_additivity", "count", t.get("count", 5), 1)
    rng = random.Random(t.get("seed", ctx.seed))
    runs = []
    for _ in range(count):
        f, g = random_short_exact_sequence(y, rng)
        runs.append(theta_additivity_check(m, f, g))
    return {"runs": runs, "all_additive": all(r["additive"] for r in runs)}


def _task_hw_check(ctx, t):
    m = ctx.module(t["module"])
    return hw_check(m, window=ctx.bounds["window"])


def _task_even_dim(ctx, t):
    return even_dim_torsion_check(ctx.module(t["module"]))


def _task_depth_zero(ctx, t):
    return depth_zero_check(ctx.module(t["module"]),
                            window=min(ctx.bounds["window"], 8))


def _task_rigidity(ctx, t):
    m = ctx.module(t["module"])
    n = ctx.module(t["against"])
    window = _at_least("rigidity_probe", "window",
                       t.get("window", ctx.bounds["window"]), 0)
    return rigidity_probe(m, n, window=window)


def _period_and_window(ctx, t):
    """The task's ``q`` and ``window`` for ``complete_resolution``: an absent
    (or null) q is chosen there, and a negative window would check nothing."""
    window = t.get("window", min(ctx.bounds["window"], 6))
    return t.get("q"), _at_least(t["op"], "window", window, 0)


def _task_tate(ctx, t, kind):
    m = ctx.module(t["module"])
    n = ctx.module(t["against"])
    q, window = _period_and_window(ctx, t)
    lo, hi = _index_range(t, -window, window)
    cr = complete_resolution(m, q, window=window)
    fn = tate_tor_length if kind == "tor" else tate_ext_length
    return {"lengths": {str(i): _fmt_len(fn(cr, n, i))
                        for i in range(lo, hi + 1)},
            "period": cr.q, "provenance": cr.provenance,
            "total_acyclicity_window": window}


def _task_periodicity(ctx, t):
    m = ctx.module(t["module"])
    q, window = _period_and_window(ctx, t)
    cr = complete_resolution(m, q, window=window)
    return {"period": cr.q, "base_index": cr.base, "twist_per_period": cr.shift,
            "provenance": cr.provenance, "verified_window": window,
            "ci_dim": "unknown"}


def _task_is_isomorphic(ctx, t):
    m = ctx.module(t["module"])
    n = ctx.module(t["other"])
    res = is_isomorphic(m, n, allow_twist=t.get("allow_twist", True),
                        sample_budget=ctx.bounds["iso_budget"],
                        seed=ctx.seed)
    return _iso_payload(res, ctx.ring)


def _task_betti(ctx, t):
    m = ctx.module(t["module"])
    window = t.get("window", ctx.bounds["window"])
    return complexity_estimate(m, max(window, 4))


def _task_invariants(ctx, t):
    m = ctx.module(t["module"])
    out = {"generators": m.ngens,
           "generator_degrees": list(m.twists),
           "relations": len(m.rels),
           "krull_dim": m.krull_dim(),
           "length": _fmt_len(m.length())}
    if not m.is_zero():
        out["depth"] = depth(m)
        out["grade"] = grade(m)
    if ctx.ring.domain:
        out["rank"] = m.rank()
        out["nonfree_locus_dim"] = m.nonfree_locus_dim()
    return out


def _task_hilbert(ctx, t):
    m = ctx.module(t["module"])
    lo, hi = _index_range(t, 0, ctx.bounds["degree"])
    return {"lo": lo, "hi": hi,
            "values": m.hilbert_function(lo, hi)}


def _task_torsion_length(ctx, t):
    m = ctx.module(t["module"])
    ts, _ = torsion_submodule(m, t.get("method", "auto"))
    return {"torsion_length": _fmt_len(ts.length()),
            "method": t.get("method", "auto")}


def _task_freeness(ctx, t):
    m = ctx.module(t["module"])
    ln = tor_length(m, transpose(m), 1)
    return {"tor1_with_transpose_length": _fmt_len(ln),
            "free": ln == 0}


# op -> (handler, the task keys it reads besides "op")
TASKS = {
    "tor_lengths": (_task_tor_lengths, ("module", "against", "lo", "hi")),
    "theta": (_task_theta, ("module", "against")),
    "theta_additivity": (_task_theta_additivity,
                         ("module", "on", "count", "seed")),
    "hw_check": (_task_hw_check, ("module",)),
    "even_dim_torsion_check": (_task_even_dim, ("module",)),
    "depth_zero_check": (_task_depth_zero, ("module",)),
    "rigidity_probe": (_task_rigidity, ("module", "against", "window")),
    "tate_tor": (lambda ctx, t: _task_tate(ctx, t, "tor"),
                 ("module", "against", "q", "window", "lo", "hi")),
    "tate_ext": (lambda ctx, t: _task_tate(ctx, t, "ext"),
                 ("module", "against", "q", "window", "lo", "hi")),
    "periodicity": (_task_periodicity, ("module", "q", "window")),
    "is_isomorphic": (_task_is_isomorphic, ("module", "other", "allow_twist")),
    "betti": (_task_betti, ("module", "window")),
    "invariants": (_task_invariants, ("module",)),
    "hilbert": (_task_hilbert, ("module", "lo", "hi")),
    "torsion_length": (_task_torsion_length, ("module", "method")),
    "freeness_via_transpose": (_task_freeness, ("module",)),
}

_ANOMALY_VERDICTS = {COUNTEREXAMPLE_CANDIDATE, "ANOMALY"}


class Report:
    def __init__(self, spec, ring, tasks, bounds, seconds):
        self.spec = spec
        self.ring = ring
        self.tasks = tasks
        self.bounds = bounds
        self.seconds = seconds
        self.input_hash = job_hash(spec)
        self.version = __version__
        self.anomaly = any(_is_anomalous(t) for t in tasks)

    def to_dict(self, include_timing=False):
        out = {
            "tool": "hwprobe",
            "version": self.version,
            "input_hash": self.input_hash,
            "bounds": self.bounds,
            "ring": {
                "field": self.ring.ambient.p,
                "variables": list(self.ring.ambient.names),
                "weights": list(self.ring.ambient.weights),
                "ideal": [self.ring.ambient.format_poly(g)
                          for g in self.ring.ideal_gens],
                "dim": self.ring.dim,
                "hypersurface": self.ring.is_hypersurface,
                "asserted_domain": self.ring.domain,
            },
            "tasks": self.tasks,
            "anomaly_detected": self.anomaly,
        }
        if include_timing:
            out["timing_seconds"] = round(self.seconds, 3)
        return out


def _is_anomalous(task_entry):
    result = task_entry.get("result") or {}
    if result.get("verdict") in _ANOMALY_VERDICTS:
        return True
    if result.get("refutation_grade_anomaly"):
        return True
    if task_entry.get("op") == "theta_additivity" and \
            result.get("all_additive") is False:
        return True
    return False


def run_job(spec: dict, seed=0) -> Report:
    started = time.perf_counter()
    spec = dict(spec)
    bounds = _job_bounds(spec)
    ring = build_ring(spec)
    modules = build_modules(spec, ring)
    ctx = TaskContext(ring, modules, bounds, seed)
    entries = []
    for t in spec.get("tasks", []):
        op = t["op"]
        handler, _ = TASKS[op]
        entry = {"op": op, "args": {k: v for k, v in t.items() if k != "op"}}
        try:
            entry["result"] = handler(ctx, t)
            entry["status"] = "ok"
        except JobError:
            raise
        except (HypothesisError, ArithmeticError, ValueError,
                ZeroDivisionError) as e:
            entry["status"] = "error"
            entry["error"] = f"{type(e).__name__}: {e}"
        entries.append(entry)
    return Report(spec, ring, entries, bounds, time.perf_counter() - started)


# ---------------------------------------------------------------------------
# emission


def emit(report: Report, format="structured", include_timing=False) -> bytes:
    """Serialize a report: canonical JSON, or a human-readable text table."""
    if format == "structured":
        doc = report.to_dict(include_timing=include_timing)
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = []
    d = report.to_dict(include_timing=include_timing)
    ring = d["ring"]
    lines.append(f"hwprobe {d['version']}  ({d['input_hash'][:19]}...)")
    ideal = ", ".join(ring["ideal"]) or "0"
    lines.append(f"ring: F{ring['field']}[{', '.join(ring['variables'])}] / "
                 f"({ideal})   weights {ring['weights']}  dim {ring['dim']}"
                 + ("  hypersurface" if ring["hypersurface"] else "")
                 + ("  domain(asserted)" if ring["asserted_domain"] else ""))
    lines.append(f"bounds: {d['bounds']}")
    for i, t in enumerate(d["tasks"]):
        lines.append("")
        lines.append(f"[{i}] {t['op']} {t['args']}")
        if t["status"] != "ok":
            lines.append(f"    ERROR: {t['error']}")
            continue
        for k, v in sorted(t["result"].items()):
            lines.append(f"    {k}: {v}")
    lines.append("")
    lines.append("anomaly detected" if d["anomaly_detected"] else "no anomalies")
    if include_timing:
        lines.append(f"elapsed: {d['timing_seconds']} s")
    return ("\n".join(lines) + "\n").encode()
