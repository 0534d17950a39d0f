import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwprobe import homalg, tate
from hwprobe.catalog import catalog, catalog_names
from hwprobe.homalg import dual, tensor, transpose
from hwprobe.jobs import (
    JOB_KEYS,
    MODULE_TYPES,
    TASKS,
    JobError,
    build_modules,
    build_ring,
    canonical_text,
    emit,
    job_hash,
    load_jobspec,
    run_job,
)
from hwprobe.tate import complete_resolution, tate_ext_length, tate_tor_length
from hwprobe.theta import random_short_exact_sequence, theta_additivity_check

GOLDEN = Path(__file__).parent / "golden"
DOCS = Path(__file__).resolve().parents[1] / "docs"


def minimal_spec(**overrides):
    spec = {
        "field": 7,
        "variables": ["x", "y"],
        "weights": [3, 2],
        "ideal": ["x^2 - y^3"],
        "domain": True,
        "modules": {"m": {"type": "ideal", "gens": ["x", "y"]}},
        "tasks": [],
    }
    spec.update(overrides)
    return spec


def test_load_rejects_non_json():
    with pytest.raises(JobError):
        load_jobspec("not json {")


def test_load_rejects_missing_fields():
    with pytest.raises(JobError):
        load_jobspec(json.dumps({"field": 7}))


def test_load_rejects_bad_bounds():
    # a list, a string or null is not an object of bounds, and a boolean is
    # not a positive integer even though bool subclasses int
    for bounds in ({"window": 0}, {"window": True}, [1, 2], "abc", None):
        spec = minimal_spec(bounds=bounds)
        with pytest.raises(JobError):
            load_jobspec(json.dumps(spec))


def test_unknown_top_level_key_is_rejected():
    # an ignored "order" would silently build a grevlex ring
    spec = minimal_spec(order="lex")
    with pytest.raises(JobError, match="'order'"):
        load_jobspec(json.dumps(spec))


def test_unparseable_polynomial_names_position():
    spec = minimal_spec(ideal=["x^2 - q^3"])
    with pytest.raises(JobError) as e:
        run_job(spec)
    assert "unknown variable 'q'" in str(e.value)
    assert "column" in str(e.value)


def test_ring_without_variables_is_a_job_error():
    # the ring is rejected before any module over it (here a dual, which
    # runs the strand frame) is built
    spec = minimal_spec(variables=[], weights=[], ideal=[], domain=False,
                        modules={"f": {"type": "free", "twists": [0]},
                                 "d": {"type": "dual", "of": "f"}},
                        tasks=[{"op": "betti", "module": "d", "window": 1}])
    with pytest.raises(JobError, match="invalid ring data: a ring needs at "
                                       "least one variable"):
        run_job(load_jobspec(json.dumps(spec)))


def test_domain_refuted_by_a_monomial_is_a_job_error():
    spec = minimal_spec(variables=["x", "y", "z"], weights=[1, 1, 1],
                        field=101, ideal=["x*y", "x*z", "y*z"],
                        modules={"m": {"type": "ideal", "gens": ["x"]}},
                        tasks=[{"op": "hw_check", "module": "m"}])
    with pytest.raises(JobError, match="invalid ring data: .*monomial y\\*z"
                                       ".*not a domain"):
        run_job(load_jobspec(json.dumps(spec)))


def test_every_catalog_ring_builds_with_its_domain_flag():
    for name in catalog_names():
        spec = catalog(name)
        assert build_ring(spec).domain is spec["domain"], name


def test_undefined_module_name():
    spec = minimal_spec(tasks=[{"op": "hw_check", "module": "nope"}])
    with pytest.raises(JobError):
        run_job(spec)


def test_definitions_may_come_in_any_order():
    # each definition names a module defined after it in the object
    spec = minimal_spec(modules={
        "t": {"type": "twist", "of": "s", "s": 1},
        "s": {"type": "direct_sum", "left": "m", "right": "d"},
        "d": {"type": "dual", "of": "m"},
        "m": {"type": "ideal", "gens": ["x", "y"]}})
    built = build_modules(spec, build_ring(spec))
    assert built["t"].twists == tuple(
        a - 1 for a in built["m"].direct_sum(built["d"]).twists)


@pytest.mark.parametrize("modules, message", [
    ({"d": {"type": "dual", "of": "nope"}},
     "module 'd': undefined module 'nope'"),
    ({"d": {"type": "dual", "of": "d"}},
     "module 'd': reference to 'd' is cyclic"),
    ({"a": {"type": "tensor", "left": "m", "right": "b"},
      "b": {"type": "transpose", "of": "a"},
      "m": {"type": "ideal", "gens": ["x", "y"]}},
     "module 'b': reference to 'a' is cyclic")])
def test_undefined_or_cyclic_reference_is_a_job_error(modules, message):
    with pytest.raises(JobError, match=re.escape(message)):
        run_job(minimal_spec(modules=modules))


def test_unknown_task_op_lists_available():
    spec = minimal_spec(tasks=[{"op": "frobnicate"}])
    with pytest.raises(JobError) as e:
        run_job(spec)
    assert "theta" in str(e.value)


def test_empty_task_list_is_success():
    report = run_job(minimal_spec())
    assert report.tasks == []
    assert not report.anomaly


def test_mathematical_edge_cases_become_task_errors():
    spec = minimal_spec(
        modules={"f": {"type": "free", "twists": [0]}},
        tasks=[{"op": "hw_check", "module": "f"}])
    report = run_job(spec)
    assert report.tasks[0]["status"] == "error"
    assert "nonfree" in report.tasks[0]["error"]
    assert not report.anomaly


def test_round_trip_catalog_specs():
    for name in catalog_names():
        spec = catalog(name)
        assert json.loads(canonical_text(spec)) == spec


def test_structured_reports_are_deterministic():
    spec = catalog("cusp-hw")
    r1 = emit(run_job(spec, seed=0), format="structured")
    r2 = emit(run_job(spec, seed=0), format="structured")
    assert r1 == r2


def test_hash_is_stable_under_key_order():
    a = {"field": 7, "variables": ["x"], "weights": [1], "tasks": []}
    b = {"tasks": [], "weights": [1], "variables": ["x"], "field": 7}
    assert job_hash(a) == job_hash(b)


def _reference_hash(spec):
    compact = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(compact.encode()).hexdigest()


def test_hash_is_the_sha256_of_the_compact_document():
    for name in catalog_names():
        assert job_hash(catalog(name)) == _reference_hash(catalog(name)), name


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(value=_JSON, end=st.sampled_from([55, 56, 57, 63, 64, 65]),
       blocks=st.integers(0, 2))
def test_hash_matches_hashlib_across_padding_boundaries(value, end, blocks):
    # a SHA-256 message of 55 bytes mod 64 still fits its length in the last
    # block and one of 56 does not; pad the document to end there
    spec = {"value": value, "pad": ""}
    short = len(json.dumps(spec, sort_keys=True, separators=(",", ":")))
    size = end + 64 * blocks
    while size < short:
        size += 64
    spec["pad"] = "p" * (size - short)
    compact = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    assert len(compact.encode()) == size
    assert job_hash(spec) == _reference_hash(spec)


def test_text_format_mentions_verdicts():
    report = run_job(catalog("cusp-hw"), seed=0)
    text = emit(report, format="text").decode()
    assert "CONJECTURE_HOLDS" in text
    assert "no anomalies" in text


def test_timing_excluded_from_structured_by_default():
    report = run_job(minimal_spec())
    doc = json.loads(emit(report, format="structured"))
    assert "timing_seconds" not in doc
    doc = json.loads(emit(report, format="structured", include_timing=True))
    assert "timing_seconds" in doc


def test_anomaly_detection_logic():
    good = {"op": "hw_check", "status": "ok",
            "result": {"verdict": "CONJECTURE_HOLDS"}}
    bad = {"op": "hw_check", "status": "ok",
           "result": {"verdict": "COUNTEREXAMPLE_CANDIDATE"}}
    from hwprobe.jobs import _is_anomalous
    assert not _is_anomalous(good)
    assert _is_anomalous(bad)


def test_unknown_catalog_entry_lists_names():
    with pytest.raises(JobError) as e:
        catalog("unknown")
    assert "cusp-hw" in str(e.value)


def test_iso_verdicts_carry_certificates():
    spec = catalog("gasharov-peeva")
    report = run_job(spec, seed=0)
    for t in report.tasks:
        if t["op"] != "is_isomorphic":
            continue
        assert t["status"] == "ok"
        if t["result"]["verdict"] == "ISO":
            assert "certificate_matrix" in t["result"]


@pytest.mark.parametrize("name", catalog_names())
def test_golden_structured_reports(name):
    got = emit(run_job(catalog(name), seed=0), format="structured")
    path = GOLDEN / f"{name}.json"
    assert path.exists(), f"golden file missing: {path}"
    assert got == path.read_bytes()


def test_hw_check_lifts_f_once(monkeypatch):
    # over a hypersurface, hw_check certifies two-periodicity and builds the
    # complete resolution of one trimmed module; the matrix factorization is
    # memoized on it, so f*I is lifted through the presentation once, and
    # the biduality map of the torsion recheck is the one other lift
    lifts = []
    for mod in (homalg, tate):
        def counting(*args, real=mod.express_in_terms, name=mod.__name__):
            lifts.append(name)
            return real(*args)
        monkeypatch.setattr(mod, "express_in_terms", counting)
    got = emit(run_job(catalog("cusp-hw"), seed=0), format="structured")
    assert sorted(lifts) == ["hwprobe.homalg", "hwprobe.tate"]
    assert got == (GOLDEN / "cusp-hw.json").read_bytes()


def test_required_catalog_names_present():
    required = {"a1-threefold-theta", "gasharov-peeva", "cusp-hw",
                "a1-surface-even-dim", "fermat-style-dim1"}
    assert required <= set(catalog_names())


def test_invariants_and_hilbert_tasks():
    spec = minimal_spec(tasks=[
        {"op": "invariants", "module": "m"},
        {"op": "hilbert", "module": "m", "lo": 0, "hi": 8},
        {"op": "torsion_length", "module": "m"},
    ])
    report = run_job(spec)
    inv = report.tasks[0]["result"]
    assert inv["generators"] == 2 and inv["rank"] == 1
    assert inv["krull_dim"] == 1 and inv["length"] == "infinite"
    assert inv["depth"] == 1 and inv["grade"] == 0
    hf = report.tasks[1]["result"]["values"]
    assert hf[2] == 1 and hf[3] == 1  # degrees of y and x
    assert report.tasks[2]["result"]["torsion_length"] == 0


def test_tor_lengths_truncation_is_flagged():
    spec = minimal_spec(
        modules={"m": {"type": "ideal", "gens": ["x", "y"]},
                 "k": {"type": "quotient", "ideal": ["x", "y"]}},
        bounds={"window": 2},
        tasks=[{"op": "tor_lengths", "module": "m", "against": "k",
                "lo": 0, "hi": 50}])
    report = run_job(spec)
    res = report.tasks[0]["result"]
    assert res["truncated"] is True and res["truncated_at"] == 8
    assert "50" not in res["lengths"]


def test_tor_lengths_negative_lo_is_rejected():
    spec = minimal_spec(
        modules={"k": {"type": "quotient", "ideal": ["x", "y"]}},
        tasks=[{"op": "tor_lengths", "module": "k", "against": "k",
                "lo": -1, "hi": 2}])
    with pytest.raises(JobError, match="lo must be >= 0"):
        run_job(spec)


@pytest.mark.parametrize("op, lo, hi", [("tor_lengths", 4, 1),
                                        ("tate_tor", 5, -5),
                                        ("tate_ext", 1, 0),
                                        ("hilbert", 6, 2)])
def test_swapped_index_range_is_rejected(op, lo, hi):
    # an empty range would report a finished task with no values
    task = {"op": op, "module": "m", "lo": lo, "hi": hi}
    if op != "hilbert":
        task["against"] = "m"
    with pytest.raises(JobError, match=f"{op}: lo must be <= hi, got lo {lo} "
                                       f"and hi {hi}"):
        run_job(minimal_spec(tasks=[task]))


def test_single_index_range_is_accepted():
    report = run_job(minimal_spec(tasks=[
        {"op": "hilbert", "module": "m", "lo": 3, "hi": 3},
        {"op": "tor_lengths", "module": "m", "against": "m", "lo": 1,
         "hi": 1}]))
    assert report.tasks[0]["result"]["values"] == [1]
    assert list(report.tasks[1]["result"]["lengths"]) == ["1"]


@pytest.mark.parametrize("op", ["periodicity", "tate_tor", "tate_ext",
                                "rigidity_probe"])
def test_negative_window_is_rejected(op):
    # a negative window checks nothing, so it must not be reported verified
    task = {"op": op, "module": "m", "window": -5}
    if op != "periodicity":
        task["against"] = "m"
    with pytest.raises(JobError, match=f"{op}: window must be >= 0, got -5"):
        run_job(minimal_spec(tasks=[task]))


@pytest.mark.parametrize("weights", [[3.7, 2], [3, True], [3, "2"]])
def test_non_integral_weights_are_rejected(weights):
    # int() would build a ring of weight 3 while input_hash covers 3.7
    with pytest.raises(JobError, match="invalid ring data: weights must be "
                                       "integers"):
        run_job(minimal_spec(weights=weights))


@pytest.mark.parametrize("twists", [[0.9], [False], ["1"]])
def test_non_integral_twists_are_rejected(twists):
    spec = minimal_spec(modules={"f": {"type": "free", "twists": twists}})
    with pytest.raises(JobError, match="module 'f': twists must be integers"):
        run_job(spec)


@pytest.mark.parametrize("task, field", [
    ({"op": "periodicity", "module": "m", "q": "2"}, "q"),
    ({"op": "tate_ext", "module": "m", "against": "m", "q": 2.0}, "q"),
    ({"op": "hilbert", "module": "m", "lo": [0]}, "lo"),
    ({"op": "tor_lengths", "module": "m", "against": "m", "hi": 4.5}, "hi"),
    ({"op": "betti", "module": "m", "window": "3"}, "window"),
    ({"op": "rigidity_probe", "module": "m", "against": "m", "window": True},
     "window"),
    ({"op": "theta_additivity", "module": "m", "on": "m", "count": 2.0},
     "count")])
def test_non_integer_task_fields_are_rejected(task, field):
    with pytest.raises(JobError, match=f"{task['op']}: {field} must be an "
                                       "integer"):
        run_job(minimal_spec(tasks=[task]))


@pytest.mark.parametrize("definition, field", [
    ({"type": "syzygy", "of": "m", "n": [1]}, "n"),
    ({"type": "twist", "of": "m", "s": 1.5}, "s")])
def test_non_integer_module_fields_are_rejected(definition, field):
    spec = minimal_spec(modules={"m": {"type": "ideal", "gens": ["x", "y"]},
                                 "d": definition})
    with pytest.raises(JobError, match=f"module 'd': {field} must be an "
                                       "integer"):
        run_job(spec)


# a valid value for every field a job reads, and values of a wrong JSON
# type for it: a string, a number, a boolean, null, a list or an object
VALID_FIELDS = {
    "field": 7, "variables": ["x", "y"], "weights": [3, 2],
    "ideal": ["x^2 - y^3"], "domain": True, "name": "cusp", "expected": {},
    "gens": ["x", "y"], "twists": [0], "matrix": [["x"]], "of": "m", "n": 1,
    "trim": False, "left": "m", "right": "m", "s": 1, "module": "m",
    "against": "m", "on": "m", "other": "m", "lo": 0, "hi": 1, "count": 1,
    "seed": 0, "window": 2, "q": 2, "allow_twist": True, "method": "auto"}
NAME, INT = [["m"], 3, None, True, {}], ["1", 1.5, True, [1], None, {}]
BOOL, STRS = ["false", 0, None, [True]], ["xy", [3], None, ["x", ["y"]], {}]
WRONG_VALUES = {
    **dict.fromkeys(("name", "module", "against", "on", "other", "of", "left",
                     "right"), NAME),
    **dict.fromkeys(("field", "n", "s", "lo", "hi", "count", "seed", "window"),
                    INT),
    **dict.fromkeys(("domain", "trim", "allow_twist"), BOOL),
    **dict.fromkeys(("variables", "ideal", "gens"), STRS),
    **dict.fromkeys(("weights", "twists"), [3, "0", None, {}]),
    "q": ["2", 2.0, True, [2], {}], "expected": [3, "x", [1], None],
    "matrix": [["x"], [[1]], "x", [["x"], "y"]],
    "method": ["bogus", None, 1, ["auto"], "Auto"]}


def field_specs():
    """``(field, build)`` for every field of the ring, of each module type
    and of each task op: ``build(value)`` is a job with that field set to
    the value and every other field valid."""
    def valid(fields):
        return {f: VALID_FIELDS[f] for f in fields}

    ring = valid(JOB_KEYS - {"modules", "tasks", "bounds"})
    for key in sorted(ring):
        yield key, lambda v, key=key: minimal_spec(**dict(ring, **{key: v}))
    for kind, (_, fields) in MODULE_TYPES.items():
        for key in fields:
            yield key, lambda v, kind=kind, fields=fields, key=key: \
                minimal_spec(modules={
                    "m": {"type": "ideal", "gens": ["x", "y"]},
                    "d": dict(valid(fields), type=kind, **{key: v})})
    for op, (_, fields) in TASKS.items():
        for key in fields:
            yield key, lambda v, op=op, fields=fields, key=key: minimal_spec(
                tasks=[dict(valid(fields), op=op, **{key: v})])


def test_every_field_of_a_wrong_json_type_is_a_job_error():
    # a misread field would run on a hypothesis the job never stated
    # ("domain": "false" asserting a domain) or crash with a TypeError
    cases = list(field_specs())
    assert {key for key, _ in cases} == set(WRONG_VALUES)
    for key, build in cases:
        load_jobspec(json.dumps(build(VALID_FIELDS[key])))
        for value in WRONG_VALUES[key]:
            with pytest.raises(JobError, match=rf"\b{key} must be"):
                run_job(build(value))


def test_theta_additivity_needs_a_run():
    # all_additive over no runs would be a verdict drawn from nothing
    task = {"op": "theta_additivity", "module": "m", "on": "m", "count": 0}
    with pytest.raises(JobError, match="theta_additivity: count must be >= 1, "
                                       "got 0"):
        run_job(minimal_spec(tasks=[task]))


def test_emit_rejects_unknown_format():
    report = run_job(minimal_spec())
    with pytest.raises(ValueError):
        emit(report, format="yaml")


def test_unknown_bound_is_rejected():
    # a bound that no code applies must fail, not be echoed in the report
    spec = minimal_spec(bounds={"window": 4, "twist_window": 12})
    with pytest.raises(JobError, match="twist_window"):
        load_jobspec(json.dumps(spec))
    with pytest.raises(JobError, match="twist_window"):
        run_job(spec)


def test_unknown_task_argument_is_rejected():
    # a misspelled "window" would silently run with the default window 10
    spec = minimal_spec(tasks=[{"op": "betti", "module": "m", "windw": 2}])
    with pytest.raises(JobError, match="'windw'"):
        load_jobspec(json.dumps(spec))
    with pytest.raises(JobError, match="'windw'"):
        run_job(spec)
    spec["tasks"][0]["window"] = spec["tasks"][0].pop("windw")
    assert len(run_job(spec).tasks[0]["result"]["betti"]) == 5


def test_unknown_module_field_is_rejected():
    modules = {"m": {"type": "ideal", "gens": ["x", "y"], "colour": "red"}}
    spec = minimal_spec(modules=modules)
    with pytest.raises(JobError, match="'colour'"):
        load_jobspec(json.dumps(spec))
    with pytest.raises(JobError, match="'colour'"):
        run_job(spec)


def test_derived_module_types_match_library_calls(cusp_m):
    spec = minimal_spec(modules={
        "m": {"type": "ideal", "gens": ["x", "y"]},
        "d": {"type": "dual", "of": "m"},
        "tr": {"type": "transpose", "of": "m"},
        "t": {"type": "tensor", "left": "m", "right": "d"},
    })
    built = build_modules(spec, build_ring(spec))
    for name, direct in (("m", cusp_m), ("d", dual(cusp_m)),
                         ("tr", transpose(cusp_m)),
                         ("t", tensor(cusp_m, dual(cusp_m)))):
        assert built[name].twists == direct.twists, name
        assert list(built[name].rels) == list(direct.rels), name


def test_syzygy_zero_with_trim_drops_free_summands(cusp_m):
    spec = minimal_spec(modules={
        "m": {"type": "ideal", "gens": ["x", "y"]},
        "r": {"type": "free"},
        "s": {"type": "direct_sum", "left": "m", "right": "r"},
        "t": {"type": "syzygy", "of": "s", "n": 0, "trim": True},
    }, tasks=[{"op": "invariants", "module": name} for name in ("s", "t")])
    report = run_job(spec)
    assert [t["result"]["generators"] for t in report.tasks] == [3, 2]
    built = build_modules(spec, build_ring(spec))
    assert built["t"].twists == cusp_m.twists


def test_module_table_in_docs_matches_module_types():
    text = (DOCS / "jobfile_format.md").read_text()
    table = text.split("## Module definitions")[1].split("##")[0]
    documented = {}
    for row in table.splitlines():
        cells = row.split("|")
        if len(cells) > 3 and cells[1].strip().startswith("`"):
            fields = re.findall(r"`(\w+)\??(?::[^`]*)?`", cells[2])
            documented[cells[1].strip().strip("`")] = tuple(fields)
    assert documented == {kind: fields
                          for kind, (_, fields) in MODULE_TYPES.items()}


def test_theta_additivity_task_matches_library_calls(threefold_mn):
    m, n = threefold_mn
    spec = dict(catalog("a1-threefold-theta"), tasks=[
        {"op": "theta_additivity", "module": "M", "on": "N", "count": 2,
         "seed": 3}])
    rng = random.Random(3)
    runs = [theta_additivity_check(m, *random_short_exact_sequence(n, rng))
            for _ in range(2)]
    entry = run_job(spec).tasks[0]
    assert entry["status"] == "ok"
    assert entry["result"] == {"runs": runs, "all_additive": True}


def test_tate_tasks_match_library_calls(cusp_m):
    tasks = [{"op": op, "module": "m", "against": "m", "window": 2,
              "lo": -2, "hi": 2} for op in ("tate_tor", "tate_ext")]
    report = run_job(minimal_spec(tasks=tasks))
    cr = complete_resolution(cusp_m, window=2)
    for entry, length in zip(report.tasks, (tate_tor_length, tate_ext_length)):
        assert entry["status"] == "ok"
        assert entry["result"] == {
            "lengths": {str(i): length(cr, cusp_m, i) for i in range(-2, 3)},
            "period": 2, "provenance": {"via": "matrix-factorization"},
            "total_acyclicity_window": 2}
