import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hwprobe
from hwprobe.catalog import catalog, catalog_names
from hwprobe.jobs import canonical_text

# The directory holding the hwprobe package this test process imported.  The
# child gets it as an absolute PYTHONPATH entry, so it runs the same code from
# any working directory (a relative PYTHONPATH=src only resolves at the root).
HWPROBE_ROOT = str(Path(hwprobe.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (HWPROBE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "hwprobe.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())


def test_catalog_prints_valid_job(tmp_path):
    out = run_cli("catalog", "cusp-hw")
    assert out.returncode == 0, out.stderr
    spec = json.loads(out.stdout)
    assert spec["field"] == 7


def test_catalog_out_writes_job_document(tmp_path):
    out = run_cli("catalog", "cusp-hw", "--out", "job.json", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""
    assert (tmp_path / "job.json").read_bytes() == \
        canonical_text(catalog("cusp-hw")).encode()


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_document_runs_to_its_golden(tmp_path, name):
    # the written document sorts its module definitions by name, so a
    # definition may come before the ones it refers to
    out = run_cli("catalog", name, "--out", "job.json", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    out = subprocess.run([sys.executable, "-m", "hwprobe.cli", "run",
                          "job.json", "--format", "structured", "--seed", "0"],
                         capture_output=True, cwd=tmp_path, env=child_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_run_jobfile_structured(tmp_path):
    # catalog without --run prints the job document; write it to a file
    spec = run_cli("catalog", "cusp-hw")
    assert spec.returncode == 0, spec.stderr
    jobfile = tmp_path / "job.json"
    jobfile.write_text(spec.stdout)
    out = run_cli("run", str(jobfile), "--format", "structured", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["anomaly_detected"] is False
    assert doc["tasks"][0]["result"]["verdict"] == "CONJECTURE_HOLDS"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("name", ["gasharov-peeva", "cusp-hw"])
def test_catalog_report_is_its_golden_under_any_hash_seed(name, hash_seed):
    # str hashes, and with them the order of sets of strings, change with
    # PYTHONHASHSEED from one process to the next; the report must not
    env = child_env()
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run([sys.executable, "-m", "hwprobe.cli", "catalog", name,
                          "--run", "--format", "structured"],
                         capture_output=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (GOLDEN / f"{name}.json").read_bytes()


def test_catalog_run_text():
    out = run_cli("catalog", "a1-surface-even-dim", "--run")
    assert out.returncode == 0, out.stderr
    assert "TORSION_PRESENT" in out.stdout


def test_unknown_catalog_is_input_error():
    out = run_cli("catalog", "nope")
    assert out.returncode == 2, out.stderr
    assert "available" in out.stderr


def test_missing_jobfile_is_input_error():
    out = run_cli("run", "/definitely/not/here.json")
    assert out.returncode == 2, out.stderr


def test_invalid_job_is_input_error(tmp_path):
    jobfile = tmp_path / "bad.json"
    jobfile.write_text(json.dumps({"field": 4, "variables": ["x"],
                                   "weights": [1], "tasks": []}))
    out = run_cli("run", str(jobfile))
    assert out.returncode == 2, out.stderr
    assert "prime" in out.stderr


def test_malformed_bounds_are_input_error(tmp_path):
    jobfile = tmp_path / "bad.json"
    jobfile.write_text(json.dumps({"field": 7, "variables": ["x"],
                                   "weights": [1], "tasks": [],
                                   "bounds": [1, 2]}))
    out = run_cli("run", str(jobfile))
    assert out.returncode == 2, out.stderr
    assert "bounds must be an object" in out.stderr
    assert "Traceback" not in out.stderr


def test_false_domain_assertion_is_input_error(tmp_path):
    # the coordinate axes hold the monomials x*y, x*z, y*z and no variable,
    # so their ideal is not prime
    jobfile = tmp_path / "axes.json"
    jobfile.write_text(json.dumps({
        "field": 101, "variables": ["x", "y", "z"], "weights": [1, 1, 1],
        "ideal": ["x*y", "x*z", "y*z"], "domain": True,
        "modules": {"m": {"type": "ideal", "gens": ["x"]}},
        "tasks": [{"op": "hw_check", "module": "m"}]}))
    out = run_cli("run", str(jobfile))
    assert out.returncode == 2, out.stderr
    assert "not a domain" in out.stderr
    assert "Traceback" not in out.stderr


def test_negative_tor_index_is_input_error(tmp_path):
    jobfile = tmp_path / "bad.json"
    jobfile.write_text(json.dumps({
        "field": 7, "variables": ["x", "y"], "weights": [1, 1],
        "ideal": ["x^2", "y^2"],
        "modules": {"k": {"type": "quotient", "ideal": ["x", "y"]}},
        "tasks": [{"op": "tor_lengths", "module": "k", "against": "k",
                   "lo": -1}]}))
    out = run_cli("run", str(jobfile))
    assert out.returncode == 2, out.stderr
    assert "lo must be >= 0" in out.stderr
    assert "Traceback" not in out.stderr


def test_negative_window_is_input_error(tmp_path):
    jobfile = tmp_path / "bad.json"
    jobfile.write_text(json.dumps({
        "field": 7, "variables": ["x", "y"], "weights": [3, 2],
        "ideal": ["x^2 - y^3"],
        "modules": {"m": {"type": "ideal", "gens": ["x", "y"]}},
        "tasks": [{"op": "periodicity", "module": "m", "window": -5}]}))
    out = run_cli("run", str(jobfile))
    assert out.returncode == 2, out.stderr
    assert "window must be >= 0" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("module, task, message", [
    (None, {"op": "periodicity", "module": "m", "q": "2"},
     "periodicity: q must be an integer, got '2'"),
    ({"type": "syzygy", "of": "m", "n": [1]}, None,
     "module 's': n must be an integer, got [1]"),
    (None, {"op": "hilbert", "module": "m", "lo": [0]},
     "hilbert: lo must be an integer, got [0]")])
def test_non_integer_field_is_input_error(tmp_path, module, task, message):
    # these crashed with a TypeError and exit code 1, the anomaly code
    modules = {"m": {"type": "ideal", "gens": ["x", "y"]}}
    if module:
        modules["s"] = module
    jobfile = tmp_path / "bad.json"
    jobfile.write_text(json.dumps({
        "field": 7, "variables": ["x", "y"], "weights": [3, 2],
        "ideal": ["x^2 - y^3"], "modules": modules,
        "tasks": [task] if task else []}))
    out = run_cli("run", str(jobfile))
    assert out.returncode == 2, out.stderr
    assert message in out.stderr
    assert "Traceback" not in out.stderr


def test_selftest_quick():
    out = run_cli("selftest", "--quick")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "FAIL" not in out.stdout


def test_full_selftest_passes(capsys):
    from hwprobe.selftest import run_selftest
    assert run_selftest(quick=False) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_anomaly_exit_code_writes_certificate(tmp_path, monkeypatch):
    from hwprobe import cli

    class FakeReport:
        anomaly = True
        tasks = [{"op": "hw_check", "status": "ok",
                  "result": {"verdict": "COUNTEREXAMPLE_CANDIDATE",
                             "certificate": {"ring": "r"}}}]

    monkeypatch.setattr(cli, "run_job", lambda spec, seed=0: FakeReport())
    monkeypatch.setattr(cli, "emit",
                        lambda r, format, include_timing: b"{}\n")
    monkeypatch.chdir(tmp_path)
    jobfile = tmp_path / "x.json"
    jobfile.write_text(json.dumps({"field": 7, "variables": ["x"],
                                   "weights": [1], "tasks": []}))
    args = cli.build_parser().parse_args(
        ["run", str(jobfile), "--format", "structured"])
    rc = cli.cmd_run(args)
    assert rc == 1
    assert (tmp_path / cli.ANOMALY_CERTIFICATE_FILE).exists()
