"""Command-line interface: run job files, print catalog jobs, self-test.

Exit codes: 0 on success, 1 when a mathematical anomaly was detected (for
example a counterexample candidate), 2 on input errors.
"""

import argparse
import json
import sys

from .catalog import catalog, catalog_names
from .jobs import JobError, canonical_text, emit, load_jobspec, run_job

ANOMALY_CERTIFICATE_FILE = "hwprobe_counterexample_certificate.json"


def _apply_flag_bounds(spec, args):
    bounds = dict(spec.get("bounds", {}))
    if args.bound is not None:
        bounds["degree"] = args.bound
    if args.window is not None:
        bounds["window"] = args.window
    if bounds:
        spec = dict(spec)
        spec["bounds"] = bounds
    return spec


def _run_and_emit(spec, args):
    report = run_job(spec, seed=args.seed)
    payload = emit(report, format=args.format, include_timing=args.with_timing)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    if report.anomaly:
        certs = [t["result"].get("certificate") for t in report.tasks
                 if t.get("status") == "ok" and isinstance(t.get("result"), dict)
                 and t["result"].get("certificate")]
        if certs:
            with open(ANOMALY_CERTIFICATE_FILE, "w") as fh:
                json.dump(certs, fh, indent=2, sort_keys=True)
            print(f"counterexample certificate written to "
                  f"{ANOMALY_CERTIFICATE_FILE}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args):
    try:
        with open(args.jobfile) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    spec = load_jobspec(text)
    spec = _apply_flag_bounds(spec, args)
    return _run_and_emit(spec, args)


def cmd_catalog(args):
    spec = catalog(args.name)
    if not args.run:
        text = canonical_text(spec)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(text.encode())
        else:
            sys.stdout.write(text)
        return 0
    spec = _apply_flag_bounds(spec, args)
    return _run_and_emit(spec, args)


def cmd_selftest(args):
    from .selftest import run_selftest
    failures = run_selftest(quick=args.quick, seed=args.seed)
    return 0 if failures == 0 else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hwprobe",
        description="Exact homological computations over graded quotient "
                    "rings: resolutions, Tate homology, the theta invariant, "
                    "and torsion probes for M (x) M*.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "structured"),
                       default="text", help="report format (default text)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized searches (iso sampling, "
                            "random exact sequences)")
        p.add_argument("--bound", type=int, default=None,
                       help="degree bound for open-ended computations")
        p.add_argument("--window", type=int, default=None,
                       help="homological window for 'for all i' checks")
        p.add_argument("--out", default=None,
                       help="write the report here (for catalog without "
                            "--run, the job document)")
        p.add_argument("--with-timing", action="store_true",
                       help="include wall-clock timing in the report "
                            "(breaks byte-for-byte determinism)")

    p_run = sub.add_parser("run", help="run a JSON job file")
    p_run.add_argument("jobfile")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_cat = sub.add_parser("catalog",
                           help="print a built-in job (or run it with --run)")
    p_cat.add_argument("name", help="one of: " + ", ".join(catalog_names()))
    p_cat.add_argument("--run", action="store_true")
    common(p_cat)
    p_cat.set_defaults(fn=cmd_catalog)

    p_self = sub.add_parser("selftest",
                            help="run the built-in invariant suite")
    p_self.add_argument("--quick", action="store_true",
                        help="skip the slower catalog reproductions")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(fn=cmd_selftest)
    return ap


def main():
    ap = build_parser()
    args = ap.parse_args()
    try:
        return args.fn(args)
    except JobError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
