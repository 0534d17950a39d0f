"""Run one hwprobe benchmark workload and print its metrics.

    python3 bench/run.py --workload resolve-deep --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports hwprobe from ``src/``
and nothing else.  Closed loop, one client, one thread: passes over the
workload's fixed operation list run back to back until ``--seconds`` have
elapsed (at least one pass).  Every output is checked after its pass's timer
stops.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median, over fresh processes, of the time from process start
  to the first timed operation (interpreter start, importing hwprobe and
  generating the seeded inputs);
* ``pass_s``: median wall time of one pass, tracing off;
* ``peak_rss_mb``: the process's resident-memory high-water mark.

With ``--trace 1`` half the time runs untraced passes and half runs traced
ones; the metrics are the per-layer ones derived from spans (``tracing.py``),
plus ``trace.overhead_frac``.  The spans of the last traced pass are written
to ``.bench_trace/`` in the checkout.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class Pass:
    """One pass over a workload's operation list, each operation guarded."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.results = {}
        self.errors = {}

    def op(self, label, fn, *args):
        if self.tracer is not None:
            self.tracer.op = label
        try:
            value = fn(*args)
        except Exception as e:  # a failed operation is counted, not fatal
            self.errors[label] = f"{type(e).__name__}: {e}"
            value = None
        self.results[label] = value
        return value


class Tally:
    """Operations attempted and failed; a failure is an error or a bad check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, p, checks):
        for label in p.results:
            self.attempted += 1
            if label in p.errors:
                self.failures.append((label, p.errors[label]))
                continue
            try:
                ok = bool(checks[label]())
            except Exception as e:  # a check that cannot run has failed
                self.failures.append((label, f"check raised {type(e).__name__}: {e}"))
                continue
            if not ok:
                self.failures.append((label, "output check failed"))


def measure(wl, seconds, tally, tracer=None):
    """Pass times until ``seconds`` have elapsed; checks each pass's outputs."""
    times = []
    deadline = perf_counter() + seconds
    while not times or perf_counter() < deadline:
        p = Pass(tracer)
        start = perf_counter()
        wl.run_pass(p)
        times.append(perf_counter() - start)
        if tracer is not None:
            tracer.end_pass()
        tally.add(p, wl.checks(p.results))
        if tracer is not None:
            tracer.discard()
    return times


def probe_setup(name, seed):
    """Seconds from starting a fresh process to its inputs being ready.

    Both clocks are CLOCK_MONOTONIC, so the child's reading compares with
    the parent's.
    """
    start = perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - start


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(name, seed, seconds, trace, setup_probes=SETUP_PROBES, **options):
    """Measure one workload; returns (result dict, human-readable lines)."""
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT, **options)
    tally = Tally()
    lines = [f"workload {name}  seed {seed}  trace {trace}"]
    if hasattr(wl, "inputs"):
        lines.append(f"graded automorphism x_i -> c_i*x_i, c = {wl.inputs.scalars}")
    if not trace:
        setup = [probe_setup(name, seed) for _ in range(setup_probes)]
        times = measure(wl, seconds, tally)
        q1, _, q3 = _quartiles(times)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        lines.append(f"setup_s      {metrics['setup_s']['value']:.4f} s   "
                     f"(median of {len(setup)} fresh-process set-ups)")
        lines.append(f"pass_s       {metrics['pass_s']['value']:.4f} s   "
                     f"(q1 {q1:.4f}, q3 {q3:.4f}, n = {len(times)} passes)")
        lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    else:
        plain = measure(wl, seconds / 2, tally)
        with tracing.Tracer() as tracer:
            traced = measure(wl, seconds / 2, tally, tracer)
        values = tracing.median_metrics(tracer.per_pass)
        base = statistics.median(plain)
        values["trace.overhead_frac"] = (statistics.median(traced) - base) / base
        metrics = {n: {"value": values[n], "unit": u}
                   for n, u in tracing.per_layer_names()}
        path = ROOT / ".bench_trace" / f"{name}-seed{seed}.json.gz"
        tracing.write_spans(path, tracer.last, {"workload": name, "seed": seed})
        lines.append(f"{len(plain)} untraced and {len(traced)} traced passes; "
                     f"spans of the last traced pass in {path.relative_to(ROOT)}")
        top = sorted((n for n in values if n.endswith(".self_s")),
                     key=lambda n: -values[n])[:8]
        lines += [f"  {n:<50} {values[n]:.4f} s" for n in top]
    failed = len(tally.failures)
    lines.append(f"fail_frac    {failed / tally.attempted:.4f}   "
                 f"({failed} of {tally.attempted} operations)")
    lines += [f"  FAILED {label}: {why}" for label, why in tally.failures[:10]]
    result = {"correct": failed == 0, "attempted": tally.attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hwprobe" / "__init__.py").is_file():
        print(f"run.py: no hwprobe sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; available: "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, ROOT)
        print(perf_counter())
        return 0
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
