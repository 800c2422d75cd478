"""Benchmark of partition-forge: time to verdict on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in this process, single-threaded: several timed set-ups,
one untimed warm-up pass, then timed passes until ``--seconds`` is used up.
With ``--trace 0`` every pass runs untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics of the traced passes are reported.  ``--workload all``
runs every workload in its own child process, one after another.

End-to-end times are scaled to a nominal host speed, measured by a fixed
reference loop between requests (see ``HostClock``); the raw times are
printed beside them and kept in the details file.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when a check failed and 2 on a usage error.
Run metadata, failures and the trace's spans go to ``perfbench/out/``.
See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, layer_metrics, layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

SETUP_REPEATS = 5
MIN_PASSES = 3  # of each kind (untraced, traced) in one run
REFERENCE_REPEATS = 3
SEGMENT_S = 0.2
# the reference loop's time on an uncontended core of the host the bounds
# were set on (2-core x86-64 container, CPython 3.11.7); it only fixes the
# scale of the reported times
REFERENCE_NOMINAL_S = 0.0065

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
}


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="partition-forge benchmark")
    parser.add_argument("--workload", required=True, choices=workload_names + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def run_metadata(args):
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
    src_lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                    for path in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "src_lines": src_lines,
    }


def purge_package():
    for key in [k for k in sys.modules
                if k == "partition_forge" or k.startswith("partition_forge.")]:
        del sys.modules[key]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _reference_work():
    counts = {}
    for i in range(20000):
        key = (i % 1000, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def reference_time():
    """The host's current speed: median time of a fixed pure-Python loop.

    The loop runs no package code, so a change to the package cannot move
    it; the collector is off so that the package's live objects cannot
    either.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


class HostClock:
    """Scales measured times to the nominal host speed.

    On a shared host the speed of a core changes by up to 1.6x for seconds
    to minutes at a time, as other tenants come and go.  So the reference
    loop runs after every set-up and, between requests, after every
    SEGMENT_S of request time.  Each request's time is multiplied by
    REFERENCE_NOMINAL_S over the mean of the reference times that bracket
    its segment.  Raw times are kept as well.
    """

    def __init__(self):
        self.ref = reference_time()
        self.refs = [self.ref]
        self.raw = []  # raw set-up times and raw pass times (sums of requests)
        self._open = []  # raw latencies of the open segment
        self._open_s = 0.0
        self._scaled = []  # scaled latencies of the closed segments of this pass
        self._pass_raw = 0.0

    def _factor(self):
        ref = reference_time()
        factor = REFERENCE_NOMINAL_S / ((self.ref + ref) / 2)
        self.ref = ref
        self.refs.append(ref)
        return factor

    def time(self, fn, *args):
        """Run fn once; return its result and its scaled time."""
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        self.raw.append(elapsed)
        return result, elapsed * self._factor()

    def request_done(self, latency):
        self._open.append(latency)
        self._open_s += latency
        self._pass_raw += latency
        if self._open_s >= SEGMENT_S:
            self._close()

    def _close(self):
        factor = self._factor()
        self._scaled += [t * factor for t in self._open]
        self._open, self._open_s = [], 0.0

    def end_pass(self):
        """Scaled latencies of the pass's requests; the next pass starts afresh."""
        if self._open:
            self._close()
        scaled, self._scaled = self._scaled, []
        self.raw.append(self._pass_raw)
        self._pass_raw = 0.0
        return scaled


def measure(workload, seconds, checks, clock, tracer=None):
    """Warm up, then time passes for about ``seconds``.

    Returns scaled untraced pass times, the scaled request latencies of each
    untraced pass, scaled traced pass times and the per-layer metrics of
    each traced pass.
    """
    workload.run_pass(checks)  # warm-up: caches fill, lazy set-up finishes
    walls, latencies, traced_walls, layers = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is not None and index % 2:
            tracer.install()
            try:
                with tracer.span("pass", workload=workload.name, index=index):
                    workload.run_pass(checks, clock, tracer=tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(clock.end_pass()))
            layers.append(layer_metrics(tracer.take_stats()))
        else:
            workload.run_pass(checks, clock)
            latencies.append(clock.end_pass())
            walls.append(sum(latencies[-1]))
        index += 1
        enough = len(walls) >= MIN_PASSES and (tracer is None or len(traced_walls) >= MIN_PASSES)
        if enough and time.perf_counter() - start + clock.raw[-1] > seconds:
            return walls, latencies, traced_walls, layers


def run_one(args):
    meta = run_metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    clock = HostClock()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        purge_package()
        workload, elapsed = clock.time(workloads.build, args.workload, args.seed, args.size)
        setup_times.append(elapsed)
    raw_setup = list(clock.raw)

    checks = workloads.Checks(workload.expected)
    tracer = Tracer() if args.trace else None
    walls, latencies, traced_walls, layers = measure(workload, args.seconds, checks,
                                                     clock, tracer)
    wall = statistics.median(walls)
    # request latency percentiles are taken per pass, then the median over passes
    p50s = [statistics.median(lat) for lat in latencies]
    p99s = [percentile(sorted(lat), 0.99) for lat in latencies]

    if args.trace:
        values = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
        values["trace.overhead_frac"] = statistics.median(traced_walls) / wall - 1
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "request_p50_ms": statistics.median(p50s) * 1e3,
            "request_p99_ms": statistics.median(p99s) * 1e3,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    per_pass = len(workload.requests)
    beyond_p99 = per_pass - math.ceil(0.99 * per_pass)
    raw_passes = clock.raw[SETUP_REPEATS:]
    print("setup_s            %.4f s  (median of %d set-ups; raw %.4f s)" % (
        statistics.median(setup_times), len(setup_times), statistics.median(raw_setup)))
    print("wall_s             %.4f s  (median of %d untraced passes; raw median of all "
          "passes %.4f s)" % (wall, len(walls), statistics.median(raw_passes)))
    print("checks_failed_frac %.6g ratio  (%d failed of %d checks)" % (
        checks.failed / checks.attempted, checks.failed, checks.attempted))
    print("requests           %d per pass (%d beyond its p99), %d untraced passes" % (
        per_pass, beyond_p99, len(walls)))
    for name, metric in metrics.items():
        if name not in ("setup_s", "wall_s"):
            print("%-18s %.6g %s" % (name, metric["value"], metric["unit"]))
    if tracer is not None:
        print("dropped targets: " + ("; ".join(tracer.dropped) or "none"))
    for what in checks.failures:
        print("FAILED " + what)

    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "failures": checks.failures,
              "setup_times_s": setup_times, "pass_times_s": walls,
              "traced_pass_times_s": traced_walls,
              "raw_times_s": clock.raw, "reference_times_s": clock.refs}
    if tracer is not None:
        record["dropped"] = tracer.dropped
        record["spans"] = tracer.spans
    out_file = OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(record))
    print("details written to %s" % out_file.relative_to(ROOT))

    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}), flush=True)
    return 0 if checks.failed == 0 else 1


def run_all(args, names):
    """Every workload in its own child process; a summary line per workload."""
    results, status = {}, 0
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        print("== %s" % name, flush=True)
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        lines = child.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = max(status, child.returncode)
    print("== summary")
    for name, result in results.items():
        frac = result["failed"] / result["attempted"]
        print("%-16s checks_failed_frac %.6g ratio (%d of %d)  %s" % (
            name, frac, result["failed"], result["attempted"],
            "  ".join("%s %.6g %s" % (m, v["value"], v["unit"])
                      for m, v in result["metrics"].items()
                      if m in END_TO_END_UNITS or m == "trace.overhead_frac")))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, m): v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return status


def main(argv=None):
    args = parse_args(argv, workloads.WORKLOADS)
    missing = [p for p in (SRC / "partition_forge" / "__init__.py",
                           ROOT / "demos" / "energies") if not p.exists()]
    if missing:
        print("error: %s not found; run from a checkout of partition-forge"
              % ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    # the package reads this in cli_mix; the benchmark runs single-threaded
    os.environ.pop("PARTITION_FORGE_THREADS", None)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
