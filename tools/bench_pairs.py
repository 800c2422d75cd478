"""Alternating pairs of benchmark runs: a parent revision against the working tree.

Each pair runs ``perfbench/run.py --workload <w> --seed N --seconds S --trace 0``
once in a clean copy of the parent revision (``git archive``) and once in a
copy of the working tree (its tracked and untracked, not ignored files), both
in one temporary directory, so neither side runs from the checkout's own
directory.  Pair i uses seed ``--seed + i`` on every workload and runs the
parent first when i is even.  Run from the repository root:

    python tools/bench_pairs.py --parent HEAD --pairs 10 --seed 2201 --seconds 20
    python tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seed 2201 --seconds 20 \\
        --workload character_walk --claim character_walk:wall_s \\
        --traced character_walk --out BENCH_22.json

For each workload and each end-to-end metric of ``BENCHMARK.json`` it prints
the median and quartiles (``statistics.quantiles(n=4)``) of both sides, the
pairs each side won (parent:change; ties count for neither), the median change with its
base, whether that change stays within the metric's bound, and whether a gain
may be claimed: the change wins at least nine tenths of the pairs and the
medians differ by more than the parent's interquartile range.  ``--traced``
adds five alternating pairs of traced runs (``--trace 1``) of a workload, on
the seeds after the last pair's, and prints each layer's median and
quartiles per side in the same way.  ``--out`` writes every run and summary
as JSON, in the layout of ``BENCH_16.json``.

Stdlib only.  Git is only read (``git archive``, ``rev-parse``, ``ls-files``
and ``status`` without optional locks); the copies and the benchmark's own
output files are deleted at exit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload %s --seed %s --seconds %g --trace %d"
TRACED_PAIRS = 5  # pairs of traced runs per --traced workload


def git(*args):
    return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def extract_parent(rev, dest):
    """The files of ``rev`` in ``dest``, from ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(dest):
    """The working tree's tracked and untracked, not ignored files in ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():  # a tracked file deleted in the tree is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def src_lines(tree):
    """Total lines of ``src/``, as ``perfbench/run.py`` reports them."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((tree / "src").rglob("*.py")))


def run(tree, workload, seed, seconds, trace):
    """The metrics and check counts of one benchmark run in ``tree``, from
    its last-line JSON, or a record naming the error when it gave none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        child = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=False,
                               timeout=20 * seconds + 300)
        last = json.loads(child.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as error:
        print("warning: %s seed %d in the %s tree gave no result (%s)" % (
            workload, seed, tree.name, type(error).__name__), file=sys.stderr)
        return {"error": type(error).__name__}
    record = {name: metric["value"] for name, metric in last["metrics"].items()}
    record.update(checks_attempted=last["attempted"], checks_failed=last["failed"])
    return record


def run_pair(trees, workload, seed, i, seconds, trace):
    """Pair i of runs on ``seed``, both sides, the parent first when i is even."""
    first = SIDES[i % 2]
    pair = {"seed": seed, "first": first}
    for side in (first, SIDES[1 - i % 2]):
        pair[side] = run(trees[side], workload, seed, seconds, trace)
    return pair


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs, metric, better="lower"):
    """Medians, quartiles and wins of one metric over the pairs where both
    sides measured it, and the verdict of the gain rule."""
    both = [p for p in pairs if metric in p["parent"] and metric in p["change"]]
    if len(both) < 2:
        return None
    sign = 1 if better == "lower" else -1
    values = {side: [p[side][metric] for p in both] for side in SIDES}
    out = {side: quartiles(values[side]) for side in SIDES}
    wins = {side: sum(sign * (p[side][metric] - p[other][metric]) < 0 for p in both)
            for side, other in zip(SIDES, SIDES[::-1])}
    parent, change = out["parent"]["median"], out["change"]["median"]
    out.update(change_lower_in_pairs=sum(p["change"][metric] < p["parent"][metric] for p in both),
               wins=wins, pairs=len(both),
               median_change_frac=change / parent - 1 if parent else None,
               gain=wins["change"] >= math.ceil(0.9 * len(both))
               and sign * (parent - change) > out["parent"]["q3"] - out["parent"]["q1"])
    return out


def summarize_layers(pairs, better):
    """``summarize`` of every metric that a run of the pairs measured
    nonzero, in the order first met; ``better`` maps a name to "lower" or
    "higher", and a name it lacks is lower-better."""
    names = dict.fromkeys(name for p in pairs for side in SIDES
                          for name, value in p[side].items()
                          if value and isinstance(value, (int, float)))
    return {name: summarize(pairs, name, better.get(name, "lower")) for name in names}


def within_bound(summary, bound, better="lower"):
    """Whether the change's median is no worse than the parent's by more than ``bound``."""
    frac = summary["median_change_frac"]
    return frac is None or (frac if better == "lower" else -frac) <= bound


def report(title, summaries, bounds=None, name="metric", wide=16):
    """A table of summaries, with the bound and gain verdicts when ``bounds`` is given."""
    print("== " + title)
    print("%-*s %-32s %-32s %-6s %8s" % (
        wide, name, "parent median [q1-q3]", "change median [q1-q3]", "wins", "change")
        + (" %6s %5s" % ("bound", "gain") if bounds else ""))
    for metric, s in summaries.items():
        if s is None:
            print("%-*s fewer than two pairs measured it" % (wide, metric))
            continue
        sides = ["%.5g [%.5g-%.5g]" % (s[side]["median"], s[side]["q1"], s[side]["q3"])
                 for side in SIDES]
        frac = s["median_change_frac"]
        print("%-*s %-32s %-32s %-6s %+7.1f%%" % (
            wide, metric, *sides, "%d:%d" % (s["wins"]["parent"], s["wins"]["change"]),
            100 * frac if frac is not None else math.nan) + (" %6s %5s" % (
                "ok" if within_bound(s, bounds[metric][0], bounds[metric][1]) else "OVER",
                "yes" if s["gain"] else "no") if bounds else ""), flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every one)")
    parser.add_argument("--traced", action="append", default=[],
                        help="a workload to run traced in %d pairs (repeatable)" % TRACED_PAIRS)
    parser.add_argument("--claim", help="workload:metric of the claimed gain, for --out")
    parser.add_argument("--title", default="", help="title of the --out record")
    parser.add_argument("--out", type=Path, help="write the runs and summaries as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.claim and args.claim.count(":") != 1:
        parser.error("--claim takes workload:metric")
    return args


def main(argv=None):
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [args.seed + i for i in range(args.pairs)]
    record = {
        "title": args.title,
        "description": "perfbench end-to-end metrics for the parent and this change, in "
                       "alternating pairs: pair i runs the parent first when i is even.  Each "
                       "run is '%s' in its own clean copy (git archive of the parent, a copy of "
                       "the working tree); every value is the run's last-line JSON.  Quartiles "
                       "are statistics.quantiles(n=4).  Written by tools/bench_pairs.py."
                       % (COMMAND % ("<w>", "N", args.seconds, 0)),
        "command": COMMAND % ("<w>", "N", args.seconds, 0),
        "host": {"python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "cpu_count": os.cpu_count()},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        extract_parent(args.parent, trees["parent"])
        copy_working_tree(trees["change"])
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
        record["parent"] = {"git_sha": git("rev-parse", args.parent).decode().strip(),
                            "src_lines": src_lines(trees["parent"])}
        record["change"] = {"git_sha": git("rev-parse", "HEAD").decode().strip(),
                            "src_lines": src_lines(trees["change"])}
        if dirty:
            record["change"]["note"] = "this commit plus the working tree's uncommitted changes"
        runs = {w: [] for w in workloads}
        for i, seed in enumerate(seeds):
            for workload in workloads:
                pair = run_pair(trees, workload, seed, i, args.seconds, 0)
                runs[workload].append(pair)
                print("pair %d/%d %s %s" % (i + 1, args.pairs, workload, json.dumps(pair)),
                      flush=True)
        record["workloads"] = {}
        for workload, pairs in runs.items():
            summaries = {m: summarize(pairs, m, bounds[m][1]) for m in bounds}
            failed = {side: sum(p[side].get("checks_failed", 1) for p in pairs) for side in SIDES}
            report("%s   failed checks: parent %d, change %d" % (
                workload, failed["parent"], failed["change"]), summaries, bounds)
            record["workloads"][workload] = {"seeds": seeds, "pairs": pairs,
                                             "summary": summaries, "checks_failed": failed}
        better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
        trace_seeds = [seeds[-1] + 1 + i for i in range(TRACED_PAIRS)]
        for workload in args.traced:
            pairs = []
            for i, seed in enumerate(trace_seeds):
                pairs.append(run_pair(trees, workload, seed, i, args.seconds, 1))
                print("traced pair %d/%d %s" % (i + 1, TRACED_PAIRS, workload), flush=True)
            summaries = summarize_layers(pairs, better)
            report("traced " + workload, summaries, name="layer", wide=44)
            record["traced_" + workload] = {
                "command": COMMAND % (workload, "N", args.seconds, 1),
                "note": "per-layer values are the traced runs' last-line metrics, unscaled, in "
                        "alternating pairs (pair i runs the parent first when i is even); the "
                        "summary covers every metric nonzero in some run",
                "seeds": trace_seeds, "pairs": pairs, "summary": summaries,
            }
    if args.claim:
        workload, metric = args.claim.split(":")
        s = record["workloads"][workload]["summary"][metric]
        record["claim"] = {"workload": workload, "metric": metric,
                           "parent_median": s["parent"]["median"],
                           "change_median": s["change"]["median"],
                           "change_frac": s["median_change_frac"],
                           "parent_iqr": s["parent"]["q3"] - s["parent"]["q1"],
                           "change_lower_in_pairs": s["change_lower_in_pairs"],
                           "pairs": s["pairs"], "gain": s["gain"]}
    if args.out:
        order = ["title", "claim", "description", "command", "host", "parent", "change",
                 "workloads"]
        record = {key: record[key] for key in order if key in record} | record
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print("written to %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
