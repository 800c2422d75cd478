"""Record the member and term counts the workloads check against.

    python3 perfbench/record_counts.py

runs one pass of each workload at each size and writes every count it
meets to perfbench/expected.json.  Record only from a commit whose
checks pass; the counts are then what later commits must reproduce.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    expected = {}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            workload = workloads.build(name, 1, size)
            recorder = workloads.Recorder()
            workload.run_pass(recorder)
            if recorder.failed:
                print("%s/%s: %d checks failed, nothing written: %s"
                      % (name, size, recorder.failed, recorder.failures[:3]), file=sys.stderr)
                return 1
            if recorder.expected:
                expected.setdefault(name, {})[size] = recorder.expected
    workloads.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
