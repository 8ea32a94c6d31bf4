"""Time every catalog check in-process at the quick and full suite levels.

Run: python benchmarks/bench_suite.py [--label NAME]

After one untimed warm-up suite per level, runs each level's suite RUNS
times, alternating quick and full, and records the median of the whole
suite's wall time and, per catalog id, the median of the summed
elapsed_ms of its reports (a check with a parameter grid sums its grid
points). Every suite must pass. The entry, with the machine (cores,
Python, numpy, whether numba was loaded), is stored in OUT under
--label; entries under other labels are kept, so one file can hold
a run before and a run after a change.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from partbij.verify import run_suite

LEVELS = ("quick", "full")
RUNS = 7
OUT = "BENCH_suite.json"


def timed_suite(level):
    start = time.perf_counter()
    suite = run_suite(level)
    total_ms = (time.perf_counter() - start) * 1000.0
    if not suite.passed:
        failed = [r.id for r in suite.failures()]
        raise SystemExit(f"{level} suite failed: {failed}")
    checks = {}
    for report in suite.reports:
        checks[report.id] = checks.get(report.id, 0.0) + report.elapsed_ms
    return total_ms, checks


def measure():
    samples = {level: [] for level in LEVELS}
    for level in LEVELS:
        timed_suite(level)  # warm-up: imports and first-call set-up
    for _ in range(RUNS):
        for level in LEVELS:
            samples[level].append(timed_suite(level))
    out = {}
    for level, rows in samples.items():
        ids = rows[0][1]
        out[level] = {
            "suite_ms": round(statistics.median(t for t, _ in rows), 2),
            "checks_ms": {i: round(statistics.median(c[i] for _, c in rows), 2)
                          for i in ids},
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    args = parser.parse_args()
    entry = {
        "machine": {"cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "numba_loaded": "numba" in sys.modules},
        "runs": RUNS,
        "levels": measure(),
    }
    try:
        with open(OUT) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[args.label] = entry
    with open(OUT, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    for level in LEVELS:
        print(f"{level}: suite {entry['levels'][level]['suite_ms']:.1f} ms")
        for ident, ms in entry["levels"][level]["checks_ms"].items():
            print(f"  {ident:<12} {ms:8.2f} ms")


if __name__ == "__main__":
    main()
