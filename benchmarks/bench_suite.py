"""Time every catalog check in-process at the quick and full suite levels.

Run: python benchmarks/bench_suite.py [--label NAME]

After one untimed warm-up suite per level, runs each level's suite RUNS
times, alternating quick and full, and records the median of the whole
suite's wall time and, per catalog id, the median of the summed
elapsed_ms of its reports (a check with a parameter grid sums its grid
points). Every suite must pass. The same entry holds the product sides
alone: per series identity, the median of the summed time of rhs_series
at every full-level grid point and box, and for eq20 the time of
f_recurrence at the full level's n_max, t and box, after one untimed
pass. The entry, with the machine (cores, Python, numpy, whether numba
was loaded), is stored in OUT under --label; entries under other labels
are kept, so one file can hold a run before and a run after a change.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from functools import partial

import numpy as np

from partbij.verify import _suite_tasks, f_recurrence, rhs_series, run_suite

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


def series_rows():
    """(id, call) for each product side the full suite expands: every
    series identity's rhs_series at each grid point and its box, and
    eq20's f_recurrence at its n_max, t and box."""
    rows = []
    for task in _suite_tasks("full"):
        entry, params, box = task.args  # partial(_run, entry, params, box)
        if entry.lhs is not None:
            rows.append((entry.id, partial(rhs_series, entry.id, params, box)))
        elif entry.id == "eq20":
            rows.append((entry.id, partial(f_recurrence, params["n_max"],
                                           params["t"], box)))
    return rows


def time_series(runs):
    """Per id, the median over runs of the summed ms of its series_rows,
    after one untimed pass."""
    rows = series_rows()
    samples = {}
    for run in range(runs + 1):  # run 0 is the untimed pass
        sums = {}
        for ident, call in rows:
            start = time.perf_counter()
            call()
            ms = (time.perf_counter() - start) * 1000.0
            sums[ident] = sums.get(ident, 0.0) + ms
        for ident, ms in sums.items():
            if run:
                samples.setdefault(ident, []).append(ms)
    return {i: round(statistics.median(v), 3) for i, v in samples.items()}


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
        "series_ms": time_series(RUNS),
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
    print("full product sides:")
    for ident, ms in entry["series_ms"].items():
        print(f"  {ident:<12} {ms:8.3f} ms")


if __name__ == "__main__":
    main()
