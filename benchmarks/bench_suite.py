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
pass. Under lhs_ms it holds the enumeration sides the same way: per
series identity, lhs_series at every full-level grid point and box.
Under ladder_ms it holds the enumeration sides (lhs_series) at the
boxes of LHS_LADDER, near the tops of their box ladders, each box checked
once against its closed form, and under ladder_peak_mb the tracemalloc
peak of one call of each; under rhs_ladder_ms the product sides of
RHS_LADDER, each box checked once against its enumeration side. Under
box_row_ms it holds the enumeration sides of BOX_ROW_LADDER, whose state
rows have near _accel._BOX_ROW_CELLS cells, once with every state row
summed whole and once with in-box sums only. Under
domain_s it holds the checks over a whole partition domain at the sizes
of DOMAIN_CHECKS, each of which must pass, the median seconds of
DOMAIN_RUNS calls. ladder_ms, box_row_ms and domain_s are calibrated: each
call is timed between two runs of a fixed pure-Python loop, and scaled
by CAL_NOMINAL over their mean, since this machine's speed drifts. It
also holds the
scalar maps alone: per map and inverse, the median of the summed time
of its calls on the map mix (see time_maps), every round trip checked.
Under cli_ms it holds in-process command lines: per command of
CLI_CALLS, the median ms of one cli.main call, output captured, after
one untimed pass. Under kernels_ms it holds the hot kernels on fixed
inputs (see kernel_rows), the median ms of each row after one untimed
pass, every row's output checked once. The entry, with the machine
(cores, Python, numpy, whether numba was loaded), is stored in OUT under
--label; entries under other labels are kept, so one file can hold a run
before and a run after a change.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc
from functools import partial

import numpy as np

from partbij import _accel, cli
from partbij._accel import partition_histogram
from partbij.bijections import (
    bessenrodt,
    bessenrodt_inverse,
    color_conjugate,
    color_conjugate_inverse,
    color_conjugate_inverse_rows,
    color_conjugate_rows,
    generalized_hook_map,
    generalized_hook_map_rows,
    mork,
    mork_inverse,
)
from partbij.partitions import (
    Partition,
    enumerate_partitions,
    partition_domain,
    partition_numbers,
    to_modular,
)
from partbij.series import INFINITY, TruncatedSeries, _divide
from partbij.verify import (
    IDENTITY_IDS,
    _colored_classes,
    _column_chunks,
    _columns_equal,
    _domain,
    _parts,
    _suite_tasks,
    f_recurrence,
    lhs_series,
    rhs_series,
    run_suite,
    run_verifier,
    verify_identity,
)

LEVELS = ("quick", "full")
RUNS = 7
OUT = "BENCH_suite.json"
# (id, params, box) of the enumeration sides in ladder_ms and
# ladder_peak_mb, near the tops of their box ladders, where the histogram
# kernel takes almost all of their time; thm5.1 at 238 scans for a wrap in
# every row, and thm4.2 at 262 is a distinct run at its int64 wall
LHS_LADDER = (
    ("thm5.1", {}, {"q": 120, "z": 120}),
    ("thm5.1", {}, {"q": 200, "z": 200}),
    ("thm5.1", {}, {"q": 238, "z": 238}),
    ("eq14", {}, {"q": 300, "z": 300}),
    ("thm9", {}, {"q": 60, "z": 60, "s": 60}),
    ("thm3.1", {}, {"q": 208, "z": 416}),
    ("thm3.2", {}, {"q": 250, "z": 250}),
    ("cor10", {}, {"q": 180, "z": 180}),
    ("thm4.2", {}, {"q": 200, "z": 200}),
    ("thm4.2", {}, {"q": 262, "z": 262}),
)
# (id, params, box) of the product sides in rhs_ladder_ms: eq3 at its int64
# wall, where its product side is almost all of its time, and the other
# closed forms at or near the tops of their box ladders
RHS_LADDER = (
    ("eq3", {}, {"q": 466, "z": 932}),
    ("thm5.1", {}, {"q": 238, "z": 238}),
    ("thm4.1", {}, {"q": 262, "z": 262}),
    ("thm4.2", {}, {"q": 248, "z": 248}),
    ("thm8.1", {"t": 4, "r": 4}, {"q": 82, "z": 82}),
)
# (id, params, box) of the enumeration sides in box_row_ms: state rows of
# 2,401, 4,096 and 9,409 cells, below, at and above
# _accel._BOX_ROW_CELLS, one run of non-distinct and one of distinct rows
BOX_ROW_LADDER = (
    ("thm5.1", {}, {"q": 48, "z": 48}),
    ("thm5.1", {}, {"q": 63, "z": 63}),
    ("thm5.1", {}, {"q": 96, "z": 96}),
    ("thm4.2", {}, {"q": 48, "z": 48}),
    ("thm4.2", {}, {"q": 63, "z": 63}),
    ("thm4.2", {}, {"q": 96, "z": 96}),
)
# (id, flags) of the checks over a whole domain in domain_s: thm7's array
# round trips and class count, furtherwork's hook maps and prop1's inverse
# map at sizes a few times their full levels'
DOMAIN_CHECKS = (
    ("thm7", {"t": 2, "r": 1, "n": 50}),
    ("furtherwork", {"m": 4, "n": 40}),
    ("prop1", {"n": 104}),
)
DOMAIN_RUNS = 5
# seconds that calibration() took on the machine of the recorded entries
# at full speed
CAL_NOMINAL = 0.02

# the map mix: every partition of size <= MAP_SMALL_MAX and MAP_LARGE_COUNT
# uniform random partitions of MAP_LARGE_SIZE drawn from MAP_SEED, through
# mork, bessenrodt (on the odd parts 2*lam_i - 1), color_conjugate at each
# of COLOR_TR, each with its inverse, and the hook map at each of HOOK_M
MAP_SMALL_MAX = 20
MAP_LARGE_SIZE = 300
MAP_LARGE_COUNT = 200
MAP_SEED = 1
COLOR_TR = ((1, 1), (2, 1), (3, 2), (4, 3))
HOOK_M = (2, 3, 5)
MAP_NAMES = ("mork", "mork_inverse", "bessenrodt", "bessenrodt_inverse",
             "color_conjugate", "color_conjugate_inverse",
             "generalized_hook_map")

# command lines for time_cli: five `series --json` calls at closed-form
# boxes, above the quick level, then the bijection and table commands
CLI_CALLS = {
    "series thm3.1": ["series", "thm3.1", "--json", "--max-q", "18",
                      "--max-z", "36"],
    "series thm5.2": ["series", "thm5.2", "--json", "--max-q", "18",
                      "--max-z", "18"],
    "series thm8.1": ["series", "thm8.1", "--json", "--t", "3", "--r", "2",
                      "--max-q", "15", "--max-z", "15"],
    "series thm9": ["series", "thm9", "--json", "--t", "3", "--r", "1",
                    "--max-q", "12", "--max-z", "12", "--max-s", "12"],
    "series eq14": ["series", "eq14", "--json", "--n", "6", "--max-q", "15",
                    "--max-z", "15"],
    "bijection mork": ["bijection", "mork", "--input", "[9, 7, 7, 4, 2, 1]"],
    "bijection color-conjugate": ["bijection", "color-conjugate", "--t", "3",
                                  "--r", "2", "--input", "[9, 7, 7, 4, 2, 1]"],
    "bijection hook-map": ["bijection", "hook-map", "--m", "3",
                           "--input", "[9, 7, 7, 4, 2, 1]"],
    "table bessenrodt": ["table", "bessenrodt", "--n", "12", "--json"],
}


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


def series_rows(side=rhs_series):
    """(id, call) for each side the full suite expands: every series
    identity's side (rhs_series or lhs_series) at each grid point and its
    box, and for the product side eq20's f_recurrence at its n_max, t and
    box."""
    rows = []
    for task in _suite_tasks("full"):
        ident, params, box = task.args  # partial(verify_identity, ...)
        if ident in IDENTITY_IDS:
            rows.append((ident, partial(side, ident, params, box)))
        elif ident == "eq20" and side is rhs_series:
            rows.append((ident, partial(f_recurrence, params["n_max"],
                                        params["t"], box)))
    return rows


def _side_rows(ladder, side):
    """(name, call) for side (lhs_series or rhs_series) at each (id,
    params, box) of ladder; each box must verify."""
    rows = []
    for ident, params, box in ladder:
        if not verify_identity(ident, params, box).passed:
            raise SystemExit(f"{ident} {params} failed at {box}")
        name = " ".join([ident, *(f"{k}={v}" for k, v in params.items()),
                         ",".join(f"{v}={b}" for v, b in box.items())])
        rows.append((name, partial(side, ident, params, box)))
    return rows


def ladder_rows():
    """(name, call) for the enumeration side of each LHS_LADDER entry."""
    return _side_rows(LHS_LADDER, lhs_series)


def rhs_ladder_rows():
    """(name, call) for the product side of each RHS_LADDER entry."""
    return _side_rows(RHS_LADDER, rhs_series)


def _summed(row_cells, call):
    """call() with _accel._BOX_ROW_CELLS at row_cells."""
    saved = _accel._BOX_ROW_CELLS
    _accel._BOX_ROW_CELLS = row_cells
    try:
        return call()
    finally:
        _accel._BOX_ROW_CELLS = saved


def box_row_rows():
    """(name, call) for the enumeration side of each BOX_ROW_LADDER entry,
    with every state row summed whole and with in-box sums only."""
    return [(f"{name} {path}", partial(_summed, row_cells, call))
            for name, call in _side_rows(BOX_ROW_LADDER, lhs_series)
            for path, row_cells in (("whole", float("inf")), ("in-box", 1))]


def domain_rows():
    """(name, call) for each check of DOMAIN_CHECKS, which must pass."""
    rows = []
    for ident, flags in DOMAIN_CHECKS:
        call = partial(run_verifier, ident, **flags)
        if not call().passed:
            raise SystemExit(f"{ident} {flags} failed")
        name = " ".join([ident, *(f"{k}={v}" for k, v in flags.items())])
        rows.append((name, call))
    return rows


def calibration():
    """Seconds of a fixed pure-Python loop, which no change to partbij
    speeds up or slows down."""
    start = time.perf_counter()
    sum(i * i for i in range(300_000))
    return time.perf_counter() - start


def time_calibrated(runs, rows, scale=1000.0):
    """Per name, the median over runs of the calibrated time of one call
    of its row, times scale (ms by default), after one untimed pass:
    each call's time times CAL_NOMINAL over the mean of the calibrations
    just before and after it."""
    samples = {name: [] for name, _ in rows}
    for run in range(runs + 1):  # run 0 is the untimed pass
        for name, call in rows:
            before = calibration()
            start = time.perf_counter()
            call()
            took = time.perf_counter() - start
            speed = CAL_NOMINAL / ((before + calibration()) / 2)
            if run:
                samples[name].append(took * speed * scale)
    return {name: round(statistics.median(v), 3)
            for name, v in samples.items()}


def peak_mb(rows):
    """Per name, the tracemalloc peak in MB of one call of its row."""
    peaks = {}
    for name, call in rows:
        tracemalloc.start()
        try:
            call()
            peaks[name] = round(tracemalloc.get_traced_memory()[1] / 1e6, 1)
        finally:
            tracemalloc.stop()
    return peaks


def kernel_rows():
    """(name, call) for the hot kernels on fixed inputs, each output
    checked once:
    - the partition histogram by (weight, size) at t = 2, r = 1 with
      distinct parts, q <= 30, z <= 90, against thm3.1's closed form;
    - thm8.1's histogram at t = 4, r = 4, q, z <= 15, against its closed
      form's total, 67,379,212;
    - thm8.2's colour-profile histogram at t = 3, q <= 12, z_i <= 6,
      against its closed form;
    - thm7's coloured class rows at t = 3, r = 1, size <= 24, which must
      count every partition of size <= 24 once;
    - thm7's array round trip at t = 3, r = 1 over the kept domain of
      size 24, in thm7's column ranges, which must give back every
      partition;
    - the array hook map at m = 2..4 over the kept parts of size 20, in
      furtherwork's column ranges, whose images must sum to their sizes;
    - the partition domain of size <= 40, and of size <= 80 with distinct
      parts, built afresh, whose column counts must be the partition
      numbers' sums;
    - Pochhammer division 1/(zq;q)_inf^2 at q, z <= 20 and 60, whose
      largest coefficient at 60 must be 71,699,042.
    """
    def check(ok, message):
        if not ok:
            raise SystemExit(message)

    distinct = partial(partition_histogram, ("weight", "size"), (30, 90),
                       t=2, r=1, distinct=True)
    check(np.array_equal(distinct(), rhs_series(
        "thm3.1", {}, {"q": 30, "z": 90}).coeffs),
        "histogram q<=30 z<=90 distinct differs from thm3.1's closed form")
    thm81 = partial(partition_histogram, ("weight", "first"), (15, 15),
                    t=4, r=4)
    total = int(thm81().sum())
    check(total == 67_379_212,
          f"thm8.1 t=4 r=4 q,z<=15 counted {total}, expected 67379212")
    thm82 = partial(partition_histogram, ("weight",) + ("profile",) * 3,
                    (12, 6, 6, 6), t=3)
    check(np.array_equal(thm82(), rhs_series(
        "thm8.2", {"t": 3}, {"q": 12, "z1": 6, "z2": 6, "z3": 6}).coeffs),
        "thm8.2 t=3 q<=12 z_i<=6 histogram differs from its closed form")

    # with r = 1 the head is empty, so the classes count every partition
    everyone = sum(partition_numbers(24))
    classes = partial(_colored_classes, 24,
                      [range(i, 25, 3) for i in (1, 2, 3)])
    total = int(classes()[:, -1].sum())
    check(total == everyone, f"thm7 t=3 r=1 size<=24 pair side counted "
                             f"{total}, expected {everyone}")
    parts, _, heights = _domain(24)

    def round_trip():
        back = 0
        for lam, cols in _column_chunks(26, parts, heights):
            nu, mu, colors = color_conjugate_rows(lam, 3, 1, cols)
            rebuilt, valid = color_conjugate_inverse_rows(nu, mu, colors, 3, 1)
            back += int((valid & _columns_equal(rebuilt, lam)).sum())
        return back

    back = round_trip()
    check(back == everyone, f"thm7 t=3 r=1 size<=24 array round trip gave "
                            f"back {back} partitions, expected {everyone}")
    chunks = list(_column_chunks(22, *_parts(20, False)))

    def hook_maps():
        return [(n, generalized_hook_map_rows(lam, m)[0])
                for lam, n in chunks for m in (2, 3, 4)]

    check(all((image.sum(axis=0) == n).all() for n, image in hook_maps()),
          "hook map images do not sum to their partitions' sizes")

    def domains():
        return [partition_domain(40), partition_domain(80, distinct=True)]

    for (cols, _), (n_max, apart) in zip(domains(),
                                        [(40, False), (80, True)]):
        want = sum(partition_numbers(n_max, distinct=apart))
        check(cols.shape[1] == want,
              f"partition domain size<={n_max} distinct={apart} has "
              f"{cols.shape[1]} columns, expected {want}")

    zq = ({"q": 1, "z": 1}, {"q": 1}, INFINITY)

    def shifts(bound):
        f = TruncatedSeries.constant({"q": bound, "z": bound}, 1)
        _divide(f.coeffs, f.variables, [zq, zq])
        return f

    top = int(shifts(60).coeffs.max())
    check(top == 71_699_042, f"1/(zq;q)_inf^2 on q,z<=60 has largest "
                             f"coefficient {top}, expected 71699042")
    return [
        ("histogram q<=30 z<=90 distinct", distinct),
        ("histogram thm8.1 t=4 r=4 q,z<=15", thm81),
        ("histogram thm8.2 t=3 q<=12 z_i<=6", thm82),
        ("thm7 colored class rows t=3 r=1 size<=24", classes),
        ("thm7 array round trip t=3 r=1 size<=24", round_trip),
        ("hook map rows m=2..4 size<=20", hook_maps),
        ("partition domain size<=40, distinct size<=80", domains),
        ("pochhammer divide 1/(zq;q)_inf^2 q,z<=20", partial(shifts, 20)),
        ("pochhammer divide 1/(zq;q)_inf^2 q,z<=60", partial(shifts, 60)),
    ]


def time_series(runs, rows=None):
    """Per id, the median over runs of the summed ms of its rows (by
    default series_rows()), after one untimed pass."""
    rows = series_rows() if rows is None else rows
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


def random_partitions(n, count, seed):
    """count uniform random partitions of n. With fits[m][k] the number of
    partitions of m with parts <= k, the largest part j of a partition of
    m with parts <= k is drawn with weight fits[m - j][j], and then the
    rest of the partition with parts <= j."""
    fits = [[1] * (n + 1)]
    for m in range(1, n + 1):
        row = [0]
        for k in range(1, n + 1):
            row.append(row[-1] + (fits[m - k][k] if k <= m else 0))
        fits.append(row)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = k = n
        parts = []
        while m:
            x = rng.randrange(fits[m][k])
            j = min(k, m)
            while x >= fits[m - j][j]:
                x -= fits[m - j][j]
                j -= 1
            parts.append(j)
            m -= j
            k = j
        out.append(Partition(parts))
    return out


def time_maps(runs):
    """Per name in MAP_NAMES, the median over runs of the summed ms of its
    calls on the map mix. Every round trip must return its input, and
    every hook-map image must sum to its input's size."""
    lams = [p for n in range(MAP_SMALL_MAX + 1)
            for p in enumerate_partitions(n)]
    lams += random_partitions(MAP_LARGE_SIZE, MAP_LARGE_COUNT, MAP_SEED)
    omegas = [Partition([2 * p - 1 for p in lam]) for lam in lams]
    samples = {name: [] for name in MAP_NAMES}
    for _ in range(runs):
        sums = dict.fromkeys(MAP_NAMES, 0.0)

        def timed(name, fn, args):
            start = time.perf_counter()
            out = [fn(*a) for a in args]
            sums[name] += (time.perf_counter() - start) * 1000.0
            return out

        def check(name, got, want):
            if got != want:
                raise SystemExit(f"{name} round trip failed")

        delta = timed("mork", mork, [(x,) for x in lams])
        check("mork", timed("mork_inverse", mork_inverse,
                            [(d,) for d in delta]), lams)
        delta = timed("bessenrodt", bessenrodt, [(w,) for w in omegas])
        check("bessenrodt", timed("bessenrodt_inverse", bessenrodt_inverse,
                                  [(d,) for d in delta]), omegas)
        for t, r in COLOR_TR:
            pairs = timed("color_conjugate", color_conjugate,
                          [(x, t, r) for x in lams])
            check("color_conjugate",
                  timed("color_conjugate_inverse", color_conjugate_inverse,
                        [(nu, mu, t, r) for nu, mu in pairs]), lams)
        for m in HOOK_M:
            diagrams = [to_modular(x, m) for x in lams]
            images = timed("generalized_hook_map", generalized_hook_map,
                           [(d,) for d in diagrams])
            check("generalized_hook_map", [sum(i.parts) for i in images],
                  [sum(x) for x in lams])
        for name, ms in sums.items():
            samples[name].append(ms)
    return {name: round(statistics.median(v), 3)
            for name, v in samples.items()}


def time_cli(runs):
    """Per command in CLI_CALLS, the median over runs of the ms of one
    in-process cli.main call with its output captured, after one untimed
    pass. Every call must exit 0 with nothing on stderr."""
    samples = {name: [] for name in CLI_CALLS}
    for run in range(runs + 1):  # run 0 is the untimed pass
        for name, argv in CLI_CALLS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                start = time.perf_counter()
                code = cli.main(argv)
                ms = (time.perf_counter() - start) * 1000.0
            if code != 0 or err.getvalue():
                raise SystemExit(f"partbij {' '.join(argv)}: exit {code}, "
                                 f"{err.getvalue()!r}")
            if run:
                samples[name].append(ms)
    return {name: round(statistics.median(v), 3)
            for name, v in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    args = parser.parse_args()
    ladder = ladder_rows()
    entry = {
        "machine": {"cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "numba_loaded": "numba" in sys.modules},
        "runs": RUNS,
        "levels": measure(),
        "series_ms": time_series(RUNS),
        "lhs_ms": time_series(RUNS, series_rows(lhs_series)),
        "ladder_ms": time_calibrated(RUNS, ladder),
        "ladder_peak_mb": peak_mb(ladder),
        "rhs_ladder_ms": time_series(RUNS, rhs_ladder_rows()),
        "box_row_ms": time_calibrated(RUNS, box_row_rows()),
        "domain_s": time_calibrated(DOMAIN_RUNS, domain_rows(), scale=1.0),
        "maps_ms": time_maps(RUNS),
        "cli_ms": time_cli(RUNS),
        "kernels_ms": time_series(RUNS, kernel_rows()),
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
    for key, title in (("series_ms", "full product sides"),
                       ("lhs_ms", "full enumeration sides"),
                       ("ladder_ms", "ladder enumeration sides"),
                       ("ladder_peak_mb", "ladder enumeration peaks"),
                       ("rhs_ladder_ms", "ladder product sides"),
                       ("box_row_ms", "whole and in-box row sums"),
                       ("domain_s", "checks over a domain"),
                       ("kernels_ms", "kernels on fixed inputs")):
        print(f"{title}:")
        unit = key.rsplit("_", 1)[1]
        for ident, value in entry[key].items():
            print(f"  {ident:<26} {value:8.3f} {unit}")
    print("scalar maps on the map mix:")
    for name, ms in entry["maps_ms"].items():
        print(f"  {name:<24} {ms:8.3f} ms")
    print("in-process command lines:")
    for name, ms in entry["cli_ms"].items():
        print(f"  {name:<26} {ms:8.3f} ms")


if __name__ == "__main__":
    main()
