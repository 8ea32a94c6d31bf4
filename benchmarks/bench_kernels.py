"""Time the hot kernels on fixed inputs.

Run: python benchmarks/bench_kernels.py

Each row is the best of several runs. The thm8.1 row (t=4, r=4,
q,z <= 15) is checked against the total of its closed form, the thm8.2
colour-profile row (t=3, q <= 12, z_i <= 6) against its closed form
coefficient by coefficient, the thm7 pair-side count against the number
of partitions it stands for, thm7's array round trip (t=3, r=1,
size <= 24) against the number of partitions that come back unchanged,
the array hook map at m = 2..4 over furtherwork's quick domain (size
<= 20) against each partition's size (both over the kept parts-major
domain of verify, in the column ranges the checks use), and the
Pochhammer division at q,z <= 60 against its largest coefficient. The
first lines give the machine: cores, Python, numpy, and whether numba
was loaded.
"""

import os
import platform
import sys
import time

import numpy as np

from partbij._accel import partition_histogram
from partbij.bijections import (
    color_conjugate_inverse_rows,
    color_conjugate_rows,
    generalized_hook_map_rows,
)
from partbij.partitions import partition_numbers
from partbij.series import INFINITY, TruncatedSeries, divide_pochhammer
from partbij.verify import (
    _colored_classes,
    _column_chunks,
    _columns_equal,
    _domain,
    rhs_series,
)


def timeit(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_histogram():
    # no hand caps: the kernel derives them from the axes
    def schmidt():
        return partition_histogram(("weight", "size"), (30, 90), t=2, r=1,
                                   distinct=True)

    def thm81():
        return partition_histogram(("weight", "first"), (15, 15), t=4, r=4)

    # thm8.2 at the full level: weight and the three colour classes
    def thm82():
        return partition_histogram(("weight",) + ("profile",) * 3,
                                   (12, 6, 6, 6), t=3)

    total = int(thm81().sum())
    if total != 67_379_212:
        raise SystemExit(f"thm8.1 t=4 r=4 q,z<=15 counted {total}, "
                         "expected 67379212")
    box = {"q": 12, "z1": 6, "z2": 6, "z3": 6}
    if not np.array_equal(thm82(), rhs_series("thm8.2", {"t": 3}, box).coeffs):
        raise SystemExit("thm8.2 t=3 q<=12 z_i<=6 histogram differs from "
                         "its closed form")
    return [
        ("histogram q<=30 z<=90 distinct", timeit(schmidt)),
        ("histogram thm8.1 t=4 r=4 q,z<=15", timeit(thm81)),
        ("histogram thm8.2 t=3 q<=12 z_i<=6", timeit(thm82)),
    ]


def bench_colored_classes():
    # thm7 at the full level; with r=1 the head is empty, so the classes
    # count every partition of size <= 24 once
    def count():
        return _colored_classes(24, [range(i, 25, 3) for i in (1, 2, 3)])

    total = int(count()[:, -1].sum())
    want = sum(partition_numbers(24))
    if total != want:
        raise SystemExit(f"thm7 t=3 r=1 size<=24 pair side counted {total}, "
                         f"expected {want}")
    return [("thm7 colored class rows t=3 r=1 size<=24", timeit(count))]


def bench_color_conjugate_rows():
    # thm7's partition side at the full level: every partition of size
    # <= 24, in thm7's column ranges, through the array map, given the
    # kept column heights, and back
    parts, _, heights = _domain(24)

    def round_trip():
        back = 0
        for lam, cols in _column_chunks(26, parts, heights):
            nu, mu, colors = color_conjugate_rows(lam, 3, 1, cols)
            rebuilt, valid = color_conjugate_inverse_rows(nu, mu, colors, 3, 1)
            back += int((valid & _columns_equal(rebuilt, lam)).sum())
        return back

    back, want = round_trip(), sum(partition_numbers(24))
    if back != want:
        raise SystemExit(f"thm7 t=3 r=1 size<=24 array round trip gave back "
                         f"{back} partitions, expected {want}")
    return [("thm7 array round trip t=3 r=1 size<=24", timeit(round_trip))]


def bench_hook_map_rows():
    # furtherwork's part sums at the quick level: every partition of size
    # <= 20, in furtherwork's column ranges, at m = 2, 3, 4
    parts, sizes, _ = _domain(20, False, False)  # no heights
    chunks = list(_column_chunks(22, parts, sizes))

    def hook_maps():
        return [generalized_hook_map_rows(lam, m)[0]
                for lam, _ in chunks for m in (2, 3, 4)]

    images = hook_maps()
    for k, (_, n) in enumerate(chunks):
        for image in images[3 * k:3 * k + 3]:
            if not (image.sum(axis=0) == n).all():
                raise SystemExit("hook map images do not sum to their "
                                 "partitions' sizes")
    return [("hook map rows m=2..4 size<=20", timeit(hook_maps))]


def bench_pochhammer():
    zq = ({"q": 1, "z": 1}, {"q": 1}, INFINITY)

    def shifts(bound):
        box = {"q": bound, "z": bound}
        f = TruncatedSeries.constant(box, 1)
        return divide_pochhammer(divide_pochhammer(f, *zq), *zq)

    top = int(shifts(60).coeffs.max())
    if top != 71_699_042:
        raise SystemExit(f"1/(zq;q)_inf^2 on q,z<=60 has largest coefficient "
                         f"{top}, expected 71699042")
    return [
        ("pochhammer divide 1/(zq;q)_inf^2 q,z<=20", timeit(lambda: shifts(20))),
        ("pochhammer divide 1/(zq;q)_inf^2 q,z<=60", timeit(lambda: shifts(60))),
    ]


def main():
    print(f"cores {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}, numba loaded: {'numba' in sys.modules}")
    rows = (bench_histogram() + bench_colored_classes()
            + bench_color_conjugate_rows() + bench_hook_map_rows()
            + bench_pochhammer())
    width = max(len(name) for name, _ in rows)
    for name, best in rows:
        print(f"{name:<{width}}  {best * 1000:9.2f} ms")


if __name__ == "__main__":
    main()
