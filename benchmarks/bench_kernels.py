"""Time the two hot kernels on fixed inputs.

Run: python benchmarks/bench_kernels.py

Each row is the best of several runs. The thm8.1 row (t=4, r=4,
q,z <= 15) is checked against the total of its closed form.
"""

import time

import numpy as np

from partbij._accel import convolve, partition_histogram


def timeit(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_convolve():
    rng = np.random.default_rng(42)
    shape = (19, 19, 11)
    a = rng.integers(-50, 50, size=shape).astype(np.int64)
    b = rng.integers(-50, 50, size=shape).astype(np.int64)
    return [("convolve 19x19x11", timeit(lambda: convolve(a, b)))]


def bench_histogram():
    def schmidt():
        return partition_histogram(("weight", "size"), (30, 90), t=2, r=1,
                                   max_part=90, max_len=90, distinct=True)

    def thm81():
        return partition_histogram(("weight", "first"), (15, 15), t=4, r=4,
                                   max_part=15, max_len=4 * 15 + 3)

    total = int(thm81().sum())
    if total != 67_379_212:
        raise SystemExit(f"thm8.1 t=4 r=4 q,z<=15 counted {total}, "
                         "expected 67379212")
    return [
        ("histogram q<=30 z<=90 distinct", timeit(schmidt)),
        ("histogram thm8.1 t=4 r=4 q,z<=15", timeit(thm81)),
    ]


def main():
    rows = bench_convolve() + bench_histogram()
    width = max(len(name) for name, _ in rows)
    for name, best in rows:
        print(f"{name:<{width}}  {best * 1000:9.2f} ms")


if __name__ == "__main__":
    main()
