import importlib.util
from pathlib import Path

import pytest

from partbij.verify import IDENTITY_IDS, THEOREM_IDS, lhs_series

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


def _load(script):
    spec = importlib.util.spec_from_file_location(
        script, BENCHMARKS / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["bench_suite"])
def test_benchmark_script_imports(script):
    # the script guards __main__, so importing it runs nothing; an import
    # of a library name that no longer exists fails here
    _load(script)


def test_bench_suite_kernel_rows_run():
    # kernel_rows checks each kernel's output before it is timed and raises
    # SystemExit on a wrong answer, which fails this test
    bench = _load("bench_suite")
    rows = bench.kernel_rows()
    assert len(rows) == 9
    times = bench.time_series(1, rows)
    assert list(times) == [name for name, _ in rows]
    assert all(ms > 0 for ms in times.values())


def test_bench_suite_series_rows_run():
    bench = _load("bench_suite")
    times = bench.time_series(1)
    assert list(times) == [i for i in THEOREM_IDS
                           if i in IDENTITY_IDS or i == "eq20"]
    assert all(ms > 0 for ms in times.values())


def test_bench_suite_lhs_and_ladder_rows_run():
    bench = _load("bench_suite")
    times = bench.time_series(1, bench.series_rows(lhs_series))
    assert list(times) == [i for i in THEOREM_IDS if i in IDENTITY_IDS]
    assert all(ms > 0 for ms in times.values())
    # the ladder rows at small boxes, which verify just the same
    bench.LHS_LADDER = (("thm5.1", {}, {"q": 6, "z": 6}),
                        ("thm9", {}, {"q": 4, "z": 4, "s": 4}),
                        ("thm4.2", {}, {"q": 8, "z": 8}))
    names = ["thm5.1 q=6,z=6", "thm9 q=4,z=4,s=4", "thm4.2 q=8,z=8"]
    rows = bench.ladder_rows()
    times = bench.time_calibrated(1, rows)
    assert list(times) == names
    assert all(ms > 0 for ms in times.values())
    peaks = bench.peak_mb(rows)
    assert list(peaks) == names
    assert all(mb >= 0 for mb in peaks.values())


def test_bench_suite_box_row_rows_run():
    bench = _load("bench_suite")
    # the rows at small boxes, which verify just the same; each row is
    # timed under both sums, and the threshold is restored after
    bench.BOX_ROW_LADDER = (("thm5.1", {}, {"q": 6, "z": 6}),
                            ("thm4.2", {}, {"q": 8, "z": 8}))
    threshold = bench._accel._BOX_ROW_CELLS
    times = bench.time_calibrated(1, bench.box_row_rows())
    assert list(times) == ["thm5.1 q=6,z=6 whole", "thm5.1 q=6,z=6 in-box",
                           "thm4.2 q=8,z=8 whole", "thm4.2 q=8,z=8 in-box"]
    assert all(ms > 0 for ms in times.values())
    assert bench._accel._BOX_ROW_CELLS == threshold


def test_bench_suite_domain_rows_run():
    bench = _load("bench_suite")
    assert [ident for ident, _ in bench.DOMAIN_CHECKS] == [
        "thm7", "furtherwork", "prop1"]
    # the checks at small sizes, which pass just the same
    bench.DOMAIN_CHECKS = (("thm7", {"t": 2, "r": 1, "n": 8}),
                           ("furtherwork", {"m": 4, "n": 8}),
                           ("prop1", {"n": 10}))
    # timed in ms: in seconds, rounded to 3 places, prop1 at n 10 can read 0
    times = bench.time_calibrated(1, bench.domain_rows())
    assert list(times) == ["thm7 t=2 r=1 n=8", "furtherwork m=4 n=8",
                           "prop1 n=10"]
    assert all(ms > 0 for ms in times.values())


def test_bench_suite_rhs_ladder_rows_run():
    bench = _load("bench_suite")
    # the rows at tiny boxes, which verify just the same
    bench.RHS_LADDER = (("eq3", {}, {"q": 4, "z": 8}),
                        ("thm4.1", {}, {"q": 6, "z": 6}),
                        ("thm8.1", {"t": 4, "r": 4}, {"q": 5, "z": 5}))
    times = bench.time_series(1, bench.rhs_ladder_rows())
    assert list(times) == ["eq3 q=4,z=8", "thm4.1 q=6,z=6",
                           "thm8.1 t=4 r=4 q=5,z=5"]
    assert all(ms > 0 for ms in times.values())


def test_bench_suite_maps_run():
    bench = _load("bench_suite")
    times = bench.time_maps(1)
    assert tuple(times) == bench.MAP_NAMES == (
        "mork", "mork_inverse", "bessenrodt", "bessenrodt_inverse",
        "color_conjugate", "color_conjugate_inverse", "generalized_hook_map")
    assert all(ms > 0 for ms in times.values())


def test_bench_suite_cli_run():
    bench = _load("bench_suite")
    times = bench.time_cli(1)
    assert tuple(times) == tuple(bench.CLI_CALLS)
    assert sum(name.startswith("series ") for name in times) == 5
    assert all(ms > 0 for ms in times.values())
