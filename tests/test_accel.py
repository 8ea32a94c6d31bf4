import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partbij import _accel
from partbij._accel import HistogramOverflow, UnboundedBox, partition_histogram
from partbij.partitions import Partition, partition_numbers, schmidt_weight
from reference import box_partitions, color_profile


def brute_histogram(axes, bounds, t=1, r=1, max_part=None, max_len=None,
                    distinct=False, length_mod=None):
    out = np.zeros(tuple(b + 1 for b in bounds), dtype=np.int64)
    size_cap = max_len * max_part
    if "size" in axes:
        size_cap = min(size_cap, bounds[axes.index("size")])
    for n in range(size_cap + 1):
        for p in map(Partition, box_partitions(n, max_part, max_len,
                                               distinct)):
            if length_mod is not None:
                mod, residues = length_mod
                if p.length() % mod not in {x % mod for x in residues}:
                    continue
            stats = []
            profile = iter(color_profile(p, t, r))
            for a in axes:
                if a == "profile":
                    stats.append(next(profile))
                elif a == "first":
                    stats.append(p[0] if p else 0)
                elif a == "size":
                    stats.append(p.size())
                elif a == "length":
                    stats.append(p.length())
                elif a == "weight":
                    stats.append(schmidt_weight(p, t, r))
                else:
                    stats.append(p.size() - schmidt_weight(p, t, r))
            if all(s <= b for s, b in zip(stats, bounds)):
                out[tuple(stats)] += 1
    return out


@pytest.mark.parametrize("t,r,distinct", [
    (1, 1, False), (2, 1, False), (2, 2, False),
    (3, 2, False), (2, 1, True), (3, 1, True),
])
def test_histogram_matches_enumeration(t, r, distinct):
    axes = ("weight", "size")
    bounds = (8, 14)
    got = partition_histogram(axes, bounds, t=t, r=r,
                              max_len=14, distinct=distinct)
    want = brute_histogram(axes, bounds, t=t, r=r,
                           max_part=14, max_len=14, distinct=distinct)
    assert np.array_equal(got, want)


def test_histogram_axis_combinations():
    got = partition_histogram(("first", "length"), (5, 5), max_len=5)
    want = brute_histogram(("first", "length"), (5, 5),
                           max_part=5, max_len=5)
    assert np.array_equal(got, want)
    got = partition_histogram(("anti", "first"), (6, 4),
                              t=2, r=2, max_len=10)
    want = brute_histogram(("anti", "first"), (6, 4),
                           t=2, r=2, max_part=4, max_len=10)
    assert np.array_equal(got, want)


def test_histogram_length_mod():
    lm = (4, (0, 3))
    got = partition_histogram(("size",), (12,), max_len=12,
                              distinct=True, length_mod=lm)
    want = brute_histogram(("size",), (12,), max_part=12, max_len=12,
                           distinct=True, length_mod=lm)
    assert np.array_equal(got, want)


def test_histogram_counts_empty_partition():
    out = partition_histogram(("size",), (5,), max_len=5)
    assert out[0] == 1


def test_histogram_length_axis_caps_search():
    a = partition_histogram(("length", "size"), (3, 9), max_len=99)
    b = partition_histogram(("length", "size"), (3, 9), max_len=3)
    assert np.array_equal(a, b)


def test_histogram_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partition_histogram((), (), max_len=3)
    with pytest.raises(ValueError):
        partition_histogram(("size",), (3, 4), max_len=3)
    with pytest.raises(ValueError):
        partition_histogram(("size",), (-1,), max_len=3)
    # an unknown axis too, and the message names the axes there are
    with pytest.raises(ValueError, match="'bogus'; the axes are first, "
                       "size, length, weight, anti, profile"):
        partition_histogram(("size", "bogus"), (3, 3), max_len=3)
    # the profile axis is all t colour classes or none of them
    for axes, t in ((("weight", "profile"), 2), (("profile",) * 2, 1),
                    (("profile",) * 4, 3)):
        with pytest.raises(ValueError):
            partition_histogram(axes, (3,) * len(axes), t=t, max_len=3)


@settings(max_examples=300, deadline=None)
@given(
    axes=st.lists(st.sampled_from(["first", "size", "length", "weight", "anti"]),
                  min_size=1, max_size=3),
    data=st.data(),
    t=st.integers(1, 4),
    r=st.integers(1, 4),
    distinct=st.booleans(),
    max_len=st.integers(0, 6),
    length_mod=st.none() | st.tuples(
        st.integers(1, 4), st.lists(st.integers(-3, 5), max_size=3)),
    profile=st.booleans(),
)
def test_histogram_matches_enumeration_sweep(axes, data, t, r, distinct,
                                             max_len, length_mod, profile):
    # with the profile, one other axis fewer and its t colour classes
    # anywhere among the rest, bounded by 3, which keeps the arrays small
    if profile:
        axes = axes[:len(axes) - 1]
        for _ in range(t):
            axes.insert(data.draw(st.integers(0, len(axes))), "profile")
    bounds = [data.draw(st.integers(0, 3 if a == "profile" else 7))
              for a in axes]
    kw = dict(t=t, r=r, max_len=max_len, distinct=distinct,
              length_mod=length_mod)
    try:
        got = partition_histogram(tuple(axes), tuple(bounds), **kw)
    except UnboundedBox:
        assume(False)
    # the brute force needs a part cap: no part exceeds the largest bound
    want = brute_histogram(tuple(axes), tuple(bounds),
                           max_part=max(bounds), **kw)
    assert np.array_equal(got, want)


def test_histogram_counts_up_to_int64_then_raises():
    out = partition_histogram(("size",), (405,), max_len=405)
    assert [int(c) for c in out] == partition_numbers(405)
    with pytest.raises(HistogramOverflow):
        partition_histogram(("size",), (406,), max_len=406)
    _assert_schmidt_boundary()


def _assert_schmidt_boundary():
    # schmidt's distinct run: distinct partitions by odd-index sum n are
    # counted by p(n), which fits int64 up to n = 405
    out = partition_histogram(("weight",), (405,), t=2, r=1, distinct=True)
    assert [int(c) for c in out] == partition_numbers(405)
    with pytest.raises(HistogramOverflow):
        partition_histogram(("weight",), (406,), t=2, r=1, distinct=True)


def partitions_by_length(n):
    """p[k][s], the number of partitions of s into exactly k parts, for
    k, s <= n, as Python ints."""
    p = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(n)]
    for k in range(1, n + 1):
        for s in range(k, n + 1):
            p[k][s] = p[k - 1][s - 1] + p[k][s - k]
    return p


def test_histogram_raises_when_a_state_count_leaves_int64():
    # a (length, size) histogram never sums over rows, so its counts
    # leave int64 in the state first. At 467 every count fits, the
    # largest being 9,011,331,301,502,787,549 partitions of 467 into 49
    # parts, and the running bound passes int64 and is reset many times;
    # at 468 the counts for 46 to 53 parts do not fit
    want = partitions_by_length(467)
    assert [sum(col) for col in zip(*want)] == partition_numbers(467)
    out = partition_histogram(("length", "size"), (467, 467))
    assert out.tolist() == want
    with pytest.raises(HistogramOverflow):
        partition_histogram(("length", "size"), (468, 468))
    # lengths divisible by 66 skip the rows where the counts of 480 first
    # leave int64, and 12,513,202,306,558,162,513 partitions of 480 into 66
    # parts do not fit: the state wraps in a row the output never sees
    with pytest.raises(HistogramOverflow):
        partition_histogram(("size",), (480,), length_mod=(66, [0]))


def test_histogram_with_a_length_axis_scans_only_the_state(monkeypatch):
    # each row writes a fresh length slab equal to state[0], which the
    # state's bound covers, so only the state is scanned: 95 scans at 467,
    # where the output slab once took 67 more, and the table stays exact
    scans = []

    def counted(counts, bound):
        if bound >= 2**63:  # past int64 the array is scanned
            scans.append(counts.shape)
        return real(counts, bound)

    real = _accel._unwrapped
    monkeypatch.setattr(_accel, "_unwrapped", counted)
    for axes in (("length", "size"), ("size", "length")):
        scans.clear()
        out = partition_histogram(axes, (467, 467))
        want = partitions_by_length(467)
        assert out.tolist() == (want if axes[0] == "length"
                                else [list(col) for col in zip(*want)])
        assert len(scans) == 95
        assert all(len(shape) == 2 for shape in scans)  # (part, size)
        with pytest.raises(HistogramOverflow):
            partition_histogram(axes, (468, 468))
    # without a length axis the output is still scanned where it may wrap
    scans.clear()
    with pytest.raises(HistogramOverflow):
        partition_histogram(("size",), (406,), max_len=406)
    assert (407,) in scans


@settings(max_examples=200, deadline=None)
@given(
    axes=st.lists(st.sampled_from(["first", "size", "length", "weight", "anti"]),
                  min_size=1, max_size=3),
    data=st.data(),
    t=st.integers(1, 3),
    r=st.integers(1, 3),
    distinct=st.booleans(),
    length_mod=st.none() | st.tuples(
        st.integers(1, 4), st.lists(st.integers(-3, 5), max_size=3)),
)
def test_histogram_derives_its_caps(axes, data, t, r, distinct, length_mod):
    bounds = data.draw(st.lists(st.integers(0, 4), min_size=len(axes),
                                max_size=len(axes)))
    kw = dict(t=t, r=r, distinct=distinct, length_mod=length_mod)
    try:
        got = partition_histogram(tuple(axes), tuple(bounds), **kw)
    except UnboundedBox:
        assume(False)
    # parts never exceed the largest bound, and past row r every t rows
    # add at least 1 to the bounded axis that ends the rows
    big = max(bounds)
    want = brute_histogram(tuple(axes), tuple(bounds), max_part=big,
                           max_len=r + t * (big + 1), **kw)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("axes, t, r", [
    (("first",), 1, 1),       # a column of 1s never leaves the box
    (("weight",), 1, 2),      # row 1 is not weighed, so it is unbounded
    (("anti", "first"), 1, 1),  # with t = 1 every row is weighed
    (("anti", "first"), 1, 3),
    (("length",), 2, 1),      # nothing bounds the parts
])
def test_histogram_unbounded_box_raises(axes, t, r):
    bounds = (3,) * len(axes)
    with pytest.raises(UnboundedBox):
        partition_histogram(axes, bounds, t=t, r=r)


def period_rows_unbounded(kinds, t, r):
    """The period test walked row by row: no row r + 1..r + t adds to an
    axis of kinds."""
    return not any(
        _accel._shifted_axes(kinds, pos, pos >= r and (pos - r) % t == 0)
        for pos in range(r + 1, r + t + 1))


def test_unbounded_box_is_raised_as_by_the_row_walk():
    names = ("first", "size", "length", "weight", "anti")
    for k in range(1, 4):
        for axes in itertools.combinations(names, k):
            kinds = [axis for axis in axes if axis != "length"]
            for t in range(1, 5):
                for r in range(1, 5):
                    first_row = _accel._shifted_axes(kinds, 1, r == 1)
                    want = not first_row or (
                        "length" not in axes
                        and period_rows_unbounded(kinds, t, r))
                    try:
                        partition_histogram(axes, (2,) * k, t=t, r=r)
                        got = False
                    except UnboundedBox:
                        got = True
                    assert got == want, (axes, t, r)


def test_period_test_takes_constant_time_in_t():
    # at t = 10^12 only row 1 is weighed, and the rows after it add to no
    # axis, so the prefixes that stay in the box pile up past int64
    start = time.perf_counter()
    with pytest.raises(HistogramOverflow):
        partition_histogram(("weight", "first"), (10, 10), t=10**12)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("kw", [
    dict(t=2),
    # thm4.2's distinct run, whose rows are relabelled, not copied
    dict(t=4, distinct=True, length_mod=(4, (1, 2))),
], ids=["plain", "distinct"])
def test_histogram_holds_one_state_array(kw):
    # the state is one (part, weight, first) array updated in place, so the
    # working set is that array and the output: 14.2 MB and 0.1 MB here,
    # where a fresh state per row held two states at once
    axes, bounds = ("weight", "first"), (120, 120)
    state_bytes = 121 * 121 * 121 * 8
    out_bytes = 121 * 121 * 8
    tracemalloc.start()
    try:
        out = partition_histogram(axes, bounds, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (121, 121)
    assert peak <= 1.3 * (state_bytes + out_bytes)


def test_scan_reads_only_the_cells_in_the_box():
    # one axis with bound 5, moved by e = 2 rows: row v holds statistics
    # k + 2v, so rows 1 and 2 have 4 and 2 cells in the box
    kbounds, e, top = [5], [2], 2
    state = np.zeros((3, 6), dtype=np.int64)
    state[1, :4] = [1, 2, 3, 4]
    state[2, :2] = [5, 6]
    # cells past the box may hold anything, wrapped counts included
    state[1, 4:] = -1
    state[2, 2:] = [-7, 2**62, -1, -2]
    assert _accel._scanned(state, top, e, kbounds, 2**63) == 6
    assert not (state[1:, :] < 0).any()  # zeroed on the way
    # below int64 nothing is read, and past it an in-box wrap raises
    state[2, 1] = -3
    assert _accel._scanned(state, top, e, kbounds, 2**63 - 1) == 2**63 - 1
    with pytest.raises(HistogramOverflow):
        _accel._scanned(state, top, e, kbounds, 2**63)


@settings(max_examples=150, deadline=None)
@given(
    axes=st.lists(st.sampled_from(["first", "size", "length", "weight",
                                   "anti"]), min_size=1, max_size=3),
    data=st.data(),
    t=st.integers(1, 3),
    r=st.integers(1, 3),
    distinct=st.booleans(),
    length_mod=st.none() | st.tuples(
        st.integers(1, 4), st.lists(st.integers(-3, 5), max_size=3)),
    profile=st.booleans(),
)
def test_in_box_sums_match_whole_row_sums(axes, data, t, r, distinct,
                                          length_mod, profile):
    # the sweeps' boxes are small, so their rows are added whole; with
    # _BOX_ROW_CELLS at 1 every row adds only its in-box cells
    if profile:
        axes = axes[:len(axes) - 1]
        for _ in range(t):
            axes.insert(data.draw(st.integers(0, len(axes))), "profile")
    bounds = tuple(data.draw(st.integers(0, 3 if a == "profile" else 9))
                   for a in axes)
    kw = dict(t=t, r=r, distinct=distinct, length_mod=length_mod,
              max_len=data.draw(st.none() | st.integers(0, 12)))
    try:
        whole = partition_histogram(tuple(axes), bounds, **kw)
    except UnboundedBox:
        assume(False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_accel, "_BOX_ROW_CELLS", 1)
        assert np.array_equal(
            partition_histogram(tuple(axes), bounds, **kw), whole)


def test_in_box_sums_keep_the_overflow_boundaries(monkeypatch):
    monkeypatch.setattr(_accel, "_BOX_ROW_CELLS", 1)
    assert partition_histogram(("length", "size"), (467, 467)).tolist() \
        == partitions_by_length(467)
    with pytest.raises(HistogramOverflow):
        partition_histogram(("length", "size"), (468, 468))
    out = partition_histogram(("size",), (405,), max_len=405)
    assert [int(c) for c in out] == partition_numbers(405)
    with pytest.raises(HistogramOverflow):
        partition_histogram(("size",), (406,), max_len=406)
    _assert_schmidt_boundary()
