import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from partbij.bijections import _frobenius_parts, generalized_hook_map
from partbij.partitions import (
    InvalidDiagram,
    ModularDiagram,
    NegativePart,
    NotSorted,
    Partition,
    PartitionError,
    enumerate_partitions,
    from_modular,
    partition_domain,
    partition_numbers,
    schmidt_weight,
    to_modular,
)
from reference import color_profile, conjugate, hook_length


@st.composite
def partitions(draw, max_n=30):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                         min_size=n, max_size=n))
    return Partition(sorted(Counter(bins).values(), reverse=True))


def test_construction_normalizes():
    assert Partition([3, 2, 0, 0]) == (3, 2)
    assert Partition() == ()


def test_construction_rejects_bad_input():
    with pytest.raises(NotSorted):
        Partition([2, 3])
    with pytest.raises(NegativePart):
        Partition([3, -1])


def test_part_access():
    p = Partition([4, 2, 1])
    assert p[0] == 4
    assert p[2] == 1
    assert p.size() == 7
    assert p.length() == 3


def test_conjugate_known():
    assert conjugate(Partition([4, 2, 1])) == (3, 2, 1, 1)
    assert conjugate(Partition()) == ()


@given(partitions())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert sum(conjugate(p)) == p.size()


def test_hook_length_known():
    p = Partition([4, 2, 1])
    assert hook_length(p, 1, 1) == 6
    assert hook_length(p, 1, 2) == 4
    assert hook_length(p, 1, 4) == 1
    assert hook_length(p, 3, 1) == 1


def test_schmidt_weight_basic():
    p = Partition([6, 4, 3, 1])
    assert schmidt_weight(p, 2, 1) == 6 + 3
    assert schmidt_weight(p, 2, 2) == 4 + 1
    assert schmidt_weight(p, 3, 2) == 4
    assert schmidt_weight(Partition(), 2, 1) == 0


@given(partitions(), st.integers(1, 4), st.integers(1, 4))
def test_schmidt_weight_splits_size(p, t, r):
    # row sums split into the counted rows and everything else
    counted = sum(p[i - 1] for i in range(r, len(p) + 1, t))
    assert schmidt_weight(p, t, r) == counted
    assert schmidt_weight(p, 1, 1) == p.size()


@given(partitions(), st.integers(1, 4), st.integers(1, 4))
def test_color_profile_sums_to_row_r(p, t, r):
    prof = color_profile(p, t, r)
    assert len(prof) == t
    assert sum(prof) == (p[r - 1] if r <= len(p) else 0)
    assert all(c >= 0 for c in prof)


def frobenius(p):
    """The arms p_i - i and legs p'_i - i of p, for i up to its Durfee
    size."""
    conj = conjugate(p)
    d = sum(1 for i, part in enumerate(p) if part > i)
    return (tuple(p[i] - i - 1 for i in range(d)),
            tuple(conj[i] - i - 1 for i in range(d)))


@given(partitions())
def test_frobenius_roundtrip(p):
    arms, legs = frobenius(p)
    assert _frobenius_parts(arms, legs) == list(p)
    assert all(a > b for a, b in zip(arms, arms[1:]))
    assert all(a > b for a, b in zip(legs, legs[1:]))


def test_frobenius_known():
    assert frobenius(Partition([4, 2, 1])) == ((3, 0), (2, 0))
    assert _frobenius_parts((3, 0), (2, 0)) == [4, 2, 1]


def test_modular_diagram_known():
    d = to_modular(Partition([11, 10, 6, 3, 1]), 2)
    assert d.m == 2
    assert d.rows == ((6, 1), (5, 2), (3, 2), (2, 1), (1, 1))


@given(partitions(), st.integers(2, 5))
def test_modular_roundtrip(p, m):
    d = to_modular(p, m)
    assert from_modular(d) == p
    for cells, rem in d.rows:
        assert cells >= 1 and 1 <= rem <= m


def test_to_modular_rejects_small_base():
    with pytest.raises(ValueError):
        to_modular(Partition([3]), 1)


def test_from_modular_rejects_bad_rows():
    d = to_modular(Partition([5, 3]), 2)
    bad = type(d)(2, ((1, 1), (2, 2)))
    with pytest.raises(InvalidDiagram):
        from_modular(bad)


def first_diagram_fault(m, rows):
    """The message of the first fault of a modular diagram, checked in
    turn: the base, then row by row the cell count, the remainder and a
    rise of the cell count, then a rise of the decoded parts."""
    if m < 2:
        return f"modular base must be >= 2, got {m}"
    prev = None
    for cells, rem in rows:
        if cells < 1:
            return f"cell count must be positive: {cells}"
        if not 1 <= rem <= m:
            return f"remainder {rem} outside 1..{m}"
        if prev is not None and cells > prev:
            return "cell counts must be weakly decreasing"
        prev = cells
    parts = [m * (cells - 1) + rem for cells, rem in rows]
    if any(a < b for a, b in zip(parts, parts[1:])):
        return "decoded parts must be weakly decreasing"
    return None


@given(st.integers(1, 4), st.lists(st.tuples(st.integers(-1, 3),
                                             st.integers(-1, 5)), max_size=4))
def test_diagram_checks_name_the_first_fault(m, rows):
    # from_modular and the hook map share one check, which walks a valid
    # diagram once and names the first fault of any other
    diagram = ModularDiagram(m, tuple(rows))
    want = first_diagram_fault(m, rows)
    for decode in (from_modular, generalized_hook_map):
        if want is None:
            decode(diagram)
        else:
            with pytest.raises(InvalidDiagram) as info:
                decode(diagram)
            assert str(info.value) == want


def test_enumerate_matches_count():
    for n in range(13):
        assert len(list(enumerate_partitions(n))) == partition_numbers(n)[n]
        assert len(list(enumerate_partitions(n, distinct=True))) == \
            partition_numbers(n, distinct=True)[n]
        assert len(list(enumerate_partitions(n, odd_parts=True))) == \
            partition_numbers(n, odd_parts=True)[n]


@pytest.mark.parametrize("opts", [
    {}, {"distinct": True}, {"odd_parts": True},
    {"distinct": True, "odd_parts": True},
])
def test_partition_numbers_table(opts):
    table = partition_numbers(12, **opts)
    assert table == [len(list(enumerate_partitions(n, **opts)))
                     for n in range(13)]
    assert table[:6] == partition_numbers(5, **opts)
    with pytest.raises(ValueError):
        partition_numbers(-1)


def test_euler_distinct_equals_odd():
    assert partition_numbers(19, distinct=True) == \
        partition_numbers(19, odd_parts=True)


def test_enumerate_reverse_lex_and_filters():
    got = list(enumerate_partitions(5, distinct=True))
    assert got == [(5,), (4, 1), (3, 2)]
    assert list(enumerate_partitions(0)) == [()]


def test_box_counts_are_binomials():
    # the partitions with at most h parts, each at most w, fill the w by h
    # box in C(w + h, h) ways
    for w in range(6):
        for h in range(6):
            total = sum(
                1
                for n in range(w * h + 1)
                for p in enumerate_partitions(n)
                if len(p) <= h and all(part <= w for part in p)
            )
            assert math.comb(w + h, h) == total


def test_partition_values_known():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_numbers(10) == known


def test_partition_domain_matches_enumeration():
    for distinct in (False, True):
        packed = [[list(lam) for lam in enumerate_partitions(n, distinct)]
                  for n in range(21)]
        for n_max in range(21):
            parts, sizes = partition_domain(n_max, distinct)
            lams = [lam for n in range(n_max + 1) for lam in packed[n]]
            # the narrowest unsigned type that holds n_max
            assert parts.dtype == sizes.dtype == np.uint8
            # parts-major: one row per part index, one column per
            # partition, and a zero last row past the longest
            longest = max(map(len, lams))
            width = longest + 1 if distinct else n_max + 2
            assert parts.shape == (width, len(lams))
            assert parts.T.tolist() == [lam + [0] * (width - len(lam))
                                        for lam in lams]
            assert sizes.tolist() == [n for n in range(n_max + 1)
                                      for _ in packed[n]]
    with pytest.raises(ValueError):
        partition_domain(-1)


@pytest.mark.parametrize("n_max, distinct", [(40, False), (80, True)])
def test_partition_domain_peaks_at_its_output(n_max, distinct):
    # the domain is written in place: building it holds little beyond
    # the arrays it returns
    tracemalloc.start()
    try:
        parts, sizes = partition_domain(n_max, distinct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (parts.nbytes + sizes.nbytes)


# every partition of size <= 18, for the tests that pin the scalar
# statistics to their definitions
UP_TO_18 = [p for n in range(19) for p in enumerate_partitions(n)]


def test_partition_contract():
    with pytest.raises(NotSorted, match=r"^parts not weakly decreasing: 0 < 1$"):
        Partition([3, 0, 1])
    with pytest.raises(NotSorted, match=r"^parts not weakly decreasing: 2 < 5$"):
        Partition(iter([4, 2, 5]))
    with pytest.raises(NegativePart, match=r"^negative part: -2$"):
        Partition([3, -1, -2])
    with pytest.raises(NegativePart, match=r"^negative part: -1$"):
        Partition([2, 0, -1])
    assert issubclass(NotSorted, PartitionError)
    assert issubclass(NegativePart, PartitionError)
    assert issubclass(PartitionError, ValueError)
    for values, want in (([4, 2, 0, 0], (4, 2)), ([0, 0], ()), ((), ()),
                         ([1], (1,)), ([3, 3, 0], (3, 3))):
        p = Partition(values)
        assert type(p) is Partition and p == want
    p = Partition(np.array([5, 3, 3, 0, 0], dtype=np.int64))
    assert type(p) is Partition and p == (5, 3, 3)
    with pytest.raises(NotSorted, match=r"^parts not weakly decreasing: 1 < 2$"):
        Partition(np.array([1, 2], dtype=np.int64))
    assert Partition(p) is p


@pytest.mark.parametrize("call", [
    lambda p: schmidt_weight(p, 2, 1), lambda p: to_modular(p, 2),
], ids=["schmidt_weight", "to_modular"])
def test_statistics_validate_their_input(call):
    assert call([3, 1]) == call(Partition([3, 1]))
    with pytest.raises(NotSorted):
        call([1, 3])


def _cells(p):
    return {(i, j) for i, part in enumerate(p, 1) for j in range(1, part + 1)}


def test_conjugate_is_the_column_cell_count():
    for p in UP_TO_18:
        cells = _cells(p)
        width = p[0] if p else 0
        want = tuple(sum(1 for _, j in cells if j == col)
                     for col in range(1, width + 1))
        assert conjugate(p) == want, p


def test_frobenius_roundtrip_every_partition():
    for p in UP_TO_18:
        assert _frobenius_parts(*frobenius(p)) == list(p), p


def test_hook_length_is_the_cell_count():
    for p in UP_TO_18:
        cells = _cells(p)
        for i, j in cells:
            hook = sum(1 for a, b in cells
                       if (a == i and b >= j) or (b == j and a > i))
            assert hook_length(p, i, j) == hook, (p, i, j)


def test_color_profile_is_the_alternating_sum():
    def part(p, i):
        return p[i - 1] if i <= len(p) else 0

    for p in UP_TO_18:
        for t in range(1, 5):
            for r in range(1, 5):
                want = []
                for i in range(1, t + 1):
                    c, k = 0, 0
                    while r + i - 1 + k * t <= len(p):
                        a = r + i - 1 + k * t
                        c += part(p, a) - part(p, a + 1)
                        k += 1
                    want.append(c)
                assert color_profile(p, t, r) == tuple(want), (p, t, r)
                assert schmidt_weight(p, t, r) == sum(
                    p[i - 1] for i in range(r, len(p) + 1, t))
