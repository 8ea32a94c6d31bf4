from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from partbij.partitions import (
    CellOutOfDiagram,
    InvalidDiagram,
    InvalidFrobenius,
    NegativePart,
    NotSorted,
    Partition,
    color_profile,
    conjugate,
    count_in_box,
    count_partitions,
    durfee_size,
    enumerate_partitions,
    from_frobenius,
    from_modular,
    hook_length,
    partition_blocks,
    partition_numbers,
    schmidt_weight,
    to_frobenius,
    to_modular,
)


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
    assert p.part(1) == 4
    assert p.part(3) == 1
    assert p.part(9) == 0
    with pytest.raises(IndexError):
        p.part(0)
    assert p.size() == 7
    assert p.length() == 3


def test_conjugate_known():
    assert conjugate(Partition([4, 2, 1])) == (3, 2, 1, 1)
    assert conjugate(Partition()) == ()


@given(partitions())
def test_conjugate_involution(p):
    assert conjugate(conjugate(p)) == p
    assert conjugate(p).size() == p.size()


@given(partitions())
def test_durfee_square(p):
    d = durfee_size(p)
    assert d == sum(1 for i, v in enumerate(p, start=1) if v >= i)
    if d:
        assert p.part(d) >= d
    assert p.part(d + 1) <= d


def test_hook_length_known():
    p = Partition([4, 2, 1])
    assert hook_length(p, 1, 1) == 6
    assert hook_length(p, 1, 2) == 4
    assert hook_length(p, 1, 4) == 1
    assert hook_length(p, 3, 1) == 1
    with pytest.raises(CellOutOfDiagram):
        hook_length(p, 2, 3)
    with pytest.raises(CellOutOfDiagram):
        hook_length(p, 0, 1)


def test_schmidt_weight_basic():
    p = Partition([6, 4, 3, 1])
    assert schmidt_weight(p, 2, 1) == 6 + 3
    assert schmidt_weight(p, 2, 2) == 4 + 1
    assert schmidt_weight(p, 3, 2) == 4
    assert schmidt_weight(Partition(), 2, 1) == 0


@given(partitions(), st.integers(1, 4), st.integers(1, 4))
def test_schmidt_weight_splits_size(p, t, r):
    # row sums split into the counted rows and everything else
    counted = sum(p.part(i) for i in range(r, len(p) + 1, t))
    assert schmidt_weight(p, t, r) == counted
    assert schmidt_weight(p, 1, 1) == p.size()


@given(partitions(), st.integers(1, 4), st.integers(1, 4))
def test_color_profile_sums_to_row_r(p, t, r):
    prof = color_profile(p, t, r)
    assert len(prof) == t
    assert sum(prof) == p.part(r)
    assert all(c >= 0 for c in prof)


@given(partitions())
def test_frobenius_roundtrip(p):
    f = to_frobenius(p)
    assert from_frobenius(f) == p
    assert list(f.arms) == sorted(f.arms, reverse=True)
    assert list(f.legs) == sorted(f.legs, reverse=True)
    assert len(f.arms) == durfee_size(p)


def test_frobenius_known():
    f = to_frobenius(Partition([4, 2, 1]))
    assert f.arms == (3, 0)
    assert f.legs == (2, 0)


def test_from_frobenius_rejects_bad_coords():
    good = to_frobenius(Partition([4, 2, 1]))
    with pytest.raises(InvalidFrobenius):
        from_frobenius(type(good)((0, 3), (2, 0)))
    with pytest.raises(InvalidFrobenius):
        from_frobenius(type(good)((3, 0), (2,)))


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


def test_enumerate_matches_count():
    for n in range(13):
        assert len(list(enumerate_partitions(n))) == count_partitions(n)
        assert len(list(enumerate_partitions(n, distinct=True))) == \
            count_partitions(n, distinct=True)
        assert len(list(enumerate_partitions(n, odd_parts=True))) == \
            count_partitions(n, odd_parts=True)


@pytest.mark.parametrize("opts", [
    {}, {"distinct": True}, {"odd_parts": True}, {"max_part": 3},
])
def test_partition_numbers_table(opts):
    table = partition_numbers(12, **opts)
    assert table == [len(list(enumerate_partitions(n, **opts)))
                     for n in range(13)]
    assert table[:6] == partition_numbers(5, **opts)
    with pytest.raises(ValueError):
        partition_numbers(-1)


def test_euler_distinct_equals_odd():
    for n in range(20):
        assert count_partitions(n, distinct=True) == \
            count_partitions(n, odd_parts=True)


def test_enumerate_reverse_lex_and_filters():
    got = list(enumerate_partitions(5, distinct=True))
    assert got == [(5,), (4, 1), (3, 2)]
    for p in enumerate_partitions(9, max_part=4, max_length=3):
        assert p.part(1) <= 4 and len(p) <= 3 and p.size() == 9
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(3, max_length=0)) == []


def test_count_in_box_matches_enumeration():
    for w in range(6):
        for h in range(6):
            total = sum(
                1
                for n in range(w * h + 1)
                for _ in enumerate_partitions(n, max_part=w, max_length=h)
            )
            assert count_in_box(w, h) == total


def test_partition_values_known():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [count_partitions(n) for n in range(11)] == known


def test_partition_blocks_match_enumeration():
    packed = [[list(lam) for lam in enumerate_partitions(n)]
              for n in range(21)]
    for n_max in range(21):
        blocks = list(partition_blocks(n_max))
        assert len(blocks) == n_max + 1
        for n, block in enumerate(blocks):
            assert block.dtype == np.int64
            assert block.shape == (len(packed[n]), n_max + 2)
            assert block.tolist() == [lam + [0] * (n_max + 2 - len(lam))
                                      for lam in packed[n]]
    assert [b.shape for b in partition_blocks(3, width=6)] == \
        [(1, 6), (1, 6), (2, 6), (3, 6)]
    with pytest.raises(ValueError):
        list(partition_blocks(-1))
