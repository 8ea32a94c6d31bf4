from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from partbij.colored import ColoredPartition, ColoredPartitionError
from reference import colored_partitions


def test_entries_canonical_order():
    c = ColoredPartition([(2, 1), (3, 2), (2, 3)], 3)
    assert c.entries == ((3, 2), (2, 3), (2, 1))
    assert c.size() == 7
    assert c.length() == 3


def test_accessors():
    c = ColoredPartition([(4, 2), (1, 1)], 2)
    assert c.parts() == (4, 1)
    assert c.entries == ((4, 2), (1, 1))
    assert c.size() == 5 and c.length() == 2


def test_validation():
    with pytest.raises(ColoredPartitionError):
        ColoredPartition([(0, 1)], 2)
    with pytest.raises(ColoredPartitionError):
        ColoredPartition([(3, 0)], 2)
    with pytest.raises(ColoredPartitionError):
        ColoredPartition([(3, 3)], 2)
    with pytest.raises(ColoredPartitionError):
        ColoredPartition([], 0)


def test_eq_hash_ignore_input_order():
    a = ColoredPartition([(2, 1), (2, 2)], 2)
    b = ColoredPartition([(2, 2), (2, 1)], 2)
    assert a == b and hash(a) == hash(b)
    assert a != ColoredPartition([(2, 1), (2, 2)], 3)
    assert len({a, b}) == 1


@lru_cache(maxsize=None)
def colored_count(n, t):
    # coefficient of q^n in prod 1/(1-q^k)^t
    coeffs = [1] + [0] * n
    for k in range(1, n + 1):
        for _ in range(t):
            for i in range(k, n + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs[n]


@given(st.integers(0, 12), st.integers(1, 3))
def test_enumeration_count(n, t):
    got = [ColoredPartition(entries, t) for entries in colored_partitions(n, t)]
    assert len(got) == colored_count(n, t)
    assert len(set(got)) == len(got)
    assert all(c.size() == n for c in got)


def test_enumeration_is_canonical():
    # the generator lists each partition's pairs in the order the
    # constructor sorts them into, and the accessors read them back
    for entries in colored_partitions(8, 3):
        c = ColoredPartition(entries, 3)
        assert c.entries == entries
        assert c.length() == len(entries)
        assert c.parts() == tuple(part for part, _ in entries)


def test_empty():
    assert list(colored_partitions(0, 2)) == [()]
    assert ColoredPartition([], 2).entries == ()
