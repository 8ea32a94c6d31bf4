"""Integer partitions, Young diagram statistics, and enumeration streams.

A partition is stored as a tuple of weakly decreasing positive parts.
A statistic over an infinite index set, such as a Schmidt weight, reads
the parts past the last as 0.

A public function validates its input once, by coercing it through
``Partition`` (which returns a ``Partition`` unchanged), and works on
plain tuples and lists inside; it builds one validated ``Partition`` per
output.

Many partitions at once are stored **parts-major**: a 2-D integer array
whose row i holds part i + 1 of every partition, zero past each one's
length, with one column per partition (``partition_domain`` lists them in
``enumerate_partitions`` order). A per-partition sum, count or running
sum then runs along axis 0, over whole contiguous rows. The array maps of
``bijections`` (the ``*_rows`` functions) take and return this layout.
"""

import math
from itertools import accumulate
from operator import ge
from typing import Iterable, Iterator, List, NamedTuple

import numpy as np


class PartitionError(ValueError):
    """Base class for invalid partition data."""


class NotSorted(PartitionError):
    """Parts are not weakly decreasing."""


class NegativePart(PartitionError):
    """A part is negative."""


class InvalidDiagram(PartitionError):
    """Modular diagram rows violate the shape or remainder constraints."""


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction; the empty partition is
    ``Partition()``. A Partition is returned unchanged.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()):
        if values.__class__ is cls:
            return values
        vals = tuple(values)
        if not all(map(ge, vals, vals[1:])):
            a, b = next((a, b) for a, b in zip(vals, vals[1:]) if a < b)
            raise NotSorted(f"parts not weakly decreasing: {a} < {b}")
        if vals and vals[-1] <= 0:
            if vals[-1] < 0:
                raise NegativePart(f"negative part: {vals[-1]}")
            # sorted with a zero last part: every part from the first zero is 0
            vals = vals[:vals.index(0)]
        return tuple.__new__(cls, vals)

    def size(self) -> int:
        return sum(self)

    def length(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}" if self else "Partition()"


class ModularDiagram(NamedTuple):
    """Base m and rows of (cell_count, remainder); row i encodes the part
    m*(cell_count - 1) + remainder with remainder in 1..m."""

    m: int
    rows: tuple


def _columns(parts) -> list:
    """Column lengths of the diagram of weakly decreasing positive parts:
    the number of parts >= j for j = 1..parts[0], from a tally of the
    parts and one reverse running sum."""
    if not parts:
        return []
    tally = [0] * (parts[0] + 1)
    for part in parts:
        tally[part] += 1
    del tally[0]
    tally.reverse()
    cols = list(accumulate(tally))
    cols.reverse()
    return cols


def schmidt_weight(p: Partition, t: int, r: int) -> int:
    """Sum of the parts at indices r, t+r, 2t+r, ..."""
    if t < 1 or r < 1:
        raise ValueError("t and r must be positive")
    return sum(Partition(p)[r - 1::t])


def to_modular(p: Partition, m: int) -> ModularDiagram:
    """Write each part as m*(cells - 1) + remainder with remainder in 1..m."""
    if m < 2:
        raise ValueError(f"modular base must be >= 2, got {m}")
    rows = []
    for part in Partition(p):
        cells = (part + m - 1) // m
        rows.append((cells, part - m * (cells - 1)))
    return ModularDiagram(m, tuple(rows))


def _check_modular(d: ModularDiagram) -> None:
    """Raise InvalidDiagram unless d is the modular diagram of a partition:
    base at least 2, and row by row a positive cell count, a remainder in
    1..m and no rise of the cell count; then no rise of the decoded parts,
    which given the rest happens exactly where a row has the cell count
    of the row above and a larger remainder. One walk over the rows."""
    m, rows = d
    if m < 2:
        raise InvalidDiagram(f"modular base must be >= 2, got {m}")
    prev_cells, prev_rem, rising = math.inf, m, False
    for cells, rem in rows:
        if cells < 1:
            raise InvalidDiagram(f"cell count must be positive: {cells}")
        if not 1 <= rem <= m:
            raise InvalidDiagram(f"remainder {rem} outside 1..{m}")
        if cells > prev_cells:
            raise InvalidDiagram("cell counts must be weakly decreasing")
        rising = rising or (cells == prev_cells and rem > prev_rem)
        prev_cells, prev_rem = cells, rem
    if rising:
        raise InvalidDiagram("decoded parts must be weakly decreasing")


def from_modular(d: ModularDiagram) -> Partition:
    """Decode a modular diagram back to its partition."""
    _check_modular(d)
    return Partition([d.m * (cells - 1) + rem for cells, rem in d.rows])


def enumerate_partitions(
    n: int,
    distinct: bool = False,
    odd_parts: bool = False,
) -> Iterator[Partition]:
    """Yield every qualifying partition of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError(f"target size must be nonnegative, got {n}")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for v in range(min(cap, remaining), 0, -1):
            if odd_parts and v % 2 == 0:
                continue
            nxt = v - 1 if distinct else v
            for rest in rec(remaining - v, nxt):
                yield (v,) + rest

    for parts in rec(n, n):
        yield Partition(parts)


def partition_domain(n_max: int, distinct: bool = False):
    """Every partition of size <= n_max (with distinct parts, if distinct)
    as two arrays in the narrowest unsigned type that holds n_max: the
    parts, parts-major (see the module docstring) with a zero last row,
    in enumerate_partitions order by size, and each column's size.

    The parts array is allocated once and filled in place. A partition of
    n is a first part f followed by a partition of n - f with parts <= f
    (<= f - 1 if distinct), and block n - f, written earlier, lists those
    last, since each block runs by first part descending. So each (n, f)
    is one copy from earlier columns, one row down.
    """
    if n_max < 0:
        raise ValueError(f"target size must be nonnegative, got {n_max}")
    # the longest distinct partition of n_max has
    # (isqrt(8 n_max + 1) - 1) / 2 parts, and a column needs one zero row
    # more
    width = (math.isqrt(8 * n_max + 1) + 1) // 2 if distinct else n_max + 2
    kind = np.min_scalar_type(n_max)
    counts = partition_numbers(n_max, distinct=distinct)
    ends = list(accumulate(counts))
    parts = np.zeros((width, ends[-1]), dtype=kind)
    gap = 1 if distinct else 0
    fits = [[1]]  # fits[m][k]: how many partitions of m have parts <= k
    for n in range(1, n_max + 1):
        col = ends[n - 1]
        firsts = [0] * (n + 1)  # firsts[f]: how many start with part f
        for f in range(n, 0, -1):
            m = n - f
            # the last k columns of block m have parts <= f - gap; past
            # its first min(m, width - 1) rows, block m is zero
            k = firsts[f] = fits[m][min(f - gap, m)]
            rows = min(m, width - 1)
            parts[0, col:col + k] = f
            parts[1:rows + 1, col:col + k] = parts[:rows, ends[m] - k:ends[m]]
            col += k
        fits.append(list(accumulate(firsts)))
    sizes = np.repeat(np.arange(n_max + 1, dtype=kind), counts)
    return parts, sizes


def partition_numbers(
    n_max: int,
    distinct: bool = False,
    odd_parts: bool = False,
) -> List[int]:
    """Counts of the partitions of 0, 1, ..., n_max with the given part
    restrictions, by one dynamic program over allowed part sizes.

    Independent of enumerate_partitions; used to cross-check the stream.
    """
    if n_max < 0:
        raise ValueError(f"target size must be nonnegative, got {n_max}")
    sizes = [s for s in range(1, n_max + 1) if not (odd_parts and s % 2 == 0)]
    ways = [0] * (n_max + 1)
    ways[0] = 1
    for s in sizes:
        if distinct:
            for v in range(n_max, s - 1, -1):
                ways[v] += ways[v - s]
        else:
            for v in range(s, n_max + 1):
                ways[v] += ways[v - s]
    return ways
