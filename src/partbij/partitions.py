"""Integer partitions, Young diagram statistics, and enumeration streams.

A partition is stored as a tuple of weakly decreasing positive parts.
Parts are addressed 1-based, and ``part(i)`` reads as 0 past the end, so
statistics defined over infinite index sets (Schmidt weights, color
profiles) are total functions.
"""

import math
from typing import Iterable, Iterator, List, NamedTuple, Optional

import numpy as np


class PartitionError(ValueError):
    """Base class for invalid partition data."""


class NotSorted(PartitionError):
    """Parts are not weakly decreasing."""


class NegativePart(PartitionError):
    """A part is negative."""


class CellOutOfDiagram(PartitionError):
    """Cell (i, j) lies outside the Young diagram."""


class InvalidFrobenius(PartitionError):
    """Arm/leg sequences are not strictly decreasing nonnegative of equal length."""


class InvalidDiagram(PartitionError):
    """Modular diagram rows violate the shape or remainder constraints."""


class Partition(tuple):
    """A weakly decreasing tuple of positive integers.

    Trailing zeros are stripped on construction; the empty partition is
    ``Partition()``.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int] = ()):
        vals = list(values)
        for a, b in zip(vals, vals[1:]):
            if a < b:
                raise NotSorted(f"parts not weakly decreasing: {a} < {b}")
        if vals and vals[-1] < 0:
            raise NegativePart(f"negative part: {vals[-1]}")
        while vals and vals[-1] == 0:
            vals.pop()
        return super().__new__(cls, vals)

    def size(self) -> int:
        return sum(self)

    def length(self) -> int:
        return len(self)

    def part(self, i: int) -> int:
        """1-based part access; 0 beyond the last part."""
        if i < 1:
            raise IndexError(f"part index must be >= 1, got {i}")
        return self[i - 1] if i <= len(self) else 0

    def __repr__(self) -> str:
        return f"Partition{tuple(self)!r}" if self else "Partition()"


class FrobeniusCoords(NamedTuple):
    """Arm and leg lengths at the diagonal cells, both strictly decreasing."""

    arms: tuple
    legs: tuple


class ModularDiagram(NamedTuple):
    """Base m and rows of (cell_count, remainder); row i encodes the part
    m*(cell_count - 1) + remainder with remainder in 1..m."""

    m: int
    rows: tuple


def conjugate(p: Partition) -> Partition:
    """Column lengths of p's Young diagram."""
    if not p:
        return Partition()
    cols = [0] * p[0]
    for part in p:
        for j in range(part):
            cols[j] += 1
    return Partition(cols)


def durfee_size(p: Partition) -> int:
    """Largest d with p.part(d) >= d."""
    d = 0
    for i, part in enumerate(p, start=1):
        if part >= i:
            d = i
        else:
            break
    return d


def hook_length(p: Partition, i: int, j: int) -> int:
    """Number of cells in the hook of cell (i, j): the cell itself plus all
    cells below and to the right."""
    if i < 1 or j < 1 or j > p.part(i):
        raise CellOutOfDiagram(f"cell ({i}, {j}) outside diagram of {p}")
    arm = p.part(i) - j
    leg = conjugate(p).part(j) - i
    return arm + leg + 1


def schmidt_weight(p: Partition, t: int, r: int) -> int:
    """Sum of the parts at indices r, t+r, 2t+r, ..."""
    if t < 1 or r < 1:
        raise ValueError("t and r must be positive")
    total = 0
    i = r
    while i <= len(p):
        total += p[i - 1]
        i += t
    return total


def color_profile(p: Partition, t: int, r: int) -> tuple:
    """The t alternating sums c_i = sum_k (p_{kt+r+i-1} - p_{kt+r+i}).

    The c_i are nonnegative and sum to p.part(r).
    """
    if t < 1 or r < 1:
        raise ValueError("t and r must be positive")
    profile = []
    for i in range(1, t + 1):
        c = 0
        k = 0
        while True:
            a = r + i - 1 + k * t
            if a > len(p):
                break
            c += p.part(a) - p.part(a + 1)
            k += 1
        profile.append(c)
    return tuple(profile)


def to_frobenius(p: Partition) -> FrobeniusCoords:
    """Arms a_i = p_i - i and legs l_i = p'_i - i for i up to the Durfee size."""
    d = durfee_size(p)
    conj = conjugate(p)
    arms = tuple(p[i - 1] - i for i in range(1, d + 1))
    legs = tuple(conj[i - 1] - i for i in range(1, d + 1))
    return FrobeniusCoords(arms, legs)


def from_frobenius(f: FrobeniusCoords) -> Partition:
    """Rebuild the partition whose diagonal arms and legs are f."""
    arms, legs = tuple(f.arms), tuple(f.legs)
    if len(arms) != len(legs):
        raise InvalidFrobenius("arms and legs must have equal length")
    for seq, name in ((arms, "arms"), (legs, "legs")):
        if any(x < 0 for x in seq):
            raise InvalidFrobenius(f"{name} must be nonnegative: {seq}")
        if any(a <= b for a, b in zip(seq, seq[1:])):
            raise InvalidFrobenius(f"{name} must be strictly decreasing: {seq}")
    d = len(arms)
    parts = [arms[i] + i + 1 for i in range(d)]
    # rows below the Durfee square come from the column heights legs[j] + j + 1
    i = d + 1
    while True:
        row = sum(1 for j in range(d) if legs[j] + j + 1 >= i)
        if row == 0:
            break
        parts.append(row)
        i += 1
    return Partition(parts)


def to_modular(p: Partition, m: int) -> ModularDiagram:
    """Write each part as m*(cells - 1) + remainder with remainder in 1..m."""
    if m < 2:
        raise ValueError(f"modular base must be >= 2, got {m}")
    rows = []
    for part in p:
        cells = (part + m - 1) // m
        rows.append((cells, part - m * (cells - 1)))
    return ModularDiagram(m, tuple(rows))


def from_modular(d: ModularDiagram) -> Partition:
    """Decode a modular diagram back to its partition."""
    if d.m < 2:
        raise InvalidDiagram(f"modular base must be >= 2, got {d.m}")
    parts = []
    prev_cells = None
    for cells, rem in d.rows:
        if cells < 1:
            raise InvalidDiagram(f"cell count must be positive: {cells}")
        if not 1 <= rem <= d.m:
            raise InvalidDiagram(f"remainder {rem} outside 1..{d.m}")
        if prev_cells is not None and cells > prev_cells:
            raise InvalidDiagram("cell counts must be weakly decreasing")
        prev_cells = cells
        parts.append(d.m * (cells - 1) + rem)
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise InvalidDiagram("decoded parts must be weakly decreasing")
    return Partition(parts)


def enumerate_partitions(
    n: int,
    distinct: bool = False,
    odd_parts: bool = False,
    max_part: Optional[int] = None,
    max_length: Optional[int] = None,
) -> Iterator[Partition]:
    """Yield every qualifying partition of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError(f"target size must be nonnegative, got {n}")
    cap = n if max_part is None else min(max_part, n)
    slots = n if max_length is None else min(max_length, n)

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or cap == 0:
            return
        for v in range(min(cap, remaining), 0, -1):
            if odd_parts and v % 2 == 0:
                continue
            nxt = v - 1 if distinct else v
            for rest in rec(remaining - v, nxt, slots - 1):
                yield (v,) + rest

    for parts in rec(n, cap, slots):
        yield Partition(parts)


def partition_blocks(n_max: int, width: Optional[int] = None) -> Iterator[np.ndarray]:
    """Yield, for n = 0, 1, ..., n_max, every partition of n as the rows of
    an int64 array zero-padded to width columns (default n_max + 2), in
    enumerate_partitions(n) order.

    A partition of n is a first part f followed by a partition of n - f
    with parts <= f, and block n - f lists those last, since each block
    runs by first part descending. So a block is one gather from the
    earlier blocks, of which only the rows a later block can extend are
    kept.
    """
    if n_max < 0:
        raise ValueError(f"target size must be nonnegative, got {n_max}")
    width = n_max + 2 if width is None else width
    kept = []  # kept[m]: the partitions of m with parts <= n_max - m
    fits = []  # fits[m][f]: how many partitions of m have parts <= f
    for n in range(n_max + 1):
        if n == 0:
            rows = np.zeros((1, width), dtype=np.int64)
        else:
            firsts = range(n, 0, -1)
            tails = [kept[n - f][len(kept[n - f]) - fits[n - f][f]:]
                     for f in firsts]
            rows = np.empty((sum(map(len, tails)), width), dtype=np.int64)
            rows[:, 0] = np.repeat(firsts, [len(tail) for tail in tails])
            np.concatenate([tail[:, :-1] for tail in tails], out=rows[:, 1:])
        fits.append(np.cumsum(np.bincount(rows[:, 0], minlength=n_max + 1)))
        kept.append(rows[len(rows) - fits[n][n_max - n]:].copy())
        yield rows


def partition_numbers(
    n_max: int,
    distinct: bool = False,
    odd_parts: bool = False,
    max_part: Optional[int] = None,
) -> List[int]:
    """Counts of the partitions of 0, 1, ..., n_max with the given part
    restrictions, by one dynamic program over allowed part sizes.

    Independent of enumerate_partitions; used to cross-check the stream.
    """
    if n_max < 0:
        raise ValueError(f"target size must be nonnegative, got {n_max}")
    cap = n_max if max_part is None else min(max_part, n_max)
    sizes = [s for s in range(1, cap + 1) if not (odd_parts and s % 2 == 0)]
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


def count_partitions(
    n: int,
    distinct: bool = False,
    odd_parts: bool = False,
    max_part: Optional[int] = None,
) -> int:
    """Count partitions of n; the last entry of partition_numbers(n)."""
    return partition_numbers(n, distinct, odd_parts, max_part)[n]


def count_in_box(width: int, height: int) -> int:
    """Number of partitions with parts <= width and at most height parts."""
    if width < 0 or height < 0:
        raise ValueError("box dimensions must be nonnegative")
    return math.comb(width + height, height)
