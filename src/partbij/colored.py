"""Colored partitions: parts tagged with colors from a palette 1..t.

Entries are kept in the canonical order (part descending, then color
descending), which makes equality of colored partitions decidable while
satisfying the rule that colors weakly decrease across equal parts.
The constructor is the boundary: it converts and checks every entry in
one pass and sorts once.
"""

from typing import Iterable, Tuple

from .partitions import Partition


class ColoredPartitionError(ValueError):
    """Invalid colored partition data."""


class ColoredPartition:
    """A partition whose parts carry colors in 1..t.

    entries: tuple of (part, color) pairs, canonically ordered.
    t: palette size.
    """

    __slots__ = ("entries", "t")

    def __init__(self, entries: Iterable[Tuple[int, int]], t: int):
        if t < 1:
            raise ColoredPartitionError(f"palette size must be >= 1, got {t}")
        pairs = []
        for part, color in entries:
            part, color = int(part), int(color)
            if part < 1:
                raise ColoredPartitionError(f"part must be positive: {part}")
            if not 1 <= color <= t:
                raise ColoredPartitionError(f"color {color} outside 1..{t}")
            pairs.append((part, color))
        pairs.sort(reverse=True)
        self.entries = tuple(pairs)
        self.t = t

    def size(self) -> int:
        return sum(p for p, _ in self.entries)

    def length(self) -> int:
        return len(self.entries)

    def parts(self) -> Partition:
        return Partition(p for p, _ in self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredPartition)
            and self.entries == other.entries
            and self.t == other.t
        )

    def __hash__(self) -> int:
        return hash((self.entries, self.t))

    def __repr__(self) -> str:
        body = ", ".join(f"{p}^{c}" for p, c in self.entries)
        return f"ColoredPartition({body}; t={self.t})"
