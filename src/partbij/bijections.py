"""Partition maps: diagonal-hook reading, odd-parts fill, 2-modular hook
counting, the color-conjugate pair map, and the m-modular hook-count map
with its collision search.
"""

from typing import NamedTuple

import numpy as np

from .partitions import (
    FrobeniusCoords,
    InvalidFrobenius,
    ModularDiagram,
    Partition,
    PartitionError,
    conjugate,
    durfee_size,
    enumerate_partitions,
    from_frobenius,
    to_modular,
)
from .colored import ColoredPartition


class NotDistinct(PartitionError):
    """Input must have strictly decreasing parts."""


class NotInImage(PartitionError):
    """No preimage exists for this input."""


class NotOddParts(PartitionError):
    """Input must have all parts odd."""


class InvalidPair(PartitionError):
    """The (nu, mu) pair is outside the map's image."""


class ColorConjugatePair(NamedTuple):
    nu: Partition
    mu: ColoredPartition


class HookMapImage(NamedTuple):
    parts: tuple
    is_partition: bool


class CollisionGroup(NamedTuple):
    image: Partition
    preimages: tuple


def mork(mu):
    """Read off diagonal hook lengths, interleaved with their right neighbors.

    Part 2i-1 is the hook length at cell (i,i), part 2i the hook length at
    (i,i+1) when that cell exists. The result always has strictly
    decreasing parts, and its odd-indexed parts sum to the input size.
    """
    conj = conjugate(mu)
    parts = []
    for i in range(1, durfee_size(mu) + 1):
        parts.append((mu.part(i) - i) + (conj.part(i) - i) + 1)
        if mu.part(i) >= i + 1:
            parts.append((mu.part(i) - (i + 1)) + (conj.part(i + 1) - i) + 1)
    return Partition(parts)


def mork_inverse(delta):
    """Rebuild the partition whose interleaved hook lengths are delta.

    Hook lengths of consecutive diagonal cells determine arm and leg
    lengths one diagonal at a time, from the innermost out:
    delta_{2i-1} = a_i + l_i + 1 and delta_{2i} = a_i + l_{i+1} + 1,
    with the last diagonal pinned by the parity of len(delta).
    """
    delta = Partition(delta)
    if not delta:
        return Partition(())
    for i in range(len(delta) - 1):
        if delta[i] == delta[i + 1]:
            raise NotDistinct(f"repeated part {delta[i]}")
    d = (len(delta) + 1) // 2
    arms = [0] * d
    legs = [0] * d
    if len(delta) % 2:
        arms[d - 1] = 0
        legs[d - 1] = delta[2 * d - 2] - 1
    else:
        arms[d - 1] = delta[2 * d - 1]
        legs[d - 1] = delta[2 * d - 2] - arms[d - 1] - 1
    for i in range(d - 2, -1, -1):
        arms[i] = delta[2 * i + 1] - legs[i + 1] - 1
        legs[i] = delta[2 * i] - arms[i] - 1
    try:
        return from_frobenius(FrobeniusCoords(tuple(arms), tuple(legs)))
    except InvalidFrobenius as exc:
        raise NotInImage(str(exc)) from exc


def modular_fill(mu):
    """Double each part and subtract one: fill mu's diagram read as a
    2-modular diagram, a 1 ending every row and 2s elsewhere."""
    return Partition(2 * p - 1 for p in mu)


def modular_fill_inverse(omega):
    """Halve each odd part rounding up; inverse of modular_fill."""
    omega = Partition(omega)
    if any(p % 2 == 0 for p in omega):
        raise NotOddParts(f"even part in {omega!r}")
    return Partition((p + 1) // 2 for p in omega)


def _diagonal_hook_values(diagram):
    """Cell values of each diagonal hook of a modular diagram's shape.

    A row of c cells holds the base in every cell except the last, which
    holds the row's remainder.
    """
    m = diagram.m
    rows = diagram.rows
    hooks = []
    i = 0
    while i < len(rows) and rows[i][0] >= i + 1:
        cells, rem = rows[i]
        values = [rem if j == cells - 1 else m for j in range(i, cells)]
        for i2 in range(i + 1, len(rows)):
            cells2, rem2 = rows[i2]
            if cells2 < i + 1:
                break
            values.append(rem2 if cells2 == i + 1 else m)
        hooks.append(values)
        i += 1
    return hooks


def bessenrodt(omega):
    """Count each diagonal hook of the 2-modular diagram: total cells,
    then cells holding 2.

    Size-preserving map from odd-parts to distinct-parts partitions;
    pointwise equal to mork(modular_fill_inverse(omega)).
    """
    omega = Partition(omega)
    if any(p % 2 == 0 for p in omega):
        raise NotOddParts(f"even part in {omega!r}")
    parts = []
    for values in _diagonal_hook_values(to_modular(omega, 2)):
        parts.append(len(values))
        parts.append(sum(1 for v in values if v == 2))
    return Partition(p for p in parts if p)


def bessenrodt_inverse(delta):
    """Compose the two inverses: distinct parts back to odd parts."""
    return modular_fill(mork_inverse(delta))


def color_conjugate(lam, t, r):
    """Split a partition into a short top and a colored conjugate.

    nu records rows above row r relative to it; mu's parts are the
    conjugate of the rows r, t+r, 2t+r, ...; the color of part i encodes
    column i's height above the last counted row, reduced mod t.
    """
    lam = Partition(lam)
    lam_r = lam.part(r)
    nu = Partition(lam.part(i) - lam_r for i in range(1, r))
    counted = []
    k = 0
    while lam.part(r + k * t) > 0:
        counted.append(lam.part(r + k * t))
        k += 1
    mu_parts = conjugate(Partition(counted))
    conj = conjugate(lam)
    entries = []
    for i in range(1, lam_r + 1):
        h = conj.part(i) - (r - 1)
        entries.append((mu_parts.part(i), (h - 1) % t + 1))
    return ColorConjugatePair(nu, ColoredPartition(entries, t))


def color_conjugate_inverse(nu, mu, t, r):
    """Rebuild the partition from its color-conjugate pair.

    Column i regrows to height (mu_i - 1)*t + color_i below row r-1;
    rows above are nu's parts over a base of length(mu).
    """
    nu = Partition(nu)
    if nu.length() > r - 1:
        raise InvalidPair(
            f"nu has {nu.length()} parts, at most {r - 1} allowed")
    heights = [(part - 1) * t + color for part, color in mu.entries]
    for a, b in zip(heights, heights[1:]):
        if a < b:
            raise InvalidPair("column heights increase")
    back = conjugate(Partition(heights))
    front = [mu.length() + nu.part(i) for i in range(1, r)]
    return Partition(front + list(back))


def _conjugate_rows(rows):
    """Conjugates of the rows of a nonnegative int64 array, each row the
    parts of a partition in any order, zero-padded to the largest part."""
    top = int(rows.max(initial=0))
    counts = np.bincount(
        (np.arange(len(rows))[:, None] * (top + 1) + rows).ravel(),
        minlength=len(rows) * (top + 1))
    return np.cumsum(counts.reshape(-1, top + 1)[:, :0:-1], axis=1)[:, ::-1]


def color_conjugate_rows(rows, t, r):
    """color_conjugate on every row of an int64 array of partitions
    zero-padded to at least r columns, as whole-array operations.

    Returns nu (r - 1 columns), mu's parts and their colors, the last two
    zero-padded alike and nonzero on the first lambda_r columns.
    """
    mu = _conjugate_rows(rows[:, r - 1::t])
    # the column heights h below row r - 1 take colour (h - 1) mod t + 1
    colors = _conjugate_rows(rows)[:, :mu.shape[1]] - r
    colors %= t
    colors += 1
    colors[mu == 0] = 0
    return rows[:, :r - 1] - rows[:, r - 1:r], mu, colors


def color_conjugate_inverse_rows(nu, mu, colors, t, r):
    """color_conjugate_inverse on every row of the arrays that
    color_conjugate_rows returns (nu may have extra columns).

    Returns the rebuilt partitions, zero-padded, and a mask of the rows
    whose pair is valid: nu has at most r - 1 parts and the column
    heights do not increase. Other rows hold no meaningful partition.
    """
    heights = np.where(mu > 0, (mu - 1) * t + colors, 0)
    valid = ((nu[:, r - 1:] == 0).all(axis=1)
             & (heights[:, :-1] >= heights[:, 1:]).all(axis=1))
    front = np.count_nonzero(mu, axis=1)[:, None] + nu[:, :r - 1]
    return np.hstack([front, _conjugate_rows(heights)]), valid


def generalized_hook_map(diagram):
    """Per diagonal hook, count cells with value at least j for j = 1..m.

    Blocks are concatenated in hook order and zeros dropped; the result
    is flagged as a partition when weakly decreasing. The emitted parts
    always sum to the size of the decoded partition, because summing
    the threshold counts of a cell of value v contributes exactly v.
    """
    parts = []
    for values in _diagonal_hook_values(diagram):
        # no value exceeds the hook's largest, so later counts are 0
        for j in range(1, max(values, default=0) + 1):
            parts.append(sum(1 for v in values if v >= j))
    parts = tuple(p for p in parts if p)
    is_partition = all(a >= b for a, b in zip(parts, parts[1:]))
    return HookMapImage(parts, is_partition)


def generalized_hook_map_rows(rows, m):
    """generalized_hook_map(to_modular(lam, m)) on every row of an int64
    array of partitions, zero-padded, as whole-array operations.

    Part i takes cells_i = ceil(lam_i / m) cells, each holding m but the
    last, which holds the remainder and lies in diagonal hook
    min(i, cells_i - 1). Hook k has cells_k + cells'_k - 2k - 1 cells, so
    its count of values >= j is its cells holding m plus its remainders
    >= j: one bincount over (row, hook, remainder) and a reverse cumsum.

    Returns the images' parts, zero-padded and left-aligned, and a mask
    of the rows whose image is a partition.
    """
    n_rows, width = rows.shape
    cells = -(-rows // m)
    column = np.arange(width)
    # the most diagonal hooks of any row: the largest Durfee size of cells
    hooks = int((cells > column).sum(axis=1).max(initial=0))
    span = min(m, int(rows.max(initial=0)))  # the remainders lie in 1..span
    row_hook = (np.arange(n_rows)[:, None] * hooks
                + np.minimum(column, cells - 1))
    tally = np.bincount(
        (row_hook * (span + 1) + rows - m * (cells - 1))[rows > 0],
        minlength=n_rows * hooks * (span + 1))
    at_least = np.cumsum(
        tally.reshape(n_rows, hooks, span + 1)[:, :, ::-1], axis=2)[:, :, ::-1]
    # negative past a row's own Durfee size, where the row has no hook
    length = (cells[:, :hooks] + _conjugate_rows(cells)[:, :hooks]
              - 2 * np.arange(hooks) - 1).clip(min=0)
    parts = ((length - at_least[:, :, 0])[:, :, None]
             + at_least[:, :, 1:]).reshape(n_rows, -1)
    keep = parts > 0
    image = np.zeros((n_rows, int(keep.sum(axis=1).max(initial=0))),
                     dtype=np.int64)
    slot = np.cumsum(keep, axis=1) - 1
    image[np.nonzero(keep)[0], slot[keep]] = parts[keep]
    return image, (image[:, :-1] >= image[:, 1:]).all(axis=1)


def collision_search(m, n):
    """Group partitions sharing a generalized hook-map image.

    The domain is the partitions of n with no part divisible by m, the
    m-modular analog of odd-parts partitions (at m=2 the map reduces to
    the 2-modular hook count, which is injective there). Only images
    that are valid partitions are grouped; groups of one are dropped.
    Groups and preimages are ordered reverse-lexicographically.
    """
    groups = {}
    for p in enumerate_partitions(n):
        if any(part % m == 0 for part in p):
            continue
        image = generalized_hook_map(to_modular(p, m))
        if image.is_partition:
            groups.setdefault(image.parts, []).append(p)
    out = [
        CollisionGroup(Partition(image), tuple(sorted(pre, reverse=True)))
        for image, pre in groups.items()
        if len(pre) >= 2
    ]
    out.sort(key=lambda g: g.image, reverse=True)
    return out
