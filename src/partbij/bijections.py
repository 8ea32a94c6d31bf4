"""Partition maps: diagonal-hook reading, odd-parts fill, 2-modular hook
counting, the color-conjugate pair map, and the m-modular hook-count map
with its collision search.

Each scalar map validates its input once at the boundary, by coercing it
through Partition, works on plain tuples and lists inside, and builds one
validated Partition (or ColoredPartition) per output. The scalar maps are
the independent reference that the array maps (the ``*_rows`` functions)
are tested against, so none of them calls an array map.
"""

from itertools import accumulate, islice
from operator import ge, gt
from typing import NamedTuple

import numpy as np

from .partitions import (
    InvalidFrobenius,
    Partition,
    PartitionError,
    _check_modular,
    _columns,
    _frobenius_parts,
    enumerate_partitions,
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
    mu = Partition(mu)
    conj = _columns(mu)
    parts = []
    # 0-based: the hook at (i, i) has arm mu_i - i - 1 and leg conj_i - i - 1
    for i, (row, col) in enumerate(zip(mu, conj)):
        if row <= i:
            break
        parts.append(row + col - 2 * i - 1)
        if row > i + 1:
            parts.append(row + conj[i + 1] - 2 * i - 2)
    return Partition(parts)


def mork_inverse(delta):
    """Rebuild the partition whose interleaved hook lengths are delta.

    Hook lengths of consecutive diagonal cells determine arm and leg
    lengths one diagonal at a time, from the innermost out:
    delta_{2i-1} = a_i + l_i + 1 and delta_{2i} = a_i + l_{i+1} + 1,
    with the last diagonal pinned by the parity of len(delta).
    """
    return Partition(_mork_inverse_parts(Partition(delta)))


def _mork_inverse_parts(delta):
    """mork_inverse of a Partition, as a list of parts."""
    if not delta:
        return []
    if not all(map(gt, delta, delta[1:])):
        part = next(a for a, b in zip(delta, delta[1:]) if a == b)
        raise NotDistinct(f"repeated part {part}")
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
        return _frobenius_parts(tuple(arms), tuple(legs))
    except InvalidFrobenius as exc:
        raise NotInImage(str(exc)) from exc


def modular_fill(mu):
    """Double each part and subtract one: fill mu's diagram read as a
    2-modular diagram, a 1 ending every row and 2s elsewhere."""
    return Partition([2 * p - 1 for p in Partition(mu)])


def _odd_parts(omega):
    """omega as a Partition; raises NotOddParts if a part is even."""
    omega = Partition(omega)
    if not all(p % 2 for p in omega):
        raise NotOddParts(f"even part in {omega!r}")
    return omega


def modular_fill_inverse(omega):
    """Halve each odd part rounding up; inverse of modular_fill."""
    return Partition([(p + 1) // 2 for p in _odd_parts(omega)])


def _diagonal_hooks(diagram):
    """Per diagonal hook of a modular diagram's shape, the number of its
    cells that are not the last of their row, each holding the base, and
    the remainders held by the cells that are.

    Hook i is row i's cells from column i on and, below it, column i's
    cells: one per row longer than i, the row's last when it has i + 1.
    """
    rows = diagram.rows
    hooks = []
    for i, (cells, rem) in enumerate(rows):
        if cells <= i:
            break
        full, rems = cells - i - 1, [rem]
        for cells2, rem2 in islice(rows, i + 1, None):
            if cells2 <= i:
                break
            if cells2 == i + 1:
                rems.append(rem2)
            else:
                full += 1
        hooks.append((full, rems))
    return hooks


def bessenrodt(omega):
    """Count each diagonal hook of the 2-modular diagram: total cells,
    then cells holding 2.

    Size-preserving map from odd-parts to distinct-parts partitions;
    pointwise equal to mork(modular_fill_inverse(omega)).
    """
    parts = []
    for full, rems in _diagonal_hooks(to_modular(_odd_parts(omega), 2)):
        parts.append(full + len(rems))
        twos = full + rems.count(2)
        if twos:
            parts.append(twos)
    return Partition(parts)


def bessenrodt_inverse(delta):
    """Compose the two inverses: distinct parts back to odd parts."""
    return Partition([2 * p - 1
                      for p in _mork_inverse_parts(Partition(delta))])


def bessenrodt_inverse_rows(rows):
    """bessenrodt_inverse on every row of an int64 array of partitions,
    zero-padded, as whole-array operations.

    mork_inverse's recursion runs over the diagonals of all rows at once,
    from the innermost out: with leg_d = -1 past a row's last diagonal d,
    arm_i = delta_{2i+1} - leg_{i+1} - 1 and leg_i = delta_{2i} - arm_i - 1
    (0-based), which also covers both parities of the last diagonal and
    leaves leg_i = -1 for i >= d. The preimage's parts below the Durfee
    square are the conjugate of the column heights leg_j + j + 1, and its
    first d parts are arm_i + i + 1; then every part p becomes 2p - 1.

    Returns the images, zero-padded, and a mask of the rows that have a
    preimage: distinct parts, and arms and legs nonnegative and strictly
    decreasing. Other rows hold no meaningful partition.
    """
    d = (np.count_nonzero(rows, axis=1) + 1) // 2
    top = int(d.max(initial=0))
    delta = np.pad(rows, ((0, 0), (0, max(0, 2 * top - rows.shape[1]))))
    arms = np.zeros((len(rows), top), dtype=np.int64)
    legs = np.full((len(rows), top + 1), -1, dtype=np.int64)
    for i in range(top - 1, -1, -1):
        arms[:, i] = delta[:, 2 * i + 1] - legs[:, i + 1] - 1
        legs[:, i] = delta[:, 2 * i] - arms[:, i] - 1
    legs = legs[:, :top]
    diagonal = np.arange(top)
    inside = diagonal < d[:, None]
    valid = (((rows[:, :-1] > rows[:, 1:]) | (rows[:, 1:] == 0)).all(axis=1)
             & ((arms >= 0) & (legs >= 0) | ~inside).all(axis=1)
             & ((arms[:, :-1] > arms[:, 1:]) & (legs[:, :-1] > legs[:, 1:])
                | ~inside[:, 1:]).all(axis=1))
    below = _conjugate_rows(
        np.where(inside & valid[:, None], legs + diagonal + 1, 0))
    # below holds d in each of a valid row's first d columns
    mu = np.zeros((len(rows), max(below.shape[1], top)), dtype=np.int64)
    mu[:, :below.shape[1]] = below
    mu[:, :top] += np.where(inside, arms + diagonal + 1 - d[:, None], 0)
    return np.where(mu > 0, 2 * mu - 1, 0), valid


def color_conjugate(lam, t, r):
    """Split a partition into a short top and a colored conjugate.

    nu records rows above row r relative to it; mu's parts are the
    conjugate of the rows r, t+r, 2t+r, ...; the color of part i encodes
    column i's height above the last counted row, reduced mod t. Raises
    ValueError unless t and r are positive.
    """
    if t < 1 or r < 1:
        raise ValueError("t and r must be positive")
    lam = Partition(lam)
    lam_r = lam[r - 1] if r <= len(lam) else 0
    nu = Partition([part - lam_r for part in lam[:r - 1]])
    # column i's height below row r - 1 is conj_i - (r - 1)
    colors = [(h - r) % t + 1 for h in _columns(lam)[:lam_r]]
    mu = ColoredPartition(zip(_columns(lam[r - 1::t]), colors), t)
    return ColorConjugatePair(nu, mu)


def color_conjugate_inverse(nu, mu, t, r):
    """Rebuild the partition from its color-conjugate pair.

    Column i regrows to height (mu_i - 1)*t + color_i below row r-1;
    rows above are nu's parts over a base of length(mu). Raises
    ValueError unless t and r are positive.
    """
    if t < 1 or r < 1:
        raise ValueError("t and r must be positive")
    nu = Partition(nu)
    if len(nu) > r - 1:
        raise InvalidPair(
            f"nu has {len(nu)} parts, at most {r - 1} allowed")
    # mu's colours lie in 1..mu.t, so only a wider palette needs a scan
    if mu.t > t and any(color > t for _, color in mu.entries):
        raise InvalidPair(f"mu has a colour above t = {t}")
    heights = [(part - 1) * t + color for part, color in mu.entries]
    if not all(map(ge, heights, heights[1:])):
        raise InvalidPair("column heights increase")
    base = len(heights)
    front = [base + part for part in nu] + [base] * (r - 1 - len(nu))
    return Partition(front + _columns(heights))


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
    InvalidDiagram if the diagram is not that of a partition.
    """
    _check_modular(diagram)
    m = diagram.m
    parts = []
    for full, rems in _diagonal_hooks(diagram):
        # the counts of values >= j up to the hook's largest value, none of
        # them 0, as a reverse running sum of each value's tally
        top = m if full else max(rems)
        tally = [0] * (top + 1)
        tally[top] = full
        for rem in rems:
            tally[rem] += 1
        parts.extend(reversed(list(accumulate(reversed(tally[1:])))))
    return HookMapImage(tuple(parts), all(map(ge, parts, parts[1:])))


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
