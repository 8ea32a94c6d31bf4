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
    Partition,
    PartitionError,
    _check_modular,
    _columns,
    enumerate_partitions,
    to_modular,
)
from .colored import ColoredPartition


class NotDistinct(PartitionError):
    """Input must have strictly decreasing parts."""


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
    return _frobenius_parts(tuple(arms), tuple(legs))


def _frobenius_parts(arms, legs):
    """The parts, as a list, of the partition whose diagonal arms and legs
    are arms and legs: nonnegative, strictly decreasing and of equal
    length, as mork_inverse derives them from distinct parts."""
    parts = [a + i for i, a in enumerate(arms, 1)]
    # rows below the Durfee square are the columns of the column heights
    # legs[j] + j + 1, each at least d
    parts += _columns([leg + j for j, leg in enumerate(legs, 1)])[len(legs):]
    return parts


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
    """bessenrodt_inverse on every column of a parts-major array of
    partitions (see partitions), as whole-array operations in its signed
    integer type.

    mork_inverse's recursion runs over the diagonals of all columns at
    once, from the innermost out: with leg_d = -1 past a column's last
    diagonal d, arm_i = delta_{2i+1} - leg_{i+1} - 1 and
    leg_i = delta_{2i} - arm_i - 1 (0-based), which also covers both
    parities of the last diagonal and leaves leg_i = -1 for i >= d. The
    preimage's parts below the Durfee square are the conjugate of the
    column heights leg_j + j + 1, and its first d parts are arm_i + i + 1;
    then every part p becomes 2p - 1.

    Returns the images, parts-major, and a mask of the columns that have
    a preimage: distinct parts, and arms and legs nonnegative and
    strictly decreasing. Other columns hold no meaningful partition.
    """
    d = ((rows > 0).sum(axis=0, dtype=rows.dtype) + 1) // 2
    top = int(d.max(initial=0))
    delta = np.pad(rows, ((0, max(0, 2 * top - len(rows))), (0, 0)))
    arms = np.zeros((top, rows.shape[1]), dtype=rows.dtype)
    legs = np.full((top + 1, rows.shape[1]), -1, dtype=rows.dtype)
    for i in range(top - 1, -1, -1):
        arms[i] = delta[2 * i + 1] - legs[i + 1] - 1
        legs[i] = delta[2 * i] - arms[i] - 1
    legs = legs[:top]
    diagonal = np.arange(top, dtype=rows.dtype)[:, None]
    inside = diagonal < d
    valid = (((rows[:-1] > rows[1:]) | (rows[1:] == 0)).all(axis=0)
             & ((arms >= 0) & (legs >= 0) | ~inside).all(axis=0)
             & ((arms[:-1] > arms[1:]) & (legs[:-1] > legs[1:])
                | ~inside[1:]).all(axis=0))
    below = _conjugate_rows(
        np.where(inside & valid, legs + diagonal + 1, 0))
    # below holds d in each of a valid column's first d rows
    mu = np.zeros((max(len(below), top), rows.shape[1]), dtype=rows.dtype)
    mu[:len(below)] = below
    mu[:top] += np.where(inside, arms + diagonal + 1 - d, 0)
    # 2p - 1 on the parts, and 0 stays 0
    return 2 * mu - (mu > 0), valid


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
    # rows of width 0 add no part, however many of them r asks for
    pad = r - 1 - len(nu) if base else 0
    front = [base + part for part in nu] + [base] * pad
    return Partition(front + _columns(heights))


def _conjugate_rows(rows):
    """Conjugates of the columns of a nonnegative parts-major array (see
    partitions), each column the parts of a partition in any order: row c
    counts each column's parts above c, up to the largest part, in the
    array's type. One bincount tallies the part values, and a running sum
    down from the largest turns the tallies into counts of the parts >=
    each value."""
    top = int(rows.max(initial=0))
    n = rows.shape[1]
    index = rows.astype(np.intp) * n
    index += np.arange(n)
    counts = np.bincount(index.ravel(), minlength=(top + 1) * n)
    counts = counts.reshape(top + 1, n).astype(rows.dtype)
    for above, at in zip(counts[:0:-1], counts[-2:0:-1]):
        at += above
    return counts[1:]


def color_conjugate_rows(rows, t, r, heights=None):
    """color_conjugate on every column of a parts-major array of
    partitions (see partitions) with at least r rows, as whole-array
    operations in its signed integer type. heights, if given, are the
    columns' heights (_conjugate_rows(rows)), in that type.

    Column j of a partition with lambda_r > j has a height h >= r, so
    h - r + 1 cells below row r - 1, and these are (mu_j - 1) t + colour_j
    with the colour in 1..t: one floor division of h - r by t gives both
    (mu_j also counts the rows r, t + r, ... that the column reaches). The
    columns from lambda_r on are shorter than r and take 0 for both.

    Returns nu (r - 1 rows), mu's parts and their colors, the last two
    parts-major alike and nonzero on the first lambda_r rows.
    """
    if heights is None:
        heights = _conjugate_rows(rows)
    below = heights[:int(rows[r - 1].max(initial=0))] - r
    mu = below // t
    inside = below >= 0
    colors = (below - mu * t + 1) * inside
    mu = (mu + 1) * inside
    return rows[:r - 1] - rows[r - 1], mu, colors


def color_conjugate_inverse_rows(nu, mu, colors, t, r):
    """color_conjugate_inverse on every column of the arrays that
    color_conjugate_rows returns (nu may have extra rows), in their type.

    Returns the rebuilt partitions, parts-major, and a mask of the columns
    whose pair is valid: nu has at most r - 1 parts and the column heights
    do not increase. Other columns hold no meaningful partition.
    """
    # the height (mu - 1) t + colour of a part, and 0 where mu is 0, whose
    # colour is 0: there the sum is -t, and the clip lifts it
    heights = np.maximum((mu - 1) * t + colors, 0)
    valid = ((nu[r - 1:] == 0).all(axis=0)
             & (heights[:-1] >= heights[1:]).all(axis=0))
    front = nu[:r - 1] + (mu > 0).sum(axis=0, dtype=nu.dtype)
    return np.vstack([front, _conjugate_rows(heights)]), valid


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
    """generalized_hook_map(to_modular(lam, m)) on every column of a
    parts-major array of partitions (see partitions), as whole-array
    operations in its signed integer type.

    Part i takes cells_i = ceil(lam_i / m) cells, each holding m but the
    last, which holds the remainder and lies in diagonal hook
    min(i, cells_i - 1). Hook k has cells_k + cells'_k - 2k - 1 cells, so
    its count of values >= j is its cells holding m plus its remainders
    >= j: one bincount over (hook, remainder, column) and a running sum
    down the remainders.

    Returns the images' parts, parts-major, and a mask of the columns
    whose image is a partition.
    """
    width, n = rows.shape
    cells = -(-rows // m)
    row = np.arange(width, dtype=rows.dtype)[:, None]
    # the most diagonal hooks of any column, the largest Durfee size of
    # cells: some column has cells_i > i exactly for the i below it
    hooks = int(np.count_nonzero(cells.max(axis=1, initial=0) > row[:, 0]))
    span = min(m, int(rows.max(initial=0)))  # the remainders lie in 1..span
    # (hook, remainder, column) of each part's last cell
    last = cells - 1
    index = np.minimum(row, last).astype(np.intp)
    index *= span + 1
    index += rows
    last *= m
    index -= last
    index *= n
    index += np.arange(n)
    tally = np.bincount(index[rows > 0], minlength=hooks * (span + 1) * n)
    at_least = tally.reshape(hooks, span + 1, n).astype(rows.dtype)
    for j in range(span - 1, -1, -1):
        at_least[:, j] += at_least[:, j + 1]
    # cells'_k for the hooks alone: how many parts take more than k cells
    heights = np.array([np.sum(cells > k, axis=0, dtype=rows.dtype)
                        for k in range(hooks)], rows.dtype).reshape(hooks, n)
    # negative past a column's own Durfee size, where it has no hook
    length = (cells[:hooks] + heights - 2 * row[:hooks] - 1).clip(min=0)
    parts = ((length - at_least[:, 0])[:, None] + at_least[:, 1:])
    parts = parts.reshape(hooks * span, n)
    keep = parts > 0
    slot = np.cumsum(keep, axis=0)  # each kept part's row in the image, + 1
    image = np.zeros((int(slot.max(initial=0)), n), dtype=rows.dtype)
    image[slot[keep] - 1, np.nonzero(keep)[1]] = parts[keep]
    return image, (image[:-1] >= image[1:]).all(axis=0)


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
