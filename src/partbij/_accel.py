"""Hot kernel: the partition histogram.

`partition_histogram` counts partitions row by row instead of visiting
them. Its state after row `pos` is an int64 array indexed by (last part,
each non-length axis statistic) holding the number of partitions of
length `pos` that end there. The next row takes a reverse cumulative sum
over the last-part axis (parts never grow), shifted by one when parts must
be distinct, and moves each new part value v up the axes that row adds v
to. A colour-profile class is settled one row late, by the drop from the
last part to the next one, so in the row it belongs to each step down
the sum over last parts also moves that class up by one.

Counts never wrap unseen. Running bounds cap the state's counts and the
output's: the reverse sum adds at most vmax counts of the row before,
vmax being the row's largest part, and the output adds the row's sums.
With a length axis each row writes its sums to cells of its own, a copy
of the state's cells, so the state's bound covers the output and the
output needs none. Only a row whose bound passes int64 scans the array
for a wrap, and the bound drops to the array's true max. A wrap needs a
count past int64, so it happens in a scanned row and leaves a negative
count there (see _unwrapped): HistogramOverflow is raised where a count
first leaves int64.
"""

import itertools
import math

import numpy as np

_AXES = ("first", "size", "length", "weight", "anti", "profile")


class HistogramOverflow(OverflowError):
    """A partition count does not fit in int64."""


class UnboundedBox(ValueError):
    """No finite enumeration covers the requested box."""


def _zeros(shape):
    """An int64 array of zeros of the given shape; MemoryError, with the
    shape, if its bytes pass the index range numpy can size an array in."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"an int64 array of shape {shape} is larger than "
                          "numpy can allocate")
    return np.zeros(shape, dtype=np.int64)


def _shifted_axes(kinds, pos, counted):
    """State axes (after the part axis) that row `pos` adds its part to."""
    return [j for j, kind in enumerate(kinds)
            if kind == "size"
            or (kind == "first" and pos == 1)
            or (kind == "weight" and counted)
            or (kind == "anti" and not counted)]


def _unwrapped(counts, bound):
    """Return bound, a cap on the true counts, while it fits int64; past
    it, raise if an int64 sum of counts has wrapped, else return their max.

    Counts are nonnegative, so a sum of two that leaves the int64 range
    wraps to a negative value. The reverse sum never rewrites a finished
    cell, so the first of its partial sums to leave the range is still
    negative when the row ends; the output is checked in each row that
    may wrap it.
    """
    if bound < 2**63:
        return bound
    if np.any(counts < 0):
        raise HistogramOverflow("partition count exceeds the int64 range")
    return int(counts.max())


def partition_histogram(axes, bounds, *, t=1, r=1, max_len=None,
                        distinct=False, length_mod=None):
    """Histogram of all partitions within the axis bounds and max_len.

    Counts every partition (the empty one included) with length <=
    max_len, when given, and every axis statistic within its bound; each
    lands in the output cell indexed by its axis values. Axes are
    statistic names from {"first", "size", "length", "weight", "anti",
    "profile"}; "weight" is the sum of parts at indices r, t+r, 2t+r, ...
    and "anti" the rest of the size. "profile" occurs exactly t times or not at all,
    its k-th occurrence being class k of the colour profile, as
    color_profile in tests/reference.py defines it: each row pos >= r
    adds the drop p_pos - p_(pos+1) to class ((pos - r) mod t) + 1.
    length_mod=(m, residues) keeps only partitions whose length is
    congruent to one of the residues mod m.

    Every statistic is nondecreasing as parts are appended, counting a
    profile class only once the row after its own is known, so a
    partition whose prefix leaves the box has no extension inside it; the
    row transfer drops such states, which keeps the count complete for
    the returned box. The axes give the caps: row 1 holds the largest
    part, so the bounds of the axes it adds to cap the parts, and without
    max_len the rows stop once every prefix has left the box, which
    happens when every t consecutive rows add to some bounded axis.
    Profile axes cap neither. UnboundedBox if the parts, or the length
    without max_len, have no cap. Raises HistogramOverflow if a count
    exceeds int64, and MemoryError if the output or the state has more
    bytes than numpy can size an array in.
    """
    if not axes:
        raise ValueError("at least one axis is required")
    if len(axes) != len(bounds):
        raise ValueError("axes and bounds must pair up")
    unknown = [a for a in axes if a not in _AXES]
    if unknown:
        raise ValueError(f"unknown axis {unknown[0]!r}; the axes are "
                         + ", ".join(_AXES))
    if any(int(b) < 0 for b in bounds):
        raise ValueError("axis bounds must be nonnegative")
    t, r = int(t), int(r)
    if axes.count("profile") not in (0, t):
        raise ValueError(f"the profile axis must occur t = {t} times or not "
                         f"at all, not {axes.count('profile')}")
    lengths = [int(b) for axis, b in zip(axes, bounds) if axis == "length"]
    if max_len is not None:
        lengths.append(int(max_len))
    max_len = min(lengths, default=None)
    out = _zeros(tuple(int(b) + 1 for b in bounds))
    admitted = None
    if length_mod is not None:
        mod, residues = length_mod
        mod = int(mod)
        if mod < 1:
            raise ValueError("length modulus must be positive")
        admitted = {res % mod for res in residues}

    def admits(length):
        return admitted is None or length % mod in admitted

    def counted(pos):
        return pos >= r and (pos - r) % t == 0

    if admits(0):
        out[(0,) * out.ndim] += 1

    kinds = [axis for axis in axes if axis != "length"]
    kbounds = [int(b) for axis, b in zip(axes, bounds) if axis != "length"]
    stat_shape = tuple(b + 1 for b in kbounds)
    classes = [j for j, kind in enumerate(kinds) if kind == "profile"]
    # the first part is the largest, so every axis row 1 adds to caps it
    caps = [kbounds[j] for j in _shifted_axes(kinds, 1, counted(1))]
    if not caps:
        raise UnboundedBox("row 1 adds to no bounded axis, so the parts "
                           "are unbounded")
    top = min(caps)
    if top < 1 or (max_len is not None and max_len < 1):
        return out
    # rows past r repeat with period t: each adds to size, one a period to
    # weight and the other t - 1 to anti. If none adds to a bounded axis,
    # prefixes stay in the box however long they grow
    if max_len is None and not ({"size", "weight"} & set(kinds)
                                or ("anti" in kinds and t > 1)):
        raise UnboundedBox(f"rows {r + 1} to {r + t}, which repeat with period "
                           f"{t}, add to no bounded axis, so the length is "
                           "unbounded")
    # avail[v] counts the prefixes the next row may extend with part v;
    # bound caps those counts, out_bound every cell a later row adds to
    avail = _zeros((top + 1,) + stat_shape)
    avail[(slice(1, None),) + (0,) * len(kinds)] = 1
    bound = out_bound = 1
    rows = itertools.count(1) if max_len is None else range(1, max_len + 1)
    for pos in rows:
        shifted = _shifted_axes(kinds, pos, counted(pos))
        vmax = min([top] + [kbounds[j] for j in shifted])
        if shifted:
            state = np.zeros((top + 1,) + stat_shape, dtype=np.int64)
            for v in range(1, vmax + 1):
                src = [v] + [slice(None)] * len(kinds)
                dst = list(src)
                for j in shifted:
                    src[j + 1] = slice(0, kbounds[j] + 1 - v)
                    dst[j + 1] = slice(v, None)
                state[tuple(dst)] = avail[tuple(src)]
        else:
            # every prefix keeps its statistics: avail is not read again
            state = avail[:top + 1]
            state[0] = 0
        # state[v] becomes the count of states with last part >= v, state[0]
        # of all of them. Row pos's profile class, if any, gains the drop
        # from the last part to the next part v (all of the last part for
        # state[0]), so each step down in v moves that class up by one
        src = [slice(None)] * len(kinds)
        dst = list(src)
        if classes and pos >= r:
            cls = classes[(pos - r) % t]
            src[cls], dst[cls] = slice(0, -1), slice(1, None)
        lower, upper = state[(slice(None), *dst)], state[(slice(None), *src)]
        for v in range(top - 1, -1, -1):
            lower[v] += upper[v + 1]
        # only rows 1..vmax held counts, so each sum added at most vmax
        bound = _unwrapped(state, bound * vmax)
        # the moves drop classes past their bound, so state[0] may be empty
        # while longer prefixes live on
        while top >= 0 and not np.count_nonzero(state[top]):
            top -= 1
        if top < 0:
            break
        if admits(pos):
            cell = tuple(pos if axis == "length" else slice(None)
                         for axis in axes)
            out[cell] += state[0]
            # with a length axis each row fills fresh zero cells with
            # state[0], which the state's bound already covers
            if "length" not in axes:
                out_bound = _unwrapped(out, out_bound + bound)
        if distinct:
            # a distinct next part v is below the last part, so the count
            # with last part > v also steps the class up once more
            avail = np.zeros_like(state[1:])
            avail[(slice(None), *dst)] = upper[1:]
            top -= 1
        else:
            avail = state
    return out
