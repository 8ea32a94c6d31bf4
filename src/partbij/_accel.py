"""Hot kernel: the partition histogram.

`partition_histogram` counts partitions row by row instead of visiting
them: row pos appends part pos of every partition, and adds it to the
statistics of the axes that row feeds (the size; the weight or the anti
weight, by the row's index; the first part, in row 1). With e[j] the
number of rows so far that added to axis j, the state is one int64 array
indexed by a part value v and the non-length statistics k, whose cell
(v, k) counts the prefixes with last part >= v and statistics k + v e.
In these last-part coordinates a prefix that the next row extends by
part v keeps its cell, so a row is one reverse sum down the part axis,
in place: state[v] += state[v + 1] moved by e, for v from the top down
to 0. A colour-profile class is settled one row late, by the drop from
the last part to the next one, so in the row it belongs to each step
down also moves that class up by one. state[0], at v = 0, counts the
prefixes of every last part by their statistics: without a length axis,
filter or distinct parts it keeps the sum over all lengths and is the
output, and otherwise it is cleared each row and read out. In a distinct
run the next part is below the last, so each row ends with a relabel:
the state starts one row later, and its statistics are shifted by step.

A cell whose statistics k + v e pass a bound holds prefixes that have
left the box. The sums only move counts up, so no in-box cell reads it,
and it is left as it is: a state row of fewer than _BOX_ROW_CELLS cells
is added whole, which leaves anything in those cells, and a larger row
adds only its in-box cells, those with k + v e <= box, the bounds less
the shifts. Row v lies wholly outside the box once v e_j passes box_j,
so the rows end at top = min over j of box_j // e_j, and a run ends
once a box_j is negative. The scans below read in-box cells only.

The module also holds the one int64 rule of both kernels, this one and
the series divisions. Every count they add is nonnegative, so an int64
sum of two counts that passes 2^63 - 1 wraps to a negative cell. Adds
run in place under a running bound on the counts, and an array is
scanned only where that bound passes int64 (_unwrapped): a negative cell
raises CoefficientOverflow, the one exception for a count or coefficient
past int64, and otherwise the bound drops to the array's true max.
_checked is the same rule for a single Python int.

Counts never wrap unseen. Running bounds cap the in-box counts of the
state and the output's: the reverse sum adds at most vmax counts of the
row before, vmax being the row's largest part, and the output adds the
row's sums. With a length axis each row writes its sums to cells of its
own, a copy of the state's cells, so the state's bound covers the output
and the output needs none. Only a row whose bound passes int64 scans the
array for a wrap, after the cells that left the box are zeroed
(_scanned). A wrap needs a count past int64, so it happens in a scanned
row and leaves a negative count there: CoefficientOverflow is raised
where an in-box count first leaves int64.
"""

import itertools
import math
import operator

import numpy as np

_AXES = ("first", "size", "length", "weight", "anti", "profile")


# a state row of at least this many cells adds only its in-box cells; in a
# smaller one, slicing each part value's cells costs more than the adds it
# saves. The two sums tie from about 2,400 to 6,600 cells a row (see
# box_row_ms in benchmarks/bench_suite.py); the suite's boxes have at most
# 2,197, where in-box sums ran its quick level 17% slower
_BOX_ROW_CELLS = 1 << 12


_INT64_MAX = 2**63 - 1


class CoefficientOverflow(OverflowError):
    """A count or coefficient would leave the int64 range."""


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


def _checked(value):
    """An integer as a Python int, raising if it leaves int64."""
    value = operator.index(value)
    if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise CoefficientOverflow("coefficient exceeds the int64 range")
    return value


def _no_wrap(counts):
    """Raise if an int64 sum of nonnegative counts has wrapped: one that
    passes 2^63 - 1 leaves a negative cell."""
    if (counts < 0).any():
        raise CoefficientOverflow("coefficient exceeds the int64 range")


def _unwrapped(counts, bound):
    """Return bound, a cap on the true counts, while it fits int64; past
    it, raise if an int64 sum of counts has wrapped, else return their max.

    A wrapped cell is scanned before anything adds to it again: the
    reverse sum never rewrites a finished cell, so the first of its
    partial sums to leave the range is still negative when the row ends,
    the output is checked in each row that may wrap it, and a division
    checks each add that may wrap its destination (series._add_under).
    """
    if bound <= _INT64_MAX:
        return bound
    _no_wrap(counts)
    return int(counts.max())


def _box_ends(box, e, v):
    """Per axis, the end of the in-box cells of state row v: those whose
    statistics k + v e are within box."""
    return [b + 1 - v * k for b, k in zip(box, e)]


def _scanned(state, top, e, box, bound):
    """_unwrapped on the in-box cells of state rows 1..top. Cells that
    have left the box may hold anything, and no in-box cell reads them,
    so past int64 they are zeroed before the scan."""
    if bound <= _INT64_MAX:
        return bound
    for v in range(1, top + 1):
        for j, end in enumerate(_box_ends(box, e, v)):
            state[(v, *[slice(None)] * j, slice(end, None))] = 0
    return _unwrapped(state[1:top + 1], bound)


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
    partition whose prefix leaves the box has no extension inside it; no
    in-box cell of the state reads such a prefix, which keeps the count
    complete for the returned box. The axes give the caps: row 1 holds
    the largest part, so the bounds of the axes it adds to cap the parts,
    and without max_len the rows stop once every prefix has left the
    box, which happens when every t consecutive rows add to some bounded
    axis.
    Profile axes cap neither. UnboundedBox if the parts, or the length
    without max_len, have no cap. Raises CoefficientOverflow if a count
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
    # e[j] counts the rows so far that added their part to axis j; before
    # row 1, every part may extend the empty prefix. box is kbounds less
    # the statistics that a distinct run's relabels shifted
    state = _zeros((top + 1,) + stat_shape)
    state[(slice(1, None),) + (0,) * len(kinds)] = 1
    e = [0] * len(kinds)
    box = list(kbounds)
    totals = "length" not in axes and admitted is None and not distinct
    sliced = math.prod(stat_shape) >= _BOX_ROW_CELLS
    # bound caps the in-box counts of the state, out_bound every cell a
    # later row adds to
    bound = out_bound = 1
    rows = itertools.count(1) if max_len is None else range(1, max_len + 1)
    for pos in rows:
        shifted = _shifted_axes(kinds, pos, counted(pos))
        # only rows 1..vmax held counts, so each sum adds at most vmax
        vmax = min([top] + [box[j] for j in shifted])
        for j in shifted:
            e[j] += 1
            top = min(top, box[j] // e[j])
        if top < 1:
            break
        # each step down the sum moves a count by e, and by one more on
        # row pos's profile class, if any: that class gains the drop from
        # the last part to the next part v (all of the last part at v = 0)
        step = list(e)
        if classes and pos >= r:
            step[classes[(pos - r) % t]] += 1
        dst = tuple([slice(k, None) for k in step])
        src = tuple([slice(max(b + 1 - k, 0)) for b, k in zip(kbounds, step)])
        lower = state[(slice(None), *dst)]
        upper = state[(slice(None), *src)]
        if not totals:
            state[0] = 0
        if sliced:
            for v in range(top - 1, -1, -1):
                # row v's in-box cells, and the cells they read in row v + 1
                ends = _box_ends(box, e, v)
                reads = [slice(max(n - k, 0)) for n, k in zip(ends, step)]
                state[(v, *map(slice, step, ends))] += state[(v + 1, *reads)]
        else:
            for v in range(top - 1, -1, -1):
                lower[v] += upper[v + 1]
        bound = _scanned(state, top, e, box, bound * vmax)
        if totals:
            out_bound = _unwrapped(state[0], out_bound + bound)
        elif admits(pos):
            lows = (b - n for b, n in zip(kbounds, box))
            cell = tuple(pos if axis == "length" else slice(next(lows), None)
                         for axis in axes)
            out[cell] += state[(0, *[slice(n + 1) for n in box])]
            # with a length axis each row fills fresh zero cells with
            # state[0], which the state's bound already covers
            if "length" not in axes:
                out_bound = _unwrapped(out, out_bound + bound)
        if not top:
            break
        if distinct:
            # a distinct next part v is below the last: row v + 1, its
            # statistics shifted by step, becomes row v, with no copy
            state, top = state[1:], top - 1
            box = [n - k for n, k in zip(box, step)]
            if min(box) < 0:  # a profile class passed its bound
                break
    if totals:
        out += state[0]
    return out
