"""Mechanical verification of the package's partition identities.

Every check compares two independently computed objects: a count and a
closed form (truncated products, inverses, q-binomials), a second count
or a frozen reference. Two kernels do the counting without visiting the
objects counted: the row-transfer partition histogram, for partitions by
any of their statistics, colour profile included, and a bounded
knapsack over coloured part kinds, for coloured partitions. The sides
share no identity-specific logic, so agreement across a whole
coefficient box is strong evidence, and any disagreement is pinned to
its graded-lex-first monomial. The bijection checks test the maps
themselves: thm7 and furtherwork run their maps' array forms over a
block of partitions of each size at a time, and prop1 and table1 still
walk partitions one at a time.

The dedicated checks schmidt, cor2, prop1, table1, thm6 and cor11
report through one first-failure scan, _first_failure: each lays out
its cells or its walk as (where, got, want) cases in order, and the
report counts the cases up to the first mismatch.

The catalog is data: CATALOG holds one Entry per identity id, in the
paper's order, with its defaults, CLI flags, suite grid and either a
dedicated verifier or the two sides of a series identity. THEOREM_IDS
lists every id; the series-vs-series subset is IDENTITY_IDS and runs
through verify_identity.
"""

import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import series as qs
from ._accel import UnboundedBox, partition_histogram  # noqa: F401 (re-exported)
from .bijections import (
    bessenrodt,
    bessenrodt_inverse,
    collision_search,
    color_conjugate_inverse_rows,
    color_conjugate_rows,
    generalized_hook_map,
    generalized_hook_map_rows,
)
from .partitions import (
    ModularDiagram,
    Partition,
    enumerate_partitions,
    partition_blocks,
    partition_numbers,
    schmidt_weight,
)
from .series import INFINITY, TruncatedSeries


class VerifyError(ValueError):
    """A verification request that cannot be set up."""


class DegenerateParams(VerifyError):
    """Parameters for which the closed form is not defined."""


@dataclass
class VerificationReport:
    """Outcome of one check: status plus where the first mismatch sits."""

    id: str
    params: dict
    box: dict
    status: str
    coefficients_checked: int
    elapsed_ms: float
    first_mismatch: Optional[dict] = None

    @property
    def passed(self):
        return self.status == "pass"

    def to_json(self):
        out = {
            "id": self.id,
            "params": self.params,
            "box": self.box,
            "status": self.status,
            "coefficients_checked": self.coefficients_checked,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        return out


@dataclass
class SuiteReport:
    """Ordered collection of reports from one suite run."""

    level: str
    reports: list

    @property
    def passed(self):
        return all(r.passed for r in self.reports)

    def failures(self):
        return [r for r in self.reports if not r.passed]

    def to_json(self):
        return {
            "level": self.level,
            "passed": self.passed,
            "reports": [r.to_json() for r in self.reports],
        }


def _volume(box):
    v = 1
    for b in box.values():
        v *= int(b) + 1
    return v


def _finish(ident, params, box, checked, mismatch, start):
    elapsed = (time.perf_counter() - start) * 1000.0
    status = "pass" if mismatch is None else "fail"
    return VerificationReport(
        ident, dict(params), dict(box), status, checked, elapsed, mismatch
    )


def _mismatch(monomial, lhs, rhs):
    return {"monomial": monomial, "lhs": lhs, "rhs": rhs}


def _first_failure(cases):
    """Walk (where, got, want) cases in order. Returns how many were
    checked and the mismatch at the first case whose got is not its want,
    or None."""
    checked = 0
    for where, got, want in cases:
        checked += 1
        if got != want:
            return checked, _mismatch(where, got, want)
    return checked, None


def _cells(got, want, labels, mask=True):
    """The cells of two arrays of one shape as cases, in index order and
    keyed by labels, with their values as ints; only the cells where mask
    holds."""
    mask = np.broadcast_to(mask, got.shape)
    for index, a, b in zip(np.argwhere(mask).tolist(), got[mask].tolist(),
                           want[mask].tolist()):
        yield dict(zip(labels, index)), a, b


def _series_mismatch(lhs, rhs):
    found = qs.first_mismatch(lhs, rhs)
    if found is None:
        return None
    exps, a, b = found
    return _mismatch(dict(exps), int(a), int(b))


def _need(ident, box, *names):
    if set(box) != set(names):
        want = ", ".join(names)
        raise VerifyError(f"{ident} expects a box over exactly {{{want}}}")
    return tuple(int(box[n]) for n in names)


def _series_from_hist(box, arr):
    f = TruncatedSeries.zero(box)
    if f.coeffs.shape != arr.shape:
        raise VerifyError("histogram shape does not match the box")
    f.coeffs[...] = arr
    return f


# ---------------------------------------------------------------------------
# series identities: the specs of the two sides
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Histogram:
    """Enumeration side counted by the histogram kernel.

    axes names the partition statistic of each box variable, in the
    canonical variable order q, z, s; "profile" stands for the t colour
    classes z1..zt. t and r are numbers or the names of the parameters
    that hold them; max_len, if given, maps the parameters to a
    restriction on the length.
    """

    axes: tuple
    t: object = 1
    r: object = 1
    distinct: bool = False
    length_mod: Optional[tuple] = None
    max_len: object = None

    def __call__(self, params, box):
        def value(x):
            return params[x] if isinstance(x, str) else x

        t = value(self.t)
        axes = [a for axis in self.axes
                for a in [axis] * (t if axis == "profile" else 1)]
        arr = partition_histogram(
            axes, TruncatedSeries.zero(box).box,
            t=t, r=value(self.r), distinct=self.distinct,
            length_mod=self.length_mod,
            max_len=self.max_len and self.max_len(params),
        )
        return _series_from_hist(box, arr)


def _size_and_excess(params, box):
    """eq3's enumeration side: partitions by size (q) and by twice the
    size less the length (z), read off the (size, length) histogram."""
    f = TruncatedSeries.zero(box)
    arr = partition_histogram(("size", "length"), (box["q"], box["q"]))
    for n in range(box["q"] + 1):
        for ell in range(max(0, 2 * n - box["z"]), n + 1):
            f.coeffs[n, 2 * n - ell] = arr[n, ell]
    return f


def _colors(t):
    return [f"z{i}" for i in range(1, int(t) + 1)]


def _zq(n=INFINITY):
    """(zq; q)_n, the factor shared by most closed forms."""
    return {"q": 1, "z": 1}, {"q": 1}, n


def _quotient(box, factors, head=None):
    """The monomial head (1 if None) divided by each (base, ratio, n)
    Pochhammer product in factors."""
    f = TruncatedSeries.monomial(box, head or {})
    for base, ratio, n in factors:
        f = qs.divide_pochhammer(f, base, ratio, n)
    return f


def _head_sum(box, constant, term):
    """constant plus the sum over n = 1, 2, ... of head / factors, where
    term(n) = (head, factors), until the head leaves the box."""
    acc = TruncatedSeries.constant(box, constant)
    for n in itertools.count(1):
        head, factors = term(n)
        if any(e > box[v] for v, e in head.items()):
            return acc
        acc = acc + _quotient(box, factors, head)


# lowest admissible value of a parameter, or of the CLI flag of that
# name; every other count and every box bound starts at 0
_LOWEST = {"t": 1, "r": 1, "n": 0, "m": 2}


def _series_setup(ident, params, box):
    """A series identity's entry and its parameters over the defaults,
    both checked, and the box checked against the entry's variables."""
    entry = _entry(ident)
    if entry.lhs is None:
        raise VerifyError(f"{ident} is not a series identity; "
                          "use its dedicated verifier")
    params = {**entry.params, **params}
    for name, low in _LOWEST.items():
        if name in params and int(params[name]) < low:
            raise VerifyError(f"{ident} needs {name} >= {low}")
    _need(ident, box, *_expand(entry, params, entry.box))
    return entry, params


def lhs_series(ident, params, box):
    """Enumeration side of a series identity, counted by the histogram
    kernel from partition statistics only."""
    entry, params = _series_setup(ident, params, box)
    return entry.lhs(params, box)


def rhs_series(ident, params, box):
    """Closed-form side of a series identity, built from series
    primitives only."""
    entry, params = _series_setup(ident, params, box)
    try:
        return entry.rhs(params, box)
    except qs.DivergentInfiniteProduct as exc:
        raise DegenerateParams(
            f"{ident} with {params} has a constant-ratio infinite product"
        ) from exc


def default_box(ident, params=None):
    """Default coefficient box of a catalog entry."""
    entry = _entry(ident)
    if entry.box is None:
        raise VerifyError(f"{ident} has no default box")
    return _expand(entry, {**entry.params, **(params or {})}, entry.box)


def verify_identity(ident, params=None, box=None, perturb=None):
    """Compare the enumeration and closed-form sides of one identity.

    perturb, an exponent dict, adds 1 to that coefficient of the closed
    form before comparison; it exists to prove the machinery can fail.
    """
    params = {**_entry(ident).params, **(params or {})}
    if box is None:
        box = default_box(ident, params)
    start = time.perf_counter()
    lhs = lhs_series(ident, params, box)
    rhs = rhs_series(ident, params, box)
    if perturb:
        rhs = rhs + TruncatedSeries.monomial(box, perturb)
    return _finish(
        ident, params, box, _volume(box), _series_mismatch(lhs, rhs), start
    )


# ---------------------------------------------------------------------------
# counting checks
# ---------------------------------------------------------------------------

def verify_schmidt(n_max=15):
    """Distinct partitions with odd-index sum n are counted by the plain
    partition numbers.

    One side is the histogram kernel, the other a dynamic program that
    never enumerates.
    """
    start = time.perf_counter()
    hist = partition_histogram(("weight",), (n_max,), t=2, r=1, distinct=True)
    _, mismatch = _first_failure(
        _cells(hist, np.array(partition_numbers(n_max)), ("n",)))
    # the report counts the whole table, even when it fails
    return _finish("schmidt", {"n_max": n_max}, {}, n_max + 1, mismatch, start)


def verify_schmidt_refinement(n_max=15):
    """Partitions of n with given length match distinct partitions with
    odd-index sum n and complementary size 2n - length."""
    start = time.perf_counter()
    plain = partition_histogram(("size", "length"), (n_max, n_max))
    dist = partition_histogram(
        ("weight", "size"), (n_max, 2 * n_max), t=2, r=1, distinct=True
    )
    n, ell = np.indices(plain.shape)
    # 2n - ell is a valid index even where ell > n, and the mask drops it
    checked, mismatch = _first_failure(_cells(
        plain, dist[n, 2 * n - ell], ("n", "length"), ell <= n))
    return _finish("cor2", {"n_max": n_max}, {}, checked, mismatch, start)


def verify_euler_refinement(n_max=25):
    """Pulling a distinct partition back to odd parts fixes its length
    and largest part.

    For distinct lam of n with largest part k and odd-index sum m, the
    odd-parts preimage mu has length 2m - n, and when lam is nonempty
    its largest part is 1 + 2k + 2n - 4m.
    """
    def cases():
        for n in range(n_max + 1):
            for lam in enumerate_partitions(n, distinct=True):
                mu = bessenrodt_inverse(lam)
                m = schmidt_weight(lam, 2, 1)
                yield ({"partition": list(lam)}, [mu.length(), mu.part(1)],
                       [2 * m - n,
                        1 + 2 * lam.part(1) + 2 * n - 4 * m if lam else 0])

    start = time.perf_counter()
    checked, mismatch = _first_failure(cases())
    return _finish("prop1", {"n_max": n_max}, {}, checked, mismatch, start)


_TABLE_SEVEN = (
    (7, (7,), (1, 1, 1, 1, 1, 1, 1)),
    (6, (6, 1), (3, 1, 1, 1, 1)),
    (5, (5, 2), (5, 1, 1)),
    (5, (4, 2, 1), (3, 3, 1)),
    (4, (4, 3), (7,)),
)


def table_bessenrodt(n):
    """Rows (odd-index sum, distinct partition, odd-parts preimage) for
    all distinct partitions of n, heaviest first, ties in reverse-lex
    order of the distinct partition."""
    rows = [
        (schmidt_weight(lam, 2, 1), lam, bessenrodt_inverse(lam))
        for lam in enumerate_partitions(n, distinct=True)
    ]
    rows.sort(key=lambda row: (-row[0], [-p for p in row[1]]))
    return rows


def verify_table(n=7):
    """Every table row round-trips, and the n = 7 table matches its
    frozen reference."""
    def listed(table):
        return [[w, list(d), list(o)] for w, d, o in table]

    start = time.perf_counter()
    rows = table_bessenrodt(n)
    round_trips = (
        ({"partition": list(delta)},
         [list(bessenrodt(omega)), omega.size(), schmidt_weight(delta, 2, 1)],
         [list(delta), n, w])
        for w, delta, omega in rows)
    frozen = [({"table": n}, listed(rows), listed(_TABLE_SEVEN))] \
        if n == 7 else []
    checked, mismatch = _first_failure(itertools.chain(round_trips, frozen))
    return _finish("table1", {"n": n}, {}, checked, mismatch, start)


def verify_li_yee(t, n_max=8):
    """Length classes of the row-t weight match greatest-multiplicity
    classes of colored partitions.

    Partitions with weight n classed by length (s-1)t + j correspond to
    t-colored partitions of n where some color appears s times and j is
    the largest such color.
    """
    if t < 1:
        raise VerifyError("palette size t must be >= 1")
    start = time.perf_counter()
    arr = partition_histogram(("weight", "length"), (n_max, t * n_max), t=t, r=1)
    # classes indexed (n, s, j): length (s-1)t + j has s >= 1 and j in
    # 1..t, and the empty partition is the class (0, 0, 0)
    lhs = np.zeros((n_max + 1, n_max + 1, t + 1), dtype=np.int64)
    lhs[:, 1:, 1:] = arr[:, 1:].reshape(n_max + 1, n_max, t)
    lhs[0, 0, 0] = arr[0, 0]
    rhs = np.zeros_like(lhs)
    for (n, _, counts), cnt in _colored_class_counts(t, _part, n_max).items():
        s = max(counts)
        j = max(i for i, c in enumerate(counts, start=1) if c == s) if n else 0
        rhs[n, s, j] += cnt
    present = (lhs != 0) | (rhs != 0)
    present[0, 0, 0] = True
    checked, mismatch = _first_failure(
        _cells(lhs, rhs, ("n", "s", "j"), present))
    return _finish(
        "thm6", {"t": t, "n_max": n_max}, {}, checked, mismatch, start
    )


def _part(p, i):
    return p


def _colored_class_counts(t, weight, bound, admits=lambda p, i: True):
    """Counts of t-colored partitions keyed (weight, size, color counts),
    for every weight up to bound.

    The weight is linear in the parts: part p of color i weighs
    weight(p, i) >= p, and only the kinds (p, i) that admits allows may
    occur. So a bounded knapsack over the admissible kinds, each taken any
    number of times, counts every class without visiting a colored
    partition or a shape.
    """
    out = {(0, 0, (0,) * t): 1}
    for p in range(1, bound + 1):
        for i in range(1, t + 1):
            w = weight(p, i)
            if w > bound or not admits(p, i):
                continue
            for (base, n, prof), cnt in list(out.items()):
                for m in range(1, (bound - base) // w + 1):
                    key = (base + m * w, n + m * p,
                           prof[:i - 1] + (prof[i - 1] + m,) + prof[i:])
                    out[key] = out.get(key, 0) + cnt
    return out


def _rows_equal(a, b):
    """Row-wise equality of two zero-padded int arrays of any widths."""
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    width = b.shape[1]
    return (a[:, :width] == b).all(axis=1) & (a[:, width:] == 0).all(axis=1)


def _pair_classes(t, r, size_max):
    """The pair side of thm7: for each size n, an int64 array of rows
    (first, row_r, weight, *profile, count), one per head and colored
    class; rows of one key count one class."""
    nu_by_size = {}
    for s_nu in range(size_max + 1):
        for nu in enumerate_partitions(s_nu, max_length=r - 1):
            nu_by_size.setdefault(s_nu, []).append(nu.part(1))
    by_size = [[] for _ in range(size_max + 1)]
    classes = _colored_class_counts(
        t, lambda p, i: r - 1 + t * (p - 1) + i, size_max)
    for (base, n, prof), cnt in classes.items():
        k = sum(prof)
        for s_nu in range(size_max - base + 1):
            for f in nu_by_size.get(s_nu, ()):
                by_size[base + s_nu].append((f + k, k, n) + prof + (cnt,))
    return [np.array(rows, dtype=np.int64).reshape(-1, 4 + t)
            for rows in by_size]


# rows per round trip bounded to about this many cells, so that the
# arrays of the largest blocks stay small
_CHUNK_CELLS = 1 << 15


def _round_trip_rows(lam, t, r):
    """Run the array form of the color-conjugate map on one block of
    partitions, and check every row against values read off the rows
    themselves: the weight is a strided sum, and the profile a strided sum
    of part differences, as color_profile defines it.

    Returns the rows' class keys (first, row_r, weight, *profile) and
    None, or None and the first failing row's index and got/want lists.
    """
    nu, mu, colors = color_conjugate_rows(lam, t, r)
    back, valid = color_conjugate_inverse_rows(nu, mu, colors, t, r)
    first, lam_r = lam[:, 0], lam[:, r - 1]
    weight = lam[:, r - 1::t].sum(axis=1)
    steps = lam[:, r - 1:-1] - lam[:, r:]
    profile = np.stack([steps[:, i::t].sum(axis=1) for i in range(t)], 1)
    counts = np.stack([(colors == i).sum(axis=1) for i in range(1, t + 1)], 1)
    ok = (_rows_equal(back, lam)
          & (np.count_nonzero(mu, axis=1) == lam_r)
          & (nu[:, :1].sum(axis=1) == first - lam_r)  # nu_1, 0 if r = 1
          & valid
          & (mu.sum(axis=1) == weight)
          & (counts == profile).all(axis=1))
    if ok.all():
        return np.column_stack([first, lam_r, weight, profile]), None
    i = int(np.argmin(ok))
    got = [np.trim_zeros(back[i], "b").tolist(), int(np.count_nonzero(mu[i])),
           int(nu[i, :1].sum()), int(valid[i]), int(mu[i].sum()),
           counts[i].tolist()]
    want = [np.trim_zeros(lam[i], "b").tolist(), int(lam_r[i]),
            int(first[i] - lam_r[i]), 1, int(weight[i]), profile[i].tolist()]
    return None, (i, got, want)


def _class_mismatch(n, keys, pair):
    """Compare the classes of the partitions of n (their keys) with the
    pair side's (rows of key and count) in sorted key order, as one
    lexsort and one reduceat. Returns how many classes were checked and
    the first mismatch, or None."""
    m = len(keys)
    keys = np.concatenate([keys, pair[:, :-1]])
    tally = np.zeros((len(keys), 2), dtype=np.int64)  # partitions, pairs
    tally[:m, 0] = 1
    tally[m:, 1] = pair[:, -1]
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(
        [[True], (keys[1:] != keys[:-1]).any(axis=1)]))
    sums = np.add.reduceat(tally[order], starts)
    differ = np.flatnonzero(sums[:, 0] != sums[:, 1])
    if not differ.size:
        return len(starts), None
    j = int(differ[0])
    k1, kr, w, *prof = keys[starts[j]].tolist()
    return j + 1, _mismatch({"size": n, "first": k1, "row_r": kr,
                             "weight": w, "profile": prof},
                            int(sums[j, 0]), int(sums[j, 1]))


def verify_color_conjugate(t, r, size_max=18):
    """The color-conjugate map round-trips, carries the advertised
    statistics, and matches an independent count of its image classes.

    Classes are keyed by (size, largest part, part at row r, weight,
    color counts). On the pair side the class size factorizes: a head
    partition with at most r-1 parts and given largest part, times a
    colored partition with given length, size, and color counts; the
    reassembled size is head size + (r-1)*length + t*(size - length) +
    sum(i * count_i). Keying classes by size windows both sides
    identically at size_max.

    The partition side runs the partitions of each size, a block at a
    time and in chunks of rows, through the array form of the map. Size
    leads the key, so each block's classes are compared with the pair
    side's on their own; the report is the one a partition-by-partition
    walk would give, round trips first.
    """
    if t < 1 or r < 1:
        raise VerifyError("thm7 needs t >= 1 and r >= 1")
    start = time.perf_counter()
    params = {"t": t, "r": r, "size_max": size_max}
    pair = _pair_classes(t, r, size_max)
    visited = classes = 0
    mismatch = None
    width = max(size_max, r) + 2
    chunk = max(1, _CHUNK_CELLS // width)
    for n, lam in enumerate(partition_blocks(size_max, width)):
        keys = []
        for lo in range(0, len(lam), chunk):
            chunk_keys, failure = _round_trip_rows(lam[lo:lo + chunk], t, r)
            if failure is not None:
                i, got, want = failure
                return _finish("thm7", params, {}, visited + lo + i + 1,
                               _mismatch({"partition": want[0], "t": t,
                                          "r": r}, got, want), start)
            keys.append(chunk_keys)
        visited += len(lam)
        if mismatch is None:
            seen, mismatch = _class_mismatch(n, np.concatenate(keys), pair[n])
            classes += seen
    return _finish("thm7", params, {}, visited + classes, mismatch, start)


def verify_opposite_schmidt(t, r, k_max=6, n_max=10):
    """Partitions classed by largest part and complement weight match
    two-colored partitions with restricted second-color sizes.

    Partitions with largest part k whose size minus the sum over rows
    r, t+r, ... equals n correspond to 2-colored partitions of n with
    k parts where color 2 appears only on sizes r-1, r-1 + (t-1), ....
    """
    if t < 2:
        raise DegenerateParams("the complement weight needs t >= 2")
    if r < 2:
        raise DegenerateParams("the restricted color sizes need r >= 2")
    start = time.perf_counter()
    arr = partition_histogram(("anti", "first"), (n_max, k_max), t=t, r=r)
    allowed = set(range(r - 1, n_max + 1, t - 1))
    rhs = np.zeros_like(arr)
    classes = _colored_class_counts(
        2, _part, n_max, admits=lambda p, i: i == 1 or p in allowed)
    for (n, _, counts), cnt in classes.items():
        if sum(counts) <= k_max:
            rhs[n, sum(counts)] += cnt
    checked, mismatch = _first_failure(_cells(arr, rhs, ("n", "first")))
    return _finish(
        "cor11", {"t": t, "r": r, "k_max": k_max, "n_max": n_max}, {},
        checked, mismatch, start,
    )


# ---------------------------------------------------------------------------
# recurrence and functional equation
# ---------------------------------------------------------------------------

def f_recurrence(n, t, box):
    """Series over q and s for partitions with largest part exactly n,
    where q carries the row-t weight and s the size, built from the
    self-referential recurrence rather than any enumeration."""
    if n < 0 or t < 1:
        raise VerifyError("f_recurrence needs n >= 0 and t >= 1")
    _need("eq20", box, "q", "s")
    f = [TruncatedSeries.constant(box, 1)]
    for m in range(1, n + 1):
        acc = TruncatedSeries.zero(box)
        for k in range(m):
            head = {"q": m, "s": m + k * (t - 1)}
            if any(head[v] > box[v] for v in head):
                continue  # every term of this product lies outside the box
            # the Gaussian binomial in a box of its own degree, cut down
            # to the part inside the target box (axes q, s)
            gb = TruncatedSeries.zero(box)
            coeffs = qs.q_binomial(m - k + t - 1, t - 1, "s",
                                   {"s": (t - 1) * (m - k)}).coeffs
            gb.coeffs[0, :len(coeffs)] = coeffs[:box["s"] + 1]
            acc = acc + gb * f[k] * TruncatedSeries.monomial(box, head)
        f.append(qs.divide_pochhammer(acc, {"q": m, "s": m * t}, {}, 1))
    return f[n]


def _f_enumeration(n, t, box):
    q, s = _need("eq20", box, "q", "s")
    arr = partition_histogram(("weight", "first", "size"), (q, n, s), t=t, r=1)
    return _series_from_hist(box, arr[:, n, :])


def verify_recurrence(t, n_max=6, box=None):
    """The largest-part recurrence reproduces direct enumeration for
    every largest part up to n_max."""
    if t < 1:
        raise VerifyError("palette size t must be >= 1")
    if box is None:
        box = {"q": 8, "s": 12}
    start = time.perf_counter()
    checked = 0
    mismatch = None
    for n in range(n_max + 1):
        lhs = _f_enumeration(n, t, box)
        rhs = f_recurrence(n, t, box)
        checked += _volume(box)
        found = _series_mismatch(lhs, rhs)
        if found:
            found["monomial"]["n"] = n
            mismatch = found
            break
    return _finish(
        "eq20", {"t": t, "n_max": n_max}, box, checked, mismatch, start
    )


def verify_functional_equation(t, box=None, perturb=None):
    """The three-variable generating series is fixed by one application
    of its scaling relation.

    F in s, q, z (size, row-t weight, largest part) equals the inverse
    of a t-term product times F with z replaced by s^t q z. The
    substitution only raises exponents, so the box stays exact.
    """
    if t < 1:
        raise VerifyError("palette size t must be >= 1")
    if box is None:
        box = {"q": 6, "s": 10, "z": 4}
    _need("eq24", box, "q", "z", "s")
    start = time.perf_counter()
    big_f = Histogram(("weight", "first", "size"), t=t)({}, box)
    rhs = qs.divide_pochhammer(
        qs.substitute(big_f, "z", {"s": t, "q": 1, "z": 1}),
        {"s": 1, "q": 1, "z": 1}, {"s": 1}, t,
    )
    if perturb:
        rhs = rhs + TruncatedSeries.monomial(box, perturb)
    return _finish(
        "eq24", {"t": t}, box, _volume(box),
        _series_mismatch(big_f, rhs), start,
    )


# ---------------------------------------------------------------------------
# hook-count readouts
# ---------------------------------------------------------------------------

def _hook_map_readouts(m_max, size_max):
    """Run every partition of size <= size_max, a block per size and in
    chunks of rows, through the array hook map at m = 2..m_max, and check
    that no two odd-part partitions of one size share a base-2 image that
    is a partition, and that every image sums to its size.

    Returns how many checks a partition-by-partition walk would make and
    its first failure: the collision test of each size in turn, then the
    part sums, m by m. A collision is reported from collision_search.
    """
    width = size_max + 2
    chunk = max(1, _CHUNK_CELLS // width)
    visited = 0
    wrong = None  # the first bad part sum: (m, index in the walk, row, sum)
    for n, block in enumerate(partition_blocks(size_max, width)):
        odd_images = []
        for lo in range(0, len(block), chunk):
            lam = block[lo:lo + chunk]
            for m in range(2, m_max + 1):
                image, is_partition = generalized_hook_map_rows(lam, m)
                sums = image.sum(axis=1)
                off = np.flatnonzero(sums != n)
                if off.size and (wrong is None or m < wrong[0]):
                    i = int(off[0])
                    wrong = (m, visited + lo + i, lam[i], int(sums[i]))
                if m == 2:
                    odd = ~((lam % 2 == 0) & (lam > 0)).any(axis=1)
                    odd_images.append(image[odd & is_partition])
        top = max(image.shape[1] for image in odd_images)
        images = np.concatenate(
            [np.pad(image, ((0, 0), (0, top - image.shape[1])))
             for image in odd_images])
        if len(np.unique(images, axis=0)) < len(images):
            return n + 1, _mismatch(
                {"check": f"collision_2_{n}"},
                [list(g.image) for g in collision_search(2, n)], [])
        visited += len(block)
    if wrong is None:
        return size_max + 1 + (m_max - 1) * visited, None
    m, index, lam, got = wrong
    lam = np.trim_zeros(lam, "b").tolist()
    return (size_max + 1 + (m - 2) * visited + index + 1,
            _mismatch({"check": f"part_sum_{m}"}, [lam, got],
                      [lam, sum(lam)]))


def verify_furtherwork(m_max=4, size_max=20):
    """Known behavior of the diagonal hook counts on modular diagrams.

    Two distinct 3-modular diagrams share the image (5, 4, 3, 1); the
    collision search finds them at size 13 and finds nothing at base 2;
    and the emitted parts always sum to the decoded size.
    """
    if m_max < 2 or size_max < 0:
        raise VerifyError("furtherwork needs m_max >= 2 and size_max >= 0")
    start = time.perf_counter()
    checked = 0
    mismatch = None
    twin_a = ModularDiagram(3, ((3, 2), (2, 1), (1, 1)))
    twin_b = ModularDiagram(3, ((3, 1), (2, 1), (1, 2)))
    for name, diagram in (("twin_a", twin_a), ("twin_b", twin_b)):
        image = generalized_hook_map(diagram)
        checked += 1
        if tuple(image.parts) != (5, 4, 3, 1) or not image.is_partition:
            mismatch = _mismatch({"check": name}, list(image.parts),
                                 [5, 4, 3, 1])
            break

    if mismatch is None:
        groups = collision_search(3, 13)
        hit = [
            g for g in groups
            if tuple(g.image) == (5, 4, 3, 1)
            and {(8, 4, 1), (7, 4, 2)} <= {tuple(p) for p in g.preimages}
        ]
        checked += 1
        if not hit:
            mismatch = _mismatch(
                {"check": "collision_3_13"},
                [[list(g.image), [list(p) for p in g.preimages]]
                 for g in groups],
                [[[5, 4, 3, 1], [[8, 4, 1], [7, 4, 2]]]],
            )

    if mismatch is None:
        seen, mismatch = _hook_map_readouts(m_max, size_max)
        checked += seen
    return _finish(
        "furtherwork", {"m_max": m_max, "size_max": size_max}, {},
        checked, mismatch, start,
    )


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Entry:
    """One catalog entry, with every default it has in one place.

    params holds the parameter defaults and box the default box (None if
    the entry takes none); together they are the quick suite level, and
    full holds what differs at the full level: parameters, "box" and
    "grid". grid maps parameters to the values the suite runs, all
    combinations in order. flags maps a CLI flag to the parameter it sets;
    the box flags follow from the box. A colored entry's box variable z
    stands for z1..zt.

    A series identity has an enumeration side lhs and a closed-form side
    rhs, each called with (params, box). Any other entry names its
    dedicated verifier, a module global looked up at call time and called
    with the parameters (and the box) as keywords.
    """

    id: str
    params: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    box: Optional[dict] = None
    full: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    colored: bool = False
    verifier: Optional[str] = None
    lhs: object = None
    rhs: object = None


_T = {"t": "t"}
_TR = {"t": "t", "r": "r"}
_QZ12 = {"q": 12, "z": 12}
_FULL18 = {"box": {"q": 18, "z": 18}}
_UP_TO_3 = (1, 2, 3)

CATALOG = (
    Entry("schmidt", {"n_max": 15}, {"n": "n_max"}, full={"n_max": 22},
          verifier="verify_schmidt"),
    Entry("prop1", {"n_max": 25}, {"n": "n_max"}, full={"n_max": 30},
          verifier="verify_euler_refinement"),
    Entry("cor2", {"n_max": 15}, {"n": "n_max"}, full={"n_max": 22},
          verifier="verify_schmidt_refinement"),
    Entry("thm3.1", box={"q": 12, "z": 24}, full={"box": {"q": 18, "z": 36}},
          lhs=Histogram(("weight", "size"), t=2, distinct=True),
          rhs=lambda p, box: _quotient(
              box, [({"q": 1, "z": 1}, {"q": 1, "z": 2}, INFINITY)])),
    Entry("thm3.2", box=_QZ12, full=_FULL18,
          lhs=Histogram(("weight", "size"), t=2, r=2, distinct=True),
          rhs=lambda p, box: _quotient(
              box, [({"z": 1}, {"q": 1, "z": 2}, INFINITY)])),
    Entry("eq3", box={"q": 8, "z": 16}, full={"box": {"q": 12, "z": 24}},
          lhs=_size_and_excess,
          rhs=lambda p, box: _quotient(
              box, [({"q": 1, "z": 1}, {"q": 1, "z": 2}, INFINITY)])),
    Entry("thm4.1", box=_QZ12, full=_FULL18,
          lhs=Histogram(("weight", "first"), t=4, distinct=True,
                        length_mod=(4, (0, 3))),
          rhs=lambda p, box: _head_sum(box, 1, lambda n: (
              {"q": n * (2 * n + 1), "z": 4 * n - 1}, [_zq(n)] * 4))),
    Entry("thm4.2", box=_QZ12, full=_FULL18,
          lhs=Histogram(("weight", "first"), t=4, distinct=True,
                        length_mod=(4, (1, 2))),
          rhs=lambda p, box: _head_sum(box, 0, lambda n: (
              {"q": n * (2 * n - 1), "z": 4 * n - 3},
              [_zq(n)] * 2 + [_zq(n - 1)] * 2))),
    Entry("thm5.1", box=_QZ12, full=_FULL18,
          lhs=Histogram(("weight", "first"), t=2),
          rhs=lambda p, box: _quotient(box, [_zq(), _zq()])),
    Entry("thm5.2", box=_QZ12, full=_FULL18,
          lhs=Histogram(("weight", "first"), t=2, r=2),
          rhs=lambda p, box: _quotient(box, [({"z": 1}, {}, 1), _zq(), _zq()])),
    Entry("thm6", {"t": 2, "n_max": 8}, {"t": "t", "n": "n_max"},
          full={"n_max": 12}, grid={"t": _UP_TO_3}, verifier="verify_li_yee"),
    Entry("thm7", {"t": 2, "r": 1, "size_max": 18},
          {"t": "t", "r": "r", "n": "size_max"}, full={"size_max": 24},
          grid={"t": _UP_TO_3, "r": _UP_TO_3},
          verifier="verify_color_conjugate"),
    Entry("thm8.1", {"t": 2, "r": 1}, _TR, box={"q": 10, "z": 10},
          full={"box": {"q": 15, "z": 15}},
          grid={"t": (1, 2, 3, 4), "r": (1, 2, 3, 4)},
          lhs=Histogram(("weight", "first"), t="t", r="r"),
          rhs=lambda p, box: _quotient(
              box, [({"z": 1}, {}, p["r"] - 1)] + [_zq()] * p["t"])),
    Entry("thm8.2", {"t": 2}, _T, box={"q": 8, "z": 4}, colored=True,
          full={"box": {"q": 12, "z": 6}}, grid={"t": _UP_TO_3},
          lhs=Histogram(("weight", "profile"), t="t"),
          rhs=lambda p, box: _quotient(
              box, [({"q": 1, z: 1}, {"q": 1}, INFINITY)
                    for z in _colors(p["t"])])),
    # the product over n >= 0 of 1 / (s^(nt+r) q^(n+1) z; s)_t; the
    # factors whose base leaves the q or s bound are 1 in the box
    Entry("thm9", {"t": 2, "r": 1}, _TR, box={"q": 10, "z": 10, "s": 10},
          full={"box": {"q": 12, "z": 12, "s": 12}},
          grid={"t": _UP_TO_3, "r": _UP_TO_3},
          lhs=Histogram(("weight", "first", "size"), t="t", r="r"),
          rhs=lambda p, box: _quotient(
              box, [({"s": 1, "z": 1}, {"s": 1}, p["r"] - 1)]
              + [({"s": n * p["t"] + p["r"], "q": n + 1, "z": 1}, {"s": 1},
                  p["t"]) for n in range(box["q"])
                 if n * p["t"] + p["r"] <= box["s"]])),
    Entry("cor10", {"t": 2, "r": 1}, _TR, box={"q": 8, "z": 8},
          full={"box": {"q": 12, "z": 12}}, grid={"t": (2, 3), "r": _UP_TO_3},
          lhs=Histogram(("anti", "first"), t="t", r="r"),
          rhs=lambda p, box: _quotient(box, [
              _zq(), ({"q": p["r"] - 1, "z": 1}, {"q": p["t"] - 1}, INFINITY)])),
    Entry("cor11", {"t": 2, "r": 2, "k_max": 6, "n_max": 10},
          {"t": "t", "r": "r", "k": "k_max", "n": "n_max"},
          full={"k_max": 9, "n_max": 15}, grid={"t": (2, 3), "r": (2, 3)},
          verifier="verify_opposite_schmidt"),
    Entry("eq14", {"n": 4}, {"n": "n"}, box={"q": 10, "z": 10},
          full={"box": {"q": 15, "z": 15}, "grid": {"n": range(7)}},
          grid={"n": range(5)},
          lhs=Histogram(("weight", "first"), t=2, max_len=lambda p: 2 * p["n"]),
          rhs=lambda p, box: _quotient(box, [_zq(p["n"])] * 2)),
    Entry("eq20", {"t": 2, "n_max": 6}, {"t": "t", "n": "n_max"},
          box={"q": 8, "s": 12}, full={"n_max": 9, "box": {"q": 12, "s": 18}},
          verifier="verify_recurrence"),
    Entry("eq24", {"t": 2}, _T, box={"q": 6, "s": 10, "z": 4},
          full={"box": {"q": 9, "s": 15, "z": 6}},
          verifier="verify_functional_equation"),
    Entry("table1", {"n": 7}, {"n": "n"}, verifier="verify_table"),
    Entry("furtherwork", {"m_max": 4, "size_max": 20},
          {"m": "m_max", "n": "size_max"}, full={"size_max": 24},
          verifier="verify_furtherwork"),
)

_BY_ID = {entry.id: entry for entry in CATALOG}
THEOREM_IDS = tuple(_BY_ID)
IDENTITY_IDS = tuple(entry.id for entry in CATALOG if entry.lhs is not None)


def _entry(ident):
    try:
        return _BY_ID[ident]
    except KeyError:
        raise VerifyError(f"unknown identity id: {ident}") from None


def _expand(entry, params, box):
    """A copy of box, with a colored entry's z spelled out as z1..zt."""
    if box is None:
        return None
    out = dict(box)
    if entry.colored:
        out.update(dict.fromkeys(_colors(params["t"]), out.pop("z")))
    return out


def resolve_arguments(ident, box=None, **flags):
    """Parameters and box of one check: the entry's defaults, with each
    given flag value (t, r, n, k or m; None means not given) and each
    given box bound laid over them. A bound for z sets every z_i of a
    colored entry. VerifyError for a flag or a box variable the entry
    does not take, for t or r below 1, and for a negative count or box
    bound."""
    entry = _entry(ident)
    params = dict(entry.params)
    for flag, value in flags.items():
        if value is not None:
            if flag not in entry.flags:
                raise VerifyError(f"{ident} takes no --{flag}")
            low = _LOWEST.get(flag, 0)
            if value < low:
                raise VerifyError(f"{ident} needs --{flag} >= {low}")
            params[entry.flags[flag]] = value
    out = _expand(entry, params, entry.box)
    for var, bound in (box or {}).items():
        hit = [v for v in out or () if var in (v, v.rstrip("0123456789"))]
        if not hit:
            raise VerifyError(f"{ident} has no box variable {var}")
        if bound < 0:
            raise VerifyError(f"{ident} needs --max-{var} >= 0")
        out.update(dict.fromkeys(hit, bound))
    return params, out


def _run(entry, params, box=None, perturb=None):
    if entry.lhs is not None:
        return verify_identity(entry.id, params, box, perturb)
    kwargs = dict(params)
    if box is not None:
        kwargs["box"] = box
    if perturb is not None:
        kwargs["perturb"] = perturb
    return globals()[entry.verifier](**kwargs)


def run_verifier(ident, t=None, r=None, n=None, k=None, box=None,
                 perturb=None, m=None):
    """Run one catalog check by id, its defaults filled in; a partial box
    replaces only the bounds it names."""
    params, box = resolve_arguments(ident, box, t=t, r=r, n=n, k=k, m=m)
    return _run(_entry(ident), params, box, perturb)


def _suite_tasks(level):
    if level not in ("quick", "full"):
        raise VerifyError("suite level must be 'quick' or 'full'")
    tasks = []
    for entry in CATALOG:
        full = entry.full if level == "full" else {}
        params = {k: full.get(k, v) for k, v in entry.params.items()}
        box = full.get("box", entry.box)
        grid = full.get("grid", entry.grid)
        for values in itertools.product(*grid.values()):
            point = {**params, **dict(zip(grid, values))}
            tasks.append(partial(_run, entry, point, _expand(entry, point, box)))
    return tasks


def run_suite(level="quick"):
    """Run every catalog check at the given level and collect reports."""
    return SuiteReport(level, [task() for task in _suite_tasks(level)])
