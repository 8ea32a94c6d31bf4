"""Mechanical verification of the package's partition identities.

Every check compares two independently computed objects: a count and a
closed form (Pochhammer products and quotients, applied as in-place shift
passes; eq20's recurrence applies its Gaussian binomials the same way),
a second count or a frozen reference. Two kernels do the counting
without visiting the objects counted: the row-transfer partition
histogram, for partitions by any of their statistics, colour profile
included, and the series divisions, for coloured partitions. thm6's
colour classes (s, j) are the quotients
q^s / ((q; q)_s^j (q; q)_(s-1)^(t-j)), and cor11's two-coloured
partitions by size and parts are cor10's closed form
1 / ((zq; q)_oo (zq^(r-1); q^(t-1))_oo); thm7 joins int64 rows of
classes (weight, colour counts, count) colour by colour from each
colour's (weight, parts) series 1 / (zq^a; q^d)_oo. The sides share no
identity-specific logic, so
agreement across a whole coefficient box is strong evidence, and any
disagreement is pinned to its graded-lex-first monomial. The bijection
checks test the maps themselves: thm7, prop1 and furtherwork run their
maps' array forms over their whole domain, stored parts-major (the
layout is stated in the partitions module), in ranges of columns that
may span sizes. partitions.partition_domain builds a domain in place,
and the domain of the last size asked for is kept between calls
(_parts, and _domain with thm7's column heights), so thm7's grid points
build it once. Two walks visit partitions one at a time: table1's rows
and furtherwork's collision_search(3, 13). Each catalog entry is the one
home of its parameters' limits (Entry.caps and Entry.lowest): a size cap
on each check over a domain and on table1's walk, a cap on t for thm6,
thm7, thm8.1 and thm8.2, on r for thm8.1, on n_max for thm6 and cor11
and on k_max for cor11, and a lowest t for cor10 and cor11 and a lowest
r for cor11.

Every counting side of a series identity is a (params, box) function,
like its closed form: one histogram call whose own array is the series,
or for eq3 one gather from the (size, length) histogram. eq24's
substituted side F(s, q, s^t q z) is a gather too, from the (weight,
first, size) histogram that its other side is, divided in place by
(sqz; s)_t.

The dedicated checks schmidt, cor2, table1, thm6 and cor11 report
through one first-failure scan, _first_failure: each lays out its cells
or its walk as (where, got, want) cases in order, and the report counts
the cases up to the first mismatch. The checks whose cases are the cells
of two arrays (all but table1) compare the arrays at once,
_first_cell_failure, and read out only the first differing cell. prop1
checks its partitions as arrays and counts them up to its first bad one.

The catalog is data: CATALOG holds one Entry per identity id, in the
paper's order, with its defaults, CLI flags, suite grid and either a
dedicated verifier or the two sides of a series identity. THEOREM_IDS
lists every id, and the series-vs-series subset is IDENTITY_IDS. Every
id runs through verify_identity: _setup lays its parameters over the
entry's defaults and checks them and the box, the two sides or the
dedicated verifier run, and verify_identity builds the report. A
dedicated verifier takes its parameters as they stand and returns only
the cases it checked and its first mismatch.
"""

import functools
import inspect
import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import series as qs
from ._accel import UnboundedBox, _zeros, partition_histogram  # noqa: F401 (re-exported)
from .bijections import (
    _conjugate_rows,
    bessenrodt,
    bessenrodt_inverse,
    bessenrodt_inverse_rows,
    collision_search,
    color_conjugate_inverse_rows,
    color_conjugate_rows,
    generalized_hook_map,
    generalized_hook_map_rows,
)
from .partitions import (
    ModularDiagram,
    enumerate_partitions,
    partition_domain,
    partition_numbers,
    schmidt_weight,
)
from .series import INFINITY, TruncatedSeries


class VerifyError(ValueError):
    """A verification request that cannot be set up."""


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


def _first_cell_failure(got, want, labels, mask=True):
    """_first_failure over the cells of two arrays of one shape where mask
    holds, in index order, each keyed by labels with its values as ints.
    The arrays are compared at once, and only the first differing cell is
    read out."""
    mask = np.broadcast_to(mask, got.shape)
    differ = ((got != want) & mask).ravel()
    if not differ.any():
        return int(np.count_nonzero(mask)), None
    first = int(np.argmax(differ))
    index = np.unravel_index(first, got.shape)
    return (int(np.count_nonzero(mask.ravel()[:first + 1])),
            _mismatch(dict(zip(labels, map(int, index))), int(got[index]),
                      int(want[index])))


def _series_mismatch(lhs, rhs):
    found = qs.first_mismatch(lhs, rhs)
    if found is None:
        return None
    exps, a, b = found
    return _mismatch(dict(exps), int(a), int(b))


def _series_from_hist(box, arr):
    """The int64 array arr, not copied, as a series over box."""
    return TruncatedSeries(*qs._canon_box(box), arr)


@functools.lru_cache(maxsize=1)
def _parts(size_max, distinct):
    """partition_domain(size_max, distinct), read-only."""
    parts, sizes = partition_domain(size_max, distinct)
    parts.flags.writeable = sizes.flags.writeable = False
    return parts, sizes


@functools.lru_cache(maxsize=1)
def _domain(size_max):
    """_parts(size_max, False) and the column heights (the conjugates,
    size_max rows, read-only) that thm7 reads.

    Only the last domain, and the last parts, are kept between calls:
    thm7's grid points share size_max and so one build, and furtherwork
    at thm7's size_max reuses its parts.
    """
    parts, sizes = _parts(size_max, False)
    columns = np.zeros((size_max, parts.shape[1]), dtype=parts.dtype)
    step = max(1, _CHUNK_CELLS // len(parts))
    for lo in range(0, parts.shape[1], step):
        chunk = _conjugate_rows(parts[:, lo:lo + step].astype(_signed(parts)))
        columns[:len(chunk), lo:lo + step] = chunk
    columns.flags.writeable = False
    return parts, sizes, columns


# columns per array pass bounded to about this many cells, so that the
# arrays of the largest domains stay small
_CHUNK_CELLS = 1 << 15

# lowest admissible value of a parameter, where its entry sets none; every
# other parameter and every box bound starts at 0
_LOWEST = {"t": 1, "r": 1, "m_max": 2}


def _signed(array):
    """The narrowest signed type that holds every value of array's type:
    int16 for a domain's uint8 below size 256. The passes over a domain
    form values of at most a few times its size, which fit it too."""
    return np.promote_types(array.dtype, np.int8)


def _column_chunks(row_cells, *arrays):
    """The columns of arrays that share their last axis, each cast to its
    _signed type, in ranges of at most _CHUNK_CELLS // row_cells columns
    (at least one), where row_cells bounds the cells per column of the
    widest array a pass over a range builds. Yields each range's
    arrays."""
    step = max(1, _CHUNK_CELLS // row_cells)
    for lo in range(0, arrays[0].shape[-1], step):
        yield [array[..., lo:lo + step].astype(_signed(array))
               for array in arrays]


def _key_sums(keys, values=None):
    """The distinct rows of keys, sorted, and the sums of their values, or
    without values how many times each row occurs. The sorted rows are
    compared a column at a time, so no sorted copy of keys is made."""
    order = np.lexsort(keys.T[::-1])
    start = np.zeros(len(keys), dtype=bool)
    start[:1] = True
    for column in keys.T:
        column = column[order]
        start[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(start)
    if values is None:
        sums = np.diff(starts, append=len(keys))
    else:
        sums = np.add.reduceat(values[order], starts)
    return keys[order[starts]], sums


# ---------------------------------------------------------------------------
# series identities: the specs of the two sides
# ---------------------------------------------------------------------------

def _histogram(box, axes, t=1, **options):
    """The histogram kernel's count as a series over box: axes names the
    partition statistic of each box variable, in the canonical variable
    order q, z, s, and "profile" stands for the t colour classes z1..zt;
    t and the other options go to the kernel."""
    axes = [a for axis in axes for a in [axis] * (t if axis == "profile" else 1)]
    _, bounds = qs._canon_box(box)
    return _series_from_hist(
        box, partition_histogram(axes, bounds, t=t, **options))


def _size_and_excess(params, box):
    """eq3's enumeration side: partitions by size (q) and by twice the
    size less the length (z), gathered from the (size, length) histogram
    at length 2 size - z. z past 2q would need a length below 0, so the
    gather stops there and the rest of the box stays zero."""
    q = box["q"]
    arr = partition_histogram(("size", "length"), (q, q))
    out = _zeros((q + 1, box["z"] + 1))
    n, z = np.ogrid[:q + 1, :min(box["z"], 2 * q) + 1]
    ell = 2 * n - z
    # the clip keeps every index valid, and the mask drops what it moved
    out[:, :z.size] = np.where((ell >= 0) & (ell <= n),
                               arr[n, np.clip(ell, 0, q)], 0)
    return _series_from_hist(box, out)


def _colors(t):
    return [f"z{i}" for i in range(1, int(t) + 1)]


def _zq(n=INFINITY):
    """(zq; q)_n, the factor shared by most closed forms."""
    return {"q": 1, "z": 1}, {"q": 1}, n


def _from(corner):
    """The index of the view at or past corner, an exponent vector."""
    return tuple(slice(e, None) for e in corner)


def _quotient(box, factors, head=None):
    """The monomial head (1 if None) divided by each (base, ratio, n)
    Pochhammer product in factors, in one pass on the head's corner."""
    head = head or {}
    f = TruncatedSeries.monomial(box, head)
    qs._divide(f.coeffs[_from(f._index(head))], f.variables, factors, 1)
    return f


def _head_sum(box, constant, term):
    """constant plus the sum over n = 1, 2, ... of head_n / D_n, where
    term(n) = (head_n, E_n), a head and the Pochhammer products that
    D_n = D_(n-1) E_n adds to D_(n-1) (D_0 = 1), until the head leaves
    the box. The heads must rise in every variable.

    The sum is nested (Horner's rule): with R_(N+1) = 0 for the last
    head N in the box and R_n = (head_n + R_(n+1)) / E_n, the sum is
    constant + R_1. R_n is zero below head_n, so step n adds the head's
    1 and divides the corner at head_n once, by E_n alone, under the
    running bound of the steps before it. Every partial sum on the way
    is at most a coefficient of the result, so CoefficientOverflow comes
    only where a coefficient of the result leaves int64.
    """
    acc = TruncatedSeries.zero(box)
    terms = []
    for n in itertools.count(1):
        head, factors = term(n)
        if any(e > box[v] for v, e in head.items()):
            break
        terms.append((acc._index(head), factors))
    bound = 0
    for corner, factors in reversed(terms):
        acc.coeffs[corner] += 1
        bound = qs._divide(acc.coeffs[_from(corner)],
                           acc.variables, factors, bound + 1)
    origin = (0,) * len(acc.variables)
    acc.coeffs[origin] = qs._checked(int(acc.coeffs[origin]) + constant)
    return acc


def _perturb(f, exponents):
    """Add 1, in place, to f's coefficient at exponents: OutOfBox past
    the box, CoefficientOverflow past int64."""
    cell = f._index(exponents)
    f.coeffs[cell] = qs._checked(int(f.coeffs[cell]) + 1)


def _setup(ident, params=None, box=None):
    """The entry of a catalog check, its parameters laid over the entry's
    defaults, and its box: the entry's default box (None if it takes
    none) if box is None, else box. The one place a check's arguments are
    checked: VerifyError for a parameter the entry does not take, a
    parameter below its lowest value (the entry's, else _LOWEST's) or
    above the entry's cap, a box whose variables are not the entry's, and
    a negative box bound."""
    entry = _entry(ident)
    params = {**entry.params, **(params or {})}
    for name, value in params.items():
        if name not in entry.params:
            raise VerifyError(f"{ident} takes no parameter {name}")
        low = entry.lowest.get(name, _LOWEST.get(name, 0))
        if value < low:
            raise VerifyError(f"{ident} needs {name} >= {low}")
        cap = entry.caps.get(name)
        if cap is not None and value > cap:
            raise VerifyError(f"{ident} takes {name} at most {cap}, "
                              f"got {value}")
    default = _entry_box(entry, params, entry.box)
    if box is None:
        return entry, params, default
    if set(box) != set(default or ()):
        want = ", ".join(default or ())
        raise VerifyError(f"{ident} expects a box over exactly {{{want}}}")
    for var, bound in box.items():
        if bound < 0:
            raise VerifyError(f"{ident} needs {var} >= 0")
    return entry, params, box


def _series_setup(ident, params, box):
    if _entry(ident).lhs is None:
        raise VerifyError(f"{ident} is not a series identity; "
                          "use verify_identity")
    return _setup(ident, params, box)


def lhs_series(ident, params, box):
    """Enumeration side of a series identity, counted by the histogram
    kernel from partition statistics only."""
    entry, params, box = _series_setup(ident, params, box)
    return entry.lhs(params, box)


def rhs_series(ident, params, box):
    """Closed-form side of a series identity, built from series
    primitives only."""
    entry, params, box = _series_setup(ident, params, box)
    return entry.rhs(params, box)


def verify_identity(ident, params=None, box=None, perturb=None):
    """Run one catalog check, by id, and report it: params (by parameter
    name) laid over the entry's defaults, in box, or the default box if
    None. A series identity compares its enumeration side with its closed
    form; any other entry runs its dedicated verifier, which returns how
    many cases it checked and its first mismatch, or None.

    perturb, an exponent dict, adds 1 to that coefficient of the closed
    form (of a series identity, or eq24's) before comparison; it exists
    to prove the machinery can fail. VerifyError for perturb on any other
    dedicated check, whose verifier takes no perturb.
    """
    entry, params, box = _setup(ident, params, box)
    start = time.perf_counter()
    if entry.lhs is None:
        verifier = globals()[entry.verifier]
        extra = {} if entry.box is None else {"box": box}
        if perturb is not None:
            if "perturb" not in inspect.signature(verifier).parameters:
                raise VerifyError(f"{ident} takes no perturb")
            extra["perturb"] = perturb
        checked, mismatch = verifier(**params, **extra)
    else:
        lhs = lhs_series(ident, params, box)
        rhs = rhs_series(ident, params, box)
        if perturb:
            _perturb(rhs, perturb)
        checked, mismatch = _volume(box), _series_mismatch(lhs, rhs)
    elapsed = (time.perf_counter() - start) * 1000.0
    status = "pass" if mismatch is None else "fail"
    return VerificationReport(ident, params, dict(box or {}), status, checked,
                              elapsed, mismatch)


# ---------------------------------------------------------------------------
# counting checks
# ---------------------------------------------------------------------------

def verify_schmidt(n_max):
    """Distinct partitions with odd-index sum n are counted by the plain
    partition numbers.

    One side is the histogram kernel, the other a dynamic program that
    never enumerates.
    """
    hist = partition_histogram(("weight",), (n_max,), t=2, r=1, distinct=True)
    _, mismatch = _first_cell_failure(
        hist, np.array(partition_numbers(n_max)), ("n",))
    # the report counts the whole table, even when it fails
    return n_max + 1, mismatch


def verify_schmidt_refinement(n_max):
    """Partitions of n with given length match distinct partitions with
    odd-index sum n and complementary size 2n - length."""
    plain = partition_histogram(("size", "length"), (n_max, n_max))
    dist = partition_histogram(
        ("weight", "size"), (n_max, 2 * n_max), t=2, r=1, distinct=True
    )
    n, ell = np.indices(plain.shape)
    # 2n - ell is a valid index even where ell > n, and the mask drops it
    return _first_cell_failure(
        plain, dist[n, 2 * n - ell], ("n", "length"), ell <= n)


def verify_euler_refinement(n_max):
    """Pulling a distinct partition back to odd parts fixes its length
    and largest part.

    For distinct lam of n with largest part k and odd-index sum m, the
    odd-parts preimage mu has length 2m - n, and when lam is nonempty
    its largest part is 1 + 2k + 2n - 4m.

    Every distinct partition of size <= n_max, in ranges of columns, goes
    through the array form of the inverse map; the report is the one a
    partition-by-partition walk would give. A partition the map finds no
    preimage for reports lhs None.
    """
    checked, mismatch = 0, None
    parts, sizes = _parts(n_max, True)
    # the preimages have up to n_max parts
    for lam, n in _column_chunks(n_max + 1, parts, sizes):
        mu, valid = bessenrodt_inverse_rows(lam)
        m = lam[::2].sum(axis=0, dtype=lam.dtype)
        got = np.stack([np.count_nonzero(mu, axis=0), mu[:1].sum(axis=0)])
        want = np.stack([2 * m - n, np.where(
            lam[0] > 0, 1 + 2 * lam[0] + 2 * n - 4 * m, 0)])
        bad = np.flatnonzero(~valid | (got != want).any(axis=0))
        if bad.size:
            i = int(bad[0])
            mismatch = _mismatch(
                {"partition": np.trim_zeros(lam[:, i], "b").tolist()},
                got[:, i].tolist() if valid[i] else None,
                want[:, i].tolist())
            checked += i + 1
            break
        checked += lam.shape[1]
    return checked, mismatch


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


def verify_table(n):
    """Every table row round-trips, and the n = 7 table matches its
    frozen reference."""
    def listed(table):
        return [[w, list(d), list(o)] for w, d, o in table]

    rows = table_bessenrodt(n)
    round_trips = (
        ({"partition": list(delta)},
         [list(bessenrodt(omega)), omega.size(), schmidt_weight(delta, 2, 1)],
         [list(delta), n, w])
        for w, delta, omega in rows)
    frozen = [({"table": n}, listed(rows), listed(_TABLE_SEVEN))] \
        if n == 7 else []
    return _first_failure(itertools.chain(round_trips, frozen))


def verify_li_yee(t, n_max):
    """Length classes of the row-t weight match greatest-multiplicity
    classes of colored partitions.

    Partitions with weight n classed by length (s-1)t + j correspond to
    t-colored partitions of n where some color appears s times and j is
    the largest such color; _li_yee_classes counts the second.
    """
    arr = partition_histogram(("weight", "length"), (n_max, t * n_max), t=t, r=1)
    # classes indexed (n, s, j): length (s-1)t + j has s >= 1 and j in
    # 1..t, and the empty partition is the class (0, 0, 0)
    lhs = np.zeros((n_max + 1, n_max + 1, t + 1), dtype=np.int64)
    lhs[:, 1:, 1:] = arr[:, 1:].reshape(n_max + 1, n_max, t)
    lhs[0, 0, 0] = arr[0, 0]
    rhs = _li_yee_classes(t, n_max)
    present = (lhs != 0) | (rhs != 0)
    present[0, 0, 0] = True
    return _first_cell_failure(lhs, rhs, ("n", "s", "j"), present)


def _li_yee_classes(t, n_max):
    """thm6's colored side, an int64 array indexed (n, s, j): the
    t-colored partitions of n in which color j has exactly s parts, the
    colors before it at most s and those after it fewer, with the empty
    one at (0, 0, 0). Class (s, j) is q^s / ((q; q)_s^j (q; q)_(s-1)^(t-j)).
    With below = 1 / (q; q)_(s-1)^t, column (s, 1) is q^s below / (1 - q^s),
    column (s, j) is column (s, j - 1) / (1 - q^s), and below then takes
    (1 - q^s)^t, each one division in place. below is divided only as far
    as the next column reads it, where its counts are at most that
    column's, so CoefficientOverflow means a class count left int64.
    Once 2s > n_max no multiple of s fits a column or what the next one
    reads, so every division is the identity: columns (s, 1..t) are all
    below, copied at once."""
    classes = np.zeros((n_max + 1, n_max + 1, t + 1), dtype=np.int64)
    classes[0, 0, 0] = 1
    below = np.zeros(n_max + 1, dtype=np.int64)
    below[0] = 1
    for s in range(1, n_max + 1):
        column = below[:n_max + 1 - s]  # q^s below, from its corner q^s
        if 2 * s > n_max:
            classes[s:, s, 1:] = column[:, None]
            continue
        for j in range(1, t + 1):
            classes[s:, s, j] = column
            column = classes[s:, s, j]
            qs._divide(column, ("q",), [({"q": s}, {}, 1)])
        # the next column reads below only up to q^(n_max - s - 1)
        qs._divide(below[:n_max - s], ("q",), [({"q": s}, {}, t)])
    return classes


def _colored_classes(bound, weights):
    """Colored partitions of weight <= bound by class: int64 rows (weight,
    c_1, ..., c_t, count) in key order; weights holds per color the range
    a, a + d, ... of weights (all >= 1) its parts may take. Built color by
    color: each color's (weight, parts) table is the series
    1 / (z q^a; q^d)_oo, one division, and its nonzero cells join the
    classes so far where the weight still fits, so memory follows the
    number of classes. A table raises CoefficientOverflow where a count
    leaves int64; every product and sum of the join is at most one
    class's count."""
    rows = np.array([[0, 1]], dtype=np.int64)  # the empty partition
    for allowed in weights:
        table = np.zeros((bound + 1, bound + 1), dtype=np.int64)
        table[0, 0] = 1
        qs._divide(table, ("q", "z"), [({"q": allowed.start, "z": 1},
                                        {"q": allowed.step}, INFINITY)])
        w, c = np.nonzero(table)
        i, j = np.nonzero(rows[:, :1] + w <= bound)
        rows = np.column_stack(_key_sums(
            np.column_stack([rows[i, :1] + w[j, None], rows[i, 1:-1], c[j]]),
            rows[i, -1] * table[w[j], c[j]]))
    return rows


def _columns_equal(a, b):
    """Column-wise equality of two parts-major int arrays of any heights."""
    if len(a) < len(b):
        a, b = b, a
    return (a[:len(b)] == b).all(axis=0) & (a[len(b):] == 0).all(axis=0)


def _pair_classes(t, r, size_max):
    """The pair side of thm7: an int64 array of rows (size, first, row_r,
    weight, *profile, count), one per head cell and colored class; rows
    of one key count one class. The heads, partitions with at most r - 1
    parts, are counted by the histogram kernel in cells (size, first
    part), and a row's count is its class's count times its head cell's."""
    heads = partition_histogram(("size", "first"), (size_max, size_max),
                                max_len=r - 1)
    size, first = np.nonzero(heads)
    # part p of color i reassembles to r - 1 + t(p - 1) + i rows, so a class
    # (w, c) has sum(c) parts summing to (w - sum_i c_i (r - 1 + i - t)) / t
    classes = _colored_classes(
        size_max, [range(r - 1 + i, size_max + 1, t) for i in range(1, t + 1)])
    base, prof = classes[:, 0], classes[:, 1:-1]
    k = prof.sum(axis=1)
    n = (base - prof @ np.arange(r - t, r)) // t
    i, j = np.nonzero(base[:, None] + size <= size_max)
    return np.column_stack([base[i] + size[j], first[j] + k[i], k[i], n[i],
                            prof[i], classes[i, -1] * heads[size, first][j]])


def _round_trip_rows(lam, heights, t, r):
    """Run the array form of the color-conjugate map on the parts-major
    columns lam, with their column heights, and check every column
    against values read off the columns themselves: the weight is a
    strided sum, and profile class i the difference of the strided sums
    from rows r + i and r + i + 1, as color_profile in tests/reference.py
    defines it.

    Returns the columns' class keys, rows (first, row_r, weight,
    *profile), and None, or None and the first failing column's index and
    got/want lists.
    """
    nu, mu, colors = color_conjugate_rows(lam, t, r, heights)
    back, valid = color_conjugate_inverse_rows(nu, mu, colors, t, r)
    first, lam_r = lam[0], lam[r - 1]
    sums = np.stack([lam[r - 1 + i::t].sum(axis=0, dtype=lam.dtype)
                     for i in range(t + 1)])
    weight, profile = sums[0], sums[:-1] - sums[1:]
    counts = np.stack([(colors == i).sum(axis=0, dtype=lam.dtype)
                       for i in range(1, t + 1)])
    length = np.count_nonzero(mu, axis=0)
    ok = (_columns_equal(back, lam)
          & (length == lam_r)
          & (nu[:1].sum(axis=0) == first - lam_r)  # nu_1, 0 if r = 1
          & valid
          & (mu.sum(axis=0) == weight)
          & (counts == profile).all(axis=0))
    if ok.all():
        return np.vstack([first, lam_r, weight, profile]), None
    i = int(np.argmin(ok))
    got = [np.trim_zeros(back[:, i], "b").tolist(), int(length[i]),
           int(nu[:1, i].sum()), int(valid[i]), int(mu[:, i].sum()),
           counts[:, i].tolist()]
    want = [np.trim_zeros(lam[:, i], "b").tolist(), int(lam_r[i]),
            int(first[i] - lam_r[i]), 1, int(weight[i]),
            profile[:, i].tolist()]
    return None, (i, got, want)


def _class_mismatch(keys, pair):
    """Compare the classes of the partitions (their keys, size first) with
    the pair side's (rows of key and count) in sorted key order. Each
    side's classes are counted on their own, the partitions' as the run
    lengths of their sorted keys and the pairs' as the sums of their
    sorted rows, and the two sorted class lists are walked together to
    the first class where they part. Returns how many classes were
    checked and the first mismatch, or None."""
    keys, counts = _key_sums(keys)
    pair_keys, pair_counts = _key_sums(pair[:, :-1].astype(keys.dtype),
                                       pair[:, -1])
    common = min(len(keys), len(pair_keys))
    same = (keys[:common] == pair_keys[:common]).all(axis=1) & (
        counts[:common] == pair_counts[:common])
    j = common if same.all() else int(np.argmin(same))
    if j == len(keys) == len(pair_keys):
        return j, None
    # the lists part at class j: a side whose key there is the greater
    # has no class at the lesser key
    sides = [(k[j].tolist(), int(c[j])) if j < len(k) else None
             for k, c in ((keys, counts), (pair_keys, pair_counts))]
    key = min(side[0] for side in sides if side)
    lhs, rhs = [side[1] if side and side[0] == key else 0 for side in sides]
    n, k1, kr, w, *prof = key
    return j + 1, _mismatch({"size": n, "first": k1, "row_r": kr,
                             "weight": w, "profile": prof}, lhs, rhs)


def verify_color_conjugate(t, r, size_max):
    """The color-conjugate map round-trips, carries the advertised
    statistics, and matches an independent count of its image classes.

    Classes are keyed by (size, largest part, part at row r, weight,
    color counts). On the pair side the class size factorizes: a head
    partition with at most r-1 parts and given largest part, times a
    colored partition with given length, size, and color counts; the
    reassembled size is head size + (r-1)*length + t*(size - length) +
    sum(i * count_i). Keying classes by size windows both sides
    identically at size_max.

    The partition side runs every partition of size <= size_max, in
    ranges of columns of the kept domain, through the array form of the
    map, and then the classes of the whole domain are compared with the
    pair side's at once. The report is the one a partition-by-partition
    walk would give: a round-trip failure anywhere counts the partitions
    up to it; else every partition counts, and the classes up to the
    first mismatch in (size, key) order.
    """
    # for r past size_max every partition has fewer than r parts, and no
    # part of colour i, at least r - 1 + i, fits: the check at r is the
    # check at size_max + 1, reported with the r asked for
    row = min(r, size_max + 1)
    # every key field lies in 0..size_max on both sides, and the narrowest
    # type that holds them keeps the keys small and their sort fast
    key_type = np.min_scalar_type(size_max)
    visited = 0
    keys = []
    # the map reads rows up to row; past size_max + 1 they are all zero
    width = max(size_max, row) + 2
    for lam, sizes, heights in _column_chunks(width, *_domain(size_max)):
        if len(lam) < width:
            lam = np.pad(lam, ((0, width - len(lam)), (0, 0)))
        chunk_keys, failure = _round_trip_rows(lam, heights, t, row)
        if failure is not None:
            i, got, want = failure
            return visited + i + 1, _mismatch(
                {"partition": want[0], "t": t, "r": r}, got, want)
        keys.append(np.vstack([sizes, chunk_keys]).astype(key_type))
        visited += len(sizes)
    classes, mismatch = _class_mismatch(np.concatenate(keys, axis=1).T,
                                        _pair_classes(t, row, size_max))
    return visited + classes, mismatch


def verify_opposite_schmidt(t, r, k_max, n_max):
    """Partitions classed by largest part and complement weight match
    two-colored partitions with restricted second-color sizes.

    Partitions with largest part k whose size minus the sum over rows
    r, t+r, ... equals n correspond to 2-colored partitions of n with
    k parts where color 2 appears only on sizes r-1, r-1 + (t-1), ...,
    counted by _two_colored, the series cor10 expands.
    """
    arr = partition_histogram(("anti", "first"), (n_max, k_max), t=t, r=r)
    pairs = _two_colored(t, r, {"q": n_max, "z": k_max})
    return _first_cell_failure(arr, pairs.coeffs, ("n", "first"))


def _two_colored(t, r, box):
    """1 / ((zq; q)_oo (zq^(r-1); q^(t-1))_oo): 2-colored partitions by
    size (q) and number of parts (z), color 2 only on the sizes r - 1,
    r - 1 + (t - 1), ...; cor10's closed form and cor11's pair side."""
    return _quotient(box, [
        _zq(), ({"q": r - 1, "z": 1}, {"q": t - 1}, INFINITY)])


# ---------------------------------------------------------------------------
# recurrence and functional equation
# ---------------------------------------------------------------------------

def f_recurrence(n, t, box):
    """Series over q and s for partitions with largest part exactly n,
    where q carries the row-t weight and s the size, built from the
    self-referential recurrence rather than any enumeration. Its
    arguments are checked as eq20's: n as n_max, t and box. Past min(q,
    s) it is zero in the box, since the largest part counts in both the
    weight and the size."""
    _setup("eq20", {"t": t, "n_max": n}, box)
    if n > min(box["q"], box["s"]):
        return TruncatedSeries.zero(box)
    return _f_series(n, t, box)[n]


def _f_series(n_max, t, box):
    """f_recurrence(n, t, box) for n = 0, 1, ..., n_max, from one run of
    the recurrence

        f_m = sum over k < m of q^m s^(m + k(t-1)) [m-k+t-1, t-1]_s f_k,
              divided by 1 - q^m s^(mt),

    kept as t running sums

        B_u(m) = sum over k < m of s^(k(t-1)) [m-k+u, u]_s f_k,  u < t,

    so that f_m = q^m s^m B_(t-1)(m) / (1 - q^m s^(mt)). The q-Pascal
    rule [n+u, u] = [n+u-1, u-1] + s^u [n+u-1, u] steps every sum from
    m to m + 1 with checked slice adds, and no Gaussian binomial is
    formed:

        C_u = B_u(m) + s^(m(t-1)) f_m,
        B_0(m+1) = C_0,  B_u(m+1) = B_(u-1)(m+1) + s^u C_u.

    f_m reads B_(t-1)(m) only up to q^(q-m) s^(s-m), and a step reads no
    cell past the window it writes, so the sums at step m are kept on
    that window alone. The window is at most s wide, and a step sets
    B_u = B_(u-1) on it for every u at least its width, so B_(t-1) is
    B_s there once t > s + 1: only the first min(t, s + 1) sums are kept,
    and the last is read. Each f_m is then one shift pass, the division by
    1 - q^m s^(mt). Every stored cell is an exact sum of partition
    counts, at most a coefficient of f_m, so CoefficientOverflow comes
    only where a coefficient of the result leaves int64.
    """
    q, s = box["q"], box["s"]
    f = [TruncatedSeries.constant(box, 1)]
    k = min(t, s + 1)
    sums = np.zeros((k, q + 1, s + 1), dtype=np.int64)  # B_0, ..., B_(k-1)
    for m in range(1, n_max + 1):
        # step every B_u from m - 1 to m on the window f_m reads
        window = sums[:, :max(q + 1 - m, 0), :max(s + 1 - m, 0)]
        rows, width = window.shape[1:]
        e = min((m - 1) * (t - 1), width)
        window[:, :, e:] = qs._sum(window[:, :, e:],
                                   f[m - 1].coeffs[:rows, :width - e])
        for u in range(1, k):
            e = min(u, width)
            low, high = window[u - 1], window[u]
            high[:, e:] = qs._sum(low[:, e:], high[:, :width - e])
            high[:, :e] = low[:, :e]
        g = TruncatedSeries.zero(box)
        g.coeffs[m:, m:] = window[k - 1]
        qs._divide(g.coeffs[m:, m:], g.variables,
                   [({"q": m, "s": m * t}, {}, 1)])
        f.append(g)
    return f


def verify_recurrence(t, n_max, box):
    """The largest-part recurrence reproduces direct enumeration for
    every largest part up to n_max: one run of the recurrence against
    the slices of one (weight, first, size) histogram. Both run only to
    the largest part top = min(n_max, q, s): past it f_n and the slice
    are zero in the box, and they count as checked zero cells."""
    q, s = box["q"], box["s"]
    top = min(n_max, q, s)
    arr = partition_histogram(("weight", "first", "size"), (q, top, s),
                              t=t, r=1)
    volume = _volume(box)
    for n, rhs in enumerate(_f_series(top, t, box)):
        found = _series_mismatch(_series_from_hist(box, arr[:, n, :]), rhs)
        if found:
            found["monomial"]["n"] = n
            return (n + 1) * volume, found
    return (n_max + 1) * volume, None


def verify_functional_equation(t, box, perturb=None):
    """The three-variable generating series is fixed by one application
    of its scaling relation.

    F in s, q, z (size, row-t weight, largest part) equals the inverse
    of a t-term product times F with z replaced by s^t q z. The
    substitution only raises exponents, so the box stays exact: it sends
    cell (a, c, b) of the (weight, first, size) histogram to
    (a + c, c, b + t c), so the substituted side is a gather, each cell
    reading the one at (a - c, c, b - t c) where that lies in the box.
    Past the s bound every term with z >= 1 leaves the box, so t is taken
    at most s + 1 and no exponent past the box is formed.
    """
    big_f = _histogram(box, ("weight", "first", "size"), t=t)
    t = min(t, box["s"] + 1)
    a, c, b = np.ogrid[:box["q"] + 1, :box["z"] + 1, :box["s"] + 1]
    # the clips keep every index valid, and the mask drops what they moved
    gathered = np.where((a >= c) & (b >= t * c), big_f.coeffs[
        np.clip(a - c, 0, None), c, np.clip(b - t * c, 0, None)], 0)
    qs._divide(gathered, big_f.variables, [({"s": 1, "q": 1, "z": 1},
                                            {"s": 1}, t)])
    rhs = _series_from_hist(box, gathered)
    if perturb:
        _perturb(rhs, perturb)
    return _volume(box), _series_mismatch(big_f, rhs)


# ---------------------------------------------------------------------------
# hook-count readouts
# ---------------------------------------------------------------------------

def _hook_map_readouts(m_max, size_max):
    """Run every partition of size <= size_max, in ranges of columns that
    may span sizes, through the array hook map at m = 2..m_max, and check
    that no two odd-part partitions of one size share a base-2 image that
    is a partition, and that every image sums to its size.

    Returns how many checks a partition-by-partition walk would make and
    its first failure: the collision test of each size in turn, then the
    part sums, m by m. A collision is reported from collision_search.

    At every base m at least a partition's first part each part is one
    cell, so its image at m is its image at m - 1 when its first part is
    below m: base 2 maps every column and a base m above it only the
    columns whose first part is at least m. A failure found at m is then
    the first at m, as the walk's would be, and the bases past the
    largest first part are counted, not run.
    """
    visited = 0
    wrong = None  # the first bad part sum: (m, index in the walk, parts, sum)
    odd_images = []  # (sizes, images) of the odd-part columns at base 2
    parts, sizes = _parts(size_max, False)
    for lam, n in _column_chunks(size_max + 2, parts, sizes):
        for m in range(2, m_max + 1):
            cols = np.flatnonzero(lam[0] >= m) if m > 2 else np.arange(len(n))
            if not cols.size:
                break
            # base 2 maps every column, of up to size_max parts; a column
            # kept at base m has at most size_max - m + 1
            image, is_partition = generalized_hook_map_rows(
                lam[:size_max + 3 - m, cols], m)
            sums = image.sum(axis=0)
            off = np.flatnonzero(sums != n[cols])
            if off.size and (wrong is None or m < wrong[0]):
                i = int(cols[off[0]])
                wrong = (m, visited + i, lam[:, i], int(sums[off[0]]))
            if m == 2:
                # a part is even iff its low bit is 0, and 0 is no part
                even = ((lam & 1) == 0) & (lam > 0)
                keep = ~even.any(axis=0) & is_partition
                odd_images.append((n[keep], image[:, keep]))
        visited += len(n)
    # one row per odd-part image, led by its size: a repeated row is a
    # collision, and the sorted distinct rows put the smallest size first
    top = max(len(image) for _, image in odd_images)
    keyed = np.concatenate(
        [np.column_stack([sizes, np.pad(image.T, ((0, 0),
                                                  (0, top - len(image))))])
         for sizes, image in odd_images])
    rows, counts = _key_sums(keyed)
    if (counts > 1).any():
        n = int(rows[np.argmax(counts > 1), 0])
        return n + 1, _mismatch(
            {"check": f"collision_2_{n}"},
            [list(g.image) for g in collision_search(2, n)], [])
    if wrong is None:
        return size_max + 1 + (m_max - 1) * visited, None
    m, index, lam, got = wrong
    lam = np.trim_zeros(lam, "b").tolist()
    return (size_max + 1 + (m - 2) * visited + index + 1,
            _mismatch({"check": f"part_sum_{m}"}, [lam, got],
                      [lam, sum(lam)]))


def verify_furtherwork(m_max, size_max):
    """Known behavior of the diagonal hook counts on modular diagrams.

    Two distinct 3-modular diagrams share the image (5, 4, 3, 1); the
    collision search finds them at size 13 and finds nothing at base 2;
    and the emitted parts always sum to the decoded size.
    """
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
    return checked, mismatch


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
    the box flags follow from the box. caps holds the largest value of a
    parameter that has one, and lowest the smallest value of a parameter
    where it is not _LOWEST's. A colored entry's box variable z stands for
    z1..zt.

    A series identity has an enumeration side lhs and a closed-form side
    rhs, each called with (params, box). Any other entry names its
    dedicated verifier, a module global looked up at call time and called
    with the parameters (and the box) as keywords; it returns how many
    cases it checked and its first mismatch, or None.
    """

    id: str
    params: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    caps: dict = field(default_factory=dict)
    lowest: dict = field(default_factory=dict)
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

# The caps: at one step past each, a run took over 10 s or its arrays
# outgrew memory (2 cores, 8 GB, Python 3.11, numpy 2.4).
# - A check over a whole domain, and table1's walk, takes sizes up to its
#   cap; its time and memory grow with the number of partitions, and at
#   the size 2 above it took over 10 s (thm7 at t = 2, r = 1, table1 at
#   94 in 13.5 s and 238 MB). furtherwork's worst case is m_max at the
#   size: 44 took 5.8-7.6 s and 53 MB, 45 7.1-10.1 s.
# - thm7 takes t up to its cap; the number of colour classes, and with it
#   time and memory, grows with t, and at t = 9 the run took over 10 s
#   (at r = 1 and its size cap).
# - thm6's counts leave int64 past n_max = 467 at t = 1, and sooner at
#   any larger t, where the run stops at once. Its time is linear in t at
#   the n_max whose counts still fit, 5 up to t = 70,000 (6 leaves int64
#   at 50,000): in three runs each, n_max = 5 took 6.5-9.5 s at t =
#   60,000 and 9.3-12.2 s at 70,000, and n_max = 4 5.4 s at 60,000.
# - cor11's histogram holds (k_max + 1)^2 (n_max + 1) counts, so its caps
#   bound memory: at both caps the run stops on an int64 overflow after
#   2.8 s and 773 MB. Its time grows with n_max at the small k_max whose
#   counts still fit: n_max = 10,000 took 8.9 s (k_max 6), 20,000 27 s
#   (k_max 4).
# - thm8.1's sides take time linear in t and in r. At t = 60,000 its
#   slowest box with q, z <= 10 (q 10, z 3) took 11.5 s, and at r =
#   100,000 its slowest (z 4; z >= 5 overflows int64 at once) up to
#   10.6 s.
# - thm8.2's arrays grow about 5x with each step of t at its default box:
#   t = 8 took 2.2 s and 496 MB, t = 9 13.3 s and 2.3 GB, and t = 10
#   would need about 11 GB.
# The lowest values past _LOWEST's: at t = 1 cor10's closed form is a
# constant-ratio infinite product and its count has no bound on the
# length, and cor11's complement weight needs t >= 2 and its restricted
# colour sizes r >= 2.
CATALOG = (
    Entry("schmidt", {"n_max": 15}, {"n": "n_max"}, full={"n_max": 22},
          verifier="verify_schmidt"),
    Entry("prop1", {"n_max": 25}, {"n": "n_max"}, {"n_max": 104},
          full={"n_max": 30}, verifier="verify_euler_refinement"),
    Entry("cor2", {"n_max": 15}, {"n": "n_max"}, full={"n_max": 22},
          verifier="verify_schmidt_refinement"),
    Entry("thm3.1", box={"q": 12, "z": 24}, full={"box": {"q": 18, "z": 36}},
          lhs=lambda p, box: _histogram(box, ("weight", "size"), t=2,
                                        distinct=True),
          rhs=lambda p, box: _quotient(
              box, [({"q": 1, "z": 1}, {"q": 1, "z": 2}, INFINITY)])),
    Entry("thm3.2", box=_QZ12, full=_FULL18,
          lhs=lambda p, box: _histogram(box, ("weight", "size"), t=2, r=2,
                                        distinct=True),
          rhs=lambda p, box: _quotient(
              box, [({"z": 1}, {"q": 1, "z": 2}, INFINITY)])),
    Entry("eq3", box={"q": 8, "z": 16}, full={"box": {"q": 12, "z": 24}},
          lhs=_size_and_excess,
          rhs=lambda p, box: _quotient(
              box, [({"q": 1, "z": 1}, {"q": 1, "z": 2}, INFINITY)])),
    # theorem 4's sums over heads: each term(n) gives E_n, the factors
    # D_n adds to D_(n-1): (1 - zq^n)^4 for D_n = (zq; q)_n^4, and
    # (1 - zq^n)^2 (1 - zq^(n-1))^2 for D_n = (zq; q)_n^2 (zq; q)_(n-1)^2
    Entry("thm4.1", box=_QZ12, full=_FULL18,
          lhs=lambda p, box: _histogram(box, ("weight", "first"), t=4,
                                        distinct=True, length_mod=(4, (0, 3))),
          rhs=lambda p, box: _head_sum(box, 1, lambda n: (
              {"q": n * (2 * n + 1), "z": 4 * n - 1},
              [({"q": n, "z": 1}, {}, 1)] * 4))),
    Entry("thm4.2", box=_QZ12, full=_FULL18,
          lhs=lambda p, box: _histogram(box, ("weight", "first"), t=4,
                                        distinct=True, length_mod=(4, (1, 2))),
          rhs=lambda p, box: _head_sum(box, 0, lambda n: (
              {"q": n * (2 * n - 1), "z": 4 * n - 3},
              [({"q": n, "z": 1}, {}, 1)] * 2
              + [({"q": n - 1, "z": 1}, {}, 1)] * (2 if n > 1 else 0)))),
    Entry("thm5.1", box=_QZ12, full=_FULL18,
          lhs=lambda p, box: _histogram(box, ("weight", "first"), t=2),
          rhs=lambda p, box: _quotient(box, [_zq(), _zq()])),
    Entry("thm5.2", box=_QZ12, full=_FULL18,
          lhs=lambda p, box: _histogram(box, ("weight", "first"), t=2, r=2),
          rhs=lambda p, box: _quotient(box, [({"z": 1}, {}, 1), _zq(), _zq()])),
    Entry("thm6", {"t": 2, "n_max": 8}, {"t": "t", "n": "n_max"},
          {"t": 60_000, "n_max": 467},
          full={"n_max": 12}, grid={"t": _UP_TO_3}, verifier="verify_li_yee"),
    Entry("thm7", {"t": 2, "r": 1, "size_max": 18},
          {"t": "t", "r": "r", "n": "size_max"}, {"t": 8, "size_max": 58},
          full={"size_max": 24}, grid={"t": _UP_TO_3, "r": _UP_TO_3},
          verifier="verify_color_conjugate"),
    Entry("thm8.1", {"t": 2, "r": 1}, _TR, {"t": 50_000, "r": 90_000},
          box={"q": 10, "z": 10}, full={"box": {"q": 15, "z": 15}},
          grid={"t": (1, 2, 3, 4), "r": (1, 2, 3, 4)},
          lhs=lambda p, box: _histogram(box, ("weight", "first"), t=p["t"],
                                        r=p["r"]),
          rhs=lambda p, box: _quotient(
              box, [({"z": 1}, {}, p["r"] - 1)] + [_zq()] * p["t"])),
    Entry("thm8.2", {"t": 2}, _T, {"t": 8}, box={"q": 8, "z": 4}, colored=True,
          full={"box": {"q": 12, "z": 6}}, grid={"t": _UP_TO_3},
          lhs=lambda p, box: _histogram(box, ("weight", "profile"), t=p["t"]),
          rhs=lambda p, box: _quotient(
              box, [({"q": 1, z: 1}, {"q": 1}, INFINITY)
                    for z in _colors(p["t"])])),
    # the product over n >= 0 of 1 / (s^(nt+r) q^(n+1) z; s)_t; the
    # factors whose base leaves the q or s bound are 1 in the box, and the
    # others are made as the pass reaches them, after the box's array
    Entry("thm9", {"t": 2, "r": 1}, _TR, box={"q": 10, "z": 10, "s": 10},
          full={"box": {"q": 12, "z": 12, "s": 12}},
          grid={"t": _UP_TO_3, "r": _UP_TO_3},
          lhs=lambda p, box: _histogram(box, ("weight", "first", "size"),
                                        t=p["t"], r=p["r"]),
          rhs=lambda p, box: _quotient(box, itertools.chain(
              [({"s": 1, "z": 1}, {"s": 1}, p["r"] - 1)],
              (({"s": n * p["t"] + p["r"], "q": n + 1, "z": 1}, {"s": 1},
                p["t"]) for n in range(
                    min(box["q"], (box["s"] - p["r"]) // p["t"] + 1)))))),
    Entry("cor10", {"t": 2, "r": 1}, _TR, lowest={"t": 2},
          box={"q": 8, "z": 8}, full={"box": {"q": 12, "z": 12}},
          grid={"t": (2, 3), "r": _UP_TO_3},
          lhs=lambda p, box: _histogram(box, ("anti", "first"), t=p["t"],
                                        r=p["r"]),
          rhs=lambda p, box: _two_colored(p["t"], p["r"], box)),
    Entry("cor11", {"t": 2, "r": 2, "k_max": 6, "n_max": 10},
          {"t": "t", "r": "r", "k": "k_max", "n": "n_max"},
          {"k_max": 150, "n_max": 2000}, lowest={"t": 2, "r": 2},
          full={"k_max": 9, "n_max": 15}, grid={"t": (2, 3), "r": (2, 3)},
          verifier="verify_opposite_schmidt"),
    Entry("eq14", {"n": 4}, {"n": "n"}, box={"q": 10, "z": 10},
          full={"box": {"q": 15, "z": 15}, "grid": {"n": range(7)}},
          grid={"n": range(5)},
          lhs=lambda p, box: _histogram(box, ("weight", "first"), t=2,
                                        max_len=2 * p["n"]),
          rhs=lambda p, box: _quotient(box, [_zq(p["n"])] * 2)),
    Entry("eq20", {"t": 2, "n_max": 6}, {"t": "t", "n": "n_max"},
          box={"q": 8, "s": 12}, full={"n_max": 9, "box": {"q": 12, "s": 18}},
          verifier="verify_recurrence"),
    Entry("eq24", {"t": 2}, _T, box={"q": 6, "s": 10, "z": 4},
          full={"box": {"q": 9, "s": 15, "z": 6}},
          verifier="verify_functional_equation"),
    Entry("table1", {"n": 7}, {"n": "n"}, {"n": 92}, verifier="verify_table"),
    Entry("furtherwork", {"m_max": 4, "size_max": 20},
          {"m": "m_max", "n": "size_max"}, {"size_max": 44},
          full={"size_max": 24}, verifier="verify_furtherwork"),
)

_BY_ID = {entry.id: entry for entry in CATALOG}
THEOREM_IDS = tuple(_BY_ID)
IDENTITY_IDS = tuple(entry.id for entry in CATALOG if entry.lhs is not None)


def _entry(ident):
    try:
        return _BY_ID[ident]
    except KeyError:
        raise VerifyError(f"unknown identity id: {ident}") from None


def _entry_box(entry, params, box):
    """A copy of box, with a colored entry's z spelled out as z1..zt."""
    if box is None:
        return None
    out = dict(box)
    if entry.colored:
        out.update(dict.fromkeys(_colors(params["t"]), out.pop("z")))
    return out


def resolve_arguments(ident, box=None, **flags):
    """Parameters and box of one check from its CLI flags: each given flag
    value (a key of some entry's flags; None means not given) sets the
    parameter the flag names, over the entry's defaults, and each given
    box bound replaces that bound of the default box. A bound for z sets
    every z_i of a colored entry. VerifyError for a flag or a box
    variable the entry does not take; _setup checks the values."""
    entry = _entry(ident)
    params = {}
    for flag, value in flags.items():
        if value is not None:
            if flag not in entry.flags:
                raise VerifyError(f"{ident} takes no --{flag}")
            params[entry.flags[flag]] = value
    _, params, out = _setup(ident, params)
    for var, bound in (box or {}).items():
        hit = [v for v in out or () if var in (v, v.rstrip("0123456789"))]
        if not hit:
            raise VerifyError(f"{ident} has no box variable {var}")
        out.update(dict.fromkeys(hit, bound))
    return params, out


def run_verifier(ident, box=None, perturb=None, **flags):
    """Run one catalog check by id and by its CLI flags, its defaults
    filled in; a partial box replaces only the bounds it names."""
    params, box = resolve_arguments(ident, box, **flags)
    return verify_identity(ident, params, box, perturb)


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
            tasks.append(partial(verify_identity, entry.id, point,
                                 _entry_box(entry, point, box)))
    return tasks


def run_suite(level="quick"):
    """Run every catalog check at the given level and collect reports."""
    return SuiteReport(level, [task() for task in _suite_tasks(level)])
