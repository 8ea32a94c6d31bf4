"""Mechanical verification of the package's partition identities.

Every check compares two independently computed objects: an enumeration
oracle (direct iteration over partitions, or the budgeted histogram
kernel) and a closed form (truncated products, inverses, q-binomials) or
a frozen reference. The two sides share no identity-specific logic, so
agreement across a whole coefficient box is strong evidence, and any
disagreement is pinned to its graded-lex-first monomial.

Identity ids form a fixed catalog (THEOREM_IDS); the series-vs-series
subset is IDENTITY_IDS and runs through verify_identity. Each dedicated
verifier documents why its enumeration caps lose nothing inside the box.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import series as qs
from ._accel import partition_histogram
from .bijections import (
    bessenrodt,
    bessenrodt_inverse,
    collision_search,
    color_conjugate,
    color_conjugate_inverse,
    generalized_hook_map,
)
from .colored import enumerate_colored
from .partitions import (
    ModularDiagram,
    Partition,
    color_profile,
    enumerate_partitions,
    partition_numbers,
    schmidt_weight,
    to_modular,
)
from .series import INFINITY, TruncatedSeries

THEOREM_IDS = (
    "schmidt",
    "prop1",
    "cor2",
    "thm3.1",
    "thm3.2",
    "eq3",
    "thm4.1",
    "thm4.2",
    "thm5.1",
    "thm5.2",
    "thm6",
    "thm7",
    "thm8.1",
    "thm8.2",
    "thm9",
    "cor10",
    "cor11",
    "eq14",
    "eq20",
    "eq24",
    "table1",
    "furtherwork",
)

IDENTITY_IDS = (
    "thm3.1",
    "thm3.2",
    "eq3",
    "thm4.1",
    "thm4.2",
    "thm5.1",
    "thm5.2",
    "thm8.1",
    "thm8.2",
    "thm9",
    "cor10",
    "eq14",
)


class VerifyError(ValueError):
    """A verification request that cannot be set up."""


class UnboundedBox(VerifyError):
    """No finite enumeration covers the requested box."""


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


def _series_mismatch(lhs, rhs):
    found = qs.first_mismatch(lhs, rhs)
    if found is None:
        return None
    exps, a, b = found
    return {"monomial": dict(exps), "lhs": int(a), "rhs": int(b)}


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


def _tr(ident, params):
    t = int(params.get("t", 1))
    r = int(params.get("r", 1))
    if t < 1 or r < 1:
        raise VerifyError(f"{ident} needs t >= 1 and r >= 1")
    return t, r


# ---------------------------------------------------------------------------
# series identities: enumeration side and closed-form side
# ---------------------------------------------------------------------------

def lhs_series(ident, params, box):
    """Enumeration side of a series identity.

    Built from partition iteration or the histogram kernel only. Each
    branch notes why its caps make the enumeration complete inside the
    box.
    """
    if ident == "thm3.1":
        q, z = _need(ident, box, "q", "z")
        # distinct parts, q = odd-index sum, z = size; the size cap z
        # bounds both largest part and length, and the odd-index sum
        # includes the largest part, so min(q, z) caps the parts.
        arr = partition_histogram(
            ("weight", "size"), (q, z), t=2, r=1,
            distinct=True, max_part=min(q, z), max_len=z,
        )
        return _series_from_hist(box, arr)

    if ident == "thm3.2":
        q, z = _need(ident, box, "q", "z")
        # distinct parts, q = even-index sum, z = size; the size cap
        # alone bounds largest part and length.
        arr = partition_histogram(
            ("weight", "size"), (q, z), t=2, r=2,
            distinct=True, max_part=z, max_len=z,
        )
        return _series_from_hist(box, arr)

    if ident == "eq3":
        q, z = _need(ident, box, "q", "z")
        # q = size n, z = 2n - length; everything of size <= q is
        # enumerated and oversized z exponents are dropped.
        terms = []
        for n in range(q + 1):
            for lam in enumerate_partitions(n):
                terms.append(({"q": n, "z": 2 * n - len(lam)}, 1))
        return TruncatedSeries.from_terms(box, terms)

    if ident in ("thm4.1", "thm4.2"):
        q, z = _need(ident, box, "q", "z")
        residues = (0, 3) if ident == "thm4.1" else (1, 2)
        # distinct parts filtered by length mod 4; q = sum over rows
        # 1, 5, 9, ..., z = largest part. Distinctness gives
        # length <= largest part, and row 1 is counted by q, so
        # min(q, z) caps parts and length both.
        cap = min(q, z)
        arr = partition_histogram(
            ("weight", "first"), (q, z), t=4, r=1,
            distinct=True, max_part=cap, max_len=cap,
            length_mod=(4, residues),
        )
        return _series_from_hist(box, arr)

    if ident == "thm5.1":
        q, z = _need(ident, box, "q", "z")
        # q = sum over rows 1, 3, 5, ...; a partition with 2q+1 rows has
        # q+1 counted rows, each >= 1, so length <= 2q; row 1 is counted.
        arr = partition_histogram(
            ("weight", "first"), (q, z), t=2, r=1,
            max_part=min(q, z), max_len=2 * q,
        )
        return _series_from_hist(box, arr)

    if ident == "thm5.2":
        q, z = _need(ident, box, "q", "z")
        # q = sum over rows 2, 4, ...; 2q+2 rows would force q+1 counted
        # rows, so length <= 2q+1; z caps the largest part.
        arr = partition_histogram(
            ("weight", "first"), (q, z), t=2, r=2,
            max_part=z, max_len=2 * q + 1,
        )
        return _series_from_hist(box, arr)

    if ident == "thm8.1":
        t, r = _tr(ident, params)
        q, z = _need(ident, box, "q", "z")
        # q = sum over rows r, t+r, ...; t*q + r rows would force q+1
        # counted rows, so length <= t*q + r - 1. When r == 1 the largest
        # part is itself counted by q.
        cap = min(q, z) if r == 1 else z
        arr = partition_histogram(
            ("weight", "first"), (q, z), t=t, r=r,
            max_part=cap, max_len=t * q + r - 1,
        )
        return _series_from_hist(box, arr)

    if ident == "thm8.2":
        t, _ = _tr(ident, params)
        names = ["q"] + [f"z{i}" for i in range(1, t + 1)]
        bounds = _need(ident, box, *names)
        q = bounds[0]
        # every block of t consecutive rows is dominated by its first
        # row, which q counts, so size <= t*q for any in-box term;
        # oversized color exponents are dropped.
        terms = []
        for n in range(t * q + 1):
            for lam in enumerate_partitions(n):
                w = schmidt_weight(lam, t, 1)
                if w > q:
                    continue
                exps = {"q": w}
                for i, c in enumerate(color_profile(lam, t, 1), start=1):
                    exps[f"z{i}"] = c
                terms.append((exps, 1))
        return TruncatedSeries.from_terms(box, terms)

    if ident == "thm9":
        t, r = _tr(ident, params)
        q, z, s = _need(ident, box, "q", "z", "s")
        # s tracks the size exactly, so enumerating sizes <= s is
        # complete; oversized q and z exponents are dropped.
        terms = []
        for n in range(s + 1):
            for lam in enumerate_partitions(n):
                terms.append((
                    {"q": schmidt_weight(lam, t, r), "z": lam.part(1), "s": n},
                    1,
                ))
        return TruncatedSeries.from_terms(box, terms)

    if ident == "cor10":
        t, r = _tr(ident, params)
        if t < 2:
            raise UnboundedBox(
                "cor10 with t == 1 counts every row, the complement "
                "statistic is 0 on all partitions, and no finite length "
                "cap covers the box"
            )
        q, z = _need(ident, box, "q", "z")
        # q = size minus the sum over rows r, t+r, ...; uncounted rows
        # number at most q, and each counted row after the first forces
        # t-1 uncounted rows below the previous one, so counted rows
        # number at most ceil(q/(t-1)) + 1 <= ceil(q/(t-1)) + r.
        max_len = q + -(-q // (t - 1)) + r
        arr = partition_histogram(
            ("anti", "first"), (q, z), t=t, r=r,
            max_part=z, max_len=max_len,
        )
        return _series_from_hist(box, arr)

    if ident == "eq14":
        n = int(params["n"])
        if n < 0:
            raise VerifyError("eq14 needs n >= 0")
        q, z = _need(ident, box, "q", "z")
        # partitions with at most 2n rows; q counts the odd-index sum,
        # which includes the largest part.
        arr = partition_histogram(
            ("weight", "first"), (q, z), t=2, r=1,
            max_part=min(q, z), max_len=2 * n,
        )
        return _series_from_hist(box, arr)

    if ident in THEOREM_IDS:
        raise VerifyError(f"{ident} is not a series identity; "
                          "use its dedicated verifier")
    raise VerifyError(f"unknown identity id: {ident}")


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


def rhs_series(ident, params, box):
    """Closed-form side of a series identity, built from series
    primitives only."""
    if ident in ("thm3.1", "eq3"):
        _need(ident, box, "q", "z")
        return _quotient(box, [({"q": 1, "z": 1}, {"q": 1, "z": 2}, INFINITY)])

    if ident == "thm3.2":
        _need(ident, box, "q", "z")
        return _quotient(box, [({"z": 1}, {"q": 1, "z": 2}, INFINITY)])

    if ident == "thm4.1":
        q, z = _need(ident, box, "q", "z")
        acc = TruncatedSeries.constant(box, 1)
        n = 1
        while True:
            qe, ze = n * (2 * n + 1), 4 * n - 1
            if qe > q or ze > z:
                break
            acc = acc + _quotient(box, [_zq(n)] * 4, {"q": qe, "z": ze})
            n += 1
        return acc

    if ident == "thm4.2":
        q, z = _need(ident, box, "q", "z")
        acc = TruncatedSeries.zero(box)
        n = 1
        while True:
            qe, ze = n * (2 * n - 1), 4 * n - 3
            if qe > q or ze > z:
                break
            acc = acc + _quotient(box, [_zq(n)] * 2 + [_zq(n - 1)] * 2,
                                  {"q": qe, "z": ze})
            n += 1
        return acc

    if ident == "thm5.1":
        _need(ident, box, "q", "z")
        return _quotient(box, [_zq(), _zq()])

    if ident == "thm5.2":
        _need(ident, box, "q", "z")
        return _quotient(box, [({"z": 1}, {}, 1), _zq(), _zq()])

    if ident == "thm8.1":
        t, r = _tr(ident, params)
        _need(ident, box, "q", "z")
        return _quotient(box, [({"z": 1}, {}, r - 1)] + [_zq()] * t)

    if ident == "thm8.2":
        t, _ = _tr(ident, params)
        names = ["q"] + [f"z{i}" for i in range(1, t + 1)]
        _need(ident, box, *names)
        return _quotient(box, [({"q": 1, f"z{i}": 1}, {"q": 1}, INFINITY)
                               for i in range(1, t + 1)])

    if ident == "thm9":
        t, r = _tr(ident, params)
        q, z, s = _need(ident, box, "q", "z", "s")
        factors = [({"s": 1, "z": 1}, {"s": 1}, r - 1)]
        n = 0
        while n * t + r <= s and n + 1 <= q and z >= 1:
            factors.append(({"s": n * t + r, "q": n + 1, "z": 1}, {"s": 1}, t))
            n += 1
        return _quotient(box, factors)

    if ident == "cor10":
        t, r = _tr(ident, params)
        if t < 2:
            raise DegenerateParams(
                "cor10 with t == 1 has a constant-ratio infinite product"
            )
        _need(ident, box, "q", "z")
        return _quotient(box, [
            _zq(), ({"q": r - 1, "z": 1}, {"q": t - 1}, INFINITY)])

    if ident == "eq14":
        n = int(params["n"])
        _need(ident, box, "q", "z")
        return _quotient(box, [_zq(n)] * 2)

    if ident in THEOREM_IDS:
        raise VerifyError(f"{ident} is not a series identity; "
                          "use its dedicated verifier")
    raise VerifyError(f"unknown identity id: {ident}")


_ACCEPTANCE_BOXES = {
    "thm3.1": {"q": 12, "z": 24},
    "thm3.2": {"q": 12, "z": 12},
    "eq3": {"q": 8, "z": 16},
    "thm4.1": {"q": 12, "z": 12},
    "thm4.2": {"q": 12, "z": 12},
    "thm5.1": {"q": 12, "z": 12},
    "thm5.2": {"q": 12, "z": 12},
    "thm8.1": {"q": 10, "z": 10},
    "thm9": {"q": 10, "z": 10, "s": 10},
    "cor10": {"q": 8, "z": 8},
    "eq14": {"q": 10, "z": 10},
}

_DEFAULT_PARAMS = {
    "thm8.1": {"t": 2, "r": 1},
    "thm8.2": {"t": 2},
    "thm9": {"t": 2, "r": 1},
    "cor10": {"t": 2, "r": 1},
    "eq14": {"n": 4},
}


def identity_defaults(ident):
    """Default parameters for a series identity (may be empty)."""
    return dict(_DEFAULT_PARAMS.get(ident, {}))


def default_box(ident, params=None):
    """Default coefficient box for a series identity."""
    params = params or {}
    if ident == "thm8.2":
        t = int(params.get("t", 2))
        box = {"q": 8}
        for i in range(1, t + 1):
            box[f"z{i}"] = 4
        return box
    if ident in _ACCEPTANCE_BOXES:
        return dict(_ACCEPTANCE_BOXES[ident])
    raise VerifyError(f"{ident} has no default box")


def verify_identity(ident, params=None, box=None, perturb=None):
    """Compare the enumeration and closed-form sides of one identity.

    perturb, an exponent dict, adds 1 to that coefficient of the closed
    form before comparison; it exists to prove the machinery can fail.
    """
    params = {**_DEFAULT_PARAMS.get(ident, {}), **(params or {})}
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
    never enumerates. Distinct parts make length <= largest part, and
    the odd-index sum includes the largest part, so n_max caps both.
    """
    start = time.perf_counter()
    hist = partition_histogram(
        ("weight",), (n_max,), t=2, r=1,
        distinct=True, max_part=n_max, max_len=n_max,
    )
    mismatch = None
    for n, want in enumerate(partition_numbers(n_max)):
        got = int(hist[n])
        if got != want:
            mismatch = {"monomial": {"n": n}, "lhs": got, "rhs": want}
            break
    return _finish("schmidt", {"n_max": n_max}, {}, n_max + 1, mismatch, start)


def verify_schmidt_refinement(n_max=15):
    """Partitions of n with given length match distinct partitions with
    odd-index sum n and complementary size 2n - length."""
    start = time.perf_counter()
    plain = partition_histogram(
        ("size", "length"), (n_max, n_max), max_part=n_max, max_len=n_max
    )
    # any distinct partition with odd-index sum n <= n_max has size
    # at most 2n, largest part at most n, length at most largest part
    dist = partition_histogram(
        ("weight", "size"), (n_max, 2 * n_max), t=2, r=1,
        distinct=True, max_part=n_max, max_len=n_max,
    )
    checked = 0
    mismatch = None
    for n in range(n_max + 1):
        for ell in range(n + 1):
            got = int(plain[n][ell])
            want = int(dist[n][2 * n - ell])
            checked += 1
            if got != want:
                mismatch = {
                    "monomial": {"n": n, "length": ell},
                    "lhs": got,
                    "rhs": want,
                }
                break
        if mismatch:
            break
    return _finish("cor2", {"n_max": n_max}, {}, checked, mismatch, start)


def verify_euler_refinement(n_max=25):
    """Pulling a distinct partition back to odd parts fixes its length
    and largest part.

    For distinct lam of n with largest part k and odd-index sum m, the
    odd-parts preimage mu has length 2m - n, and when lam is nonempty
    its largest part is 1 + 2k + 2n - 4m.
    """
    start = time.perf_counter()
    checked = 0
    mismatch = None
    for n in range(n_max + 1):
        for lam in enumerate_partitions(n, distinct=True):
            mu = bessenrodt_inverse(lam)
            m = schmidt_weight(lam, 2, 1)
            checked += 1
            got = [mu.length(), mu.part(1)]
            want = [2 * m - n, 1 + 2 * lam.part(1) + 2 * n - 4 * m if lam else 0]
            if got != want:
                mismatch = {
                    "monomial": {"partition": list(lam)},
                    "lhs": got,
                    "rhs": want,
                }
                break
        if mismatch:
            break
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
    start = time.perf_counter()
    checked = 0
    mismatch = None
    rows = table_bessenrodt(n)
    for w, delta, omega in rows:
        checked += 1
        got = [list(bessenrodt(omega)), omega.size(), schmidt_weight(delta, 2, 1)]
        want = [list(delta), n, w]
        if got != want:
            mismatch = {
                "monomial": {"partition": list(delta)},
                "lhs": got,
                "rhs": want,
            }
            break
    if mismatch is None and n == 7:
        checked += 1
        got = tuple((w, tuple(d), tuple(o)) for w, d, o in rows)
        if got != _TABLE_SEVEN:
            mismatch = {
                "monomial": {"table": n},
                "lhs": [[w, list(d), list(o)] for w, d, o in got],
                "rhs": [[w, list(d), list(o)] for w, d, o in _TABLE_SEVEN],
            }
    return _finish("table1", {"n": n}, {}, checked, mismatch, start)


def verify_li_yee(t, n_max=8):
    """Length classes of the row-t weight match greatest-multiplicity
    classes of colored partitions.

    Partitions with weight n classed by length (s-1)t + j correspond to
    t-colored partitions of n where some color appears s times and j is
    the largest such color. Weight n bounds the largest part by n and
    the length by t*n, since every t-th row is counted.
    """
    if t < 1:
        raise VerifyError("palette size t must be >= 1")
    start = time.perf_counter()
    arr = partition_histogram(
        ("weight", "length"), (n_max, t * n_max), t=t, r=1,
        max_part=n_max, max_len=t * n_max,
    )
    lhsc = {}
    for n in range(n_max + 1):
        for ell in range(1, t * n_max + 1):
            c = int(arr[n][ell])
            if c:
                s = (ell - 1) // t + 1
                j = ell - (s - 1) * t
                key = (n, s, j)
                lhsc[key] = lhsc.get(key, 0) + c
    rhsc = {}
    empties = 0
    for n in range(n_max + 1):
        for cp in enumerate_colored(n, t):
            counts = cp.color_counts()
            if not cp.entries:
                empties += 1
                continue
            s = max(counts)
            j = max(i for i, c in enumerate(counts, start=1) if c == s)
            key = (n, s, j)
            rhsc[key] = rhsc.get(key, 0) + 1
    checked = 1
    mismatch = None
    if int(arr[0][0]) != empties:
        mismatch = {
            "monomial": {"n": 0, "s": 0, "j": 0},
            "lhs": int(arr[0][0]),
            "rhs": empties,
        }
    for key in sorted(set(lhsc) | set(rhsc)):
        if mismatch:
            break
        checked += 1
        a, b = lhsc.get(key, 0), rhsc.get(key, 0)
        if a != b:
            n, s, j = key
            mismatch = {
                "monomial": {"n": n, "s": s, "j": j},
                "lhs": a,
                "rhs": b,
            }
    return _finish(
        "thm6", {"t": t, "n_max": n_max}, {}, checked, mismatch, start
    )


def _compositions(total, bins):
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, bins - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _colored_class_counts(t, n_max):
    """Counts of t-colored partitions keyed (length, size, color counts).

    Computed from plain shapes: each run of equal parts picks a color
    multiset independently, so the per-shape color-count distribution is
    a convolution of compositions, never an enumeration of colorings.
    """
    out = {}
    for n in range(n_max + 1):
        for shape in enumerate_partitions(n):
            runs = []
            prev, mult = 0, 0
            for p in list(shape) + [0]:
                if p == prev:
                    mult += 1
                else:
                    if mult:
                        runs.append(mult)
                    prev, mult = p, 1
            dist = {(0,) * t: 1}
            for mult in runs:
                nxt = {}
                for prof, cnt in dist.items():
                    for comp in _compositions(mult, t):
                        key = tuple(a + b for a, b in zip(prof, comp))
                        nxt[key] = nxt.get(key, 0) + cnt
                dist = nxt
            for prof, cnt in dist.items():
                key = (len(shape), n, prof)
                out[key] = out.get(key, 0) + cnt
    return out


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
    """
    if t < 1 or r < 1:
        raise VerifyError("thm7 needs t >= 1 and r >= 1")
    start = time.perf_counter()
    checked = 0
    mismatch = None
    lamc = {}
    for n in range(size_max + 1):
        for lam in enumerate_partitions(n):
            nu, mu = color_conjugate(lam, t, r)
            w = schmidt_weight(lam, t, r)
            prof = color_profile(lam, t, r)
            checked += 1
            got = [
                list(color_conjugate_inverse(nu, mu, t, r)),
                mu.length(),
                nu.part(1),
                int(nu.length() <= r - 1),
                mu.size(),
                list(mu.color_counts()),
            ]
            want = [
                list(lam),
                lam.part(r),
                lam.part(1) - lam.part(r),
                1,
                w,
                list(prof),
            ]
            if got != want:
                mismatch = {
                    "monomial": {"partition": list(lam), "t": t, "r": r},
                    "lhs": got,
                    "rhs": want,
                }
                break
            key = (n, lam.part(1), lam.part(r), w, prof)
            lamc[key] = lamc.get(key, 0) + 1
        if mismatch:
            break

    if mismatch is None:
        nu_by_size = {}
        for s_nu in range(size_max + 1):
            for nu in enumerate_partitions(s_nu, max_length=r - 1):
                nu_by_size.setdefault(s_nu, []).append(nu.part(1))
        pairc = {}
        for (k, n, prof), cnt in _colored_class_counts(t, size_max).items():
            wsum = sum(i * c for i, c in enumerate(prof, start=1))
            base = (r - 1) * k + t * (n - k) + wsum
            if base > size_max:
                continue
            for s_nu in range(size_max - base + 1):
                for f in nu_by_size.get(s_nu, ()):
                    key = (base + s_nu, f + k, k, n, prof)
                    pairc[key] = pairc.get(key, 0) + cnt
        for key in sorted(set(lamc) | set(pairc)):
            checked += 1
            a, b = lamc.get(key, 0), pairc.get(key, 0)
            if a != b:
                size, k1, kr, w, prof = key
                mismatch = {
                    "monomial": {
                        "size": size,
                        "first": k1,
                        "row_r": kr,
                        "weight": w,
                        "profile": list(prof),
                    },
                    "lhs": a,
                    "rhs": b,
                }
                break
    return _finish(
        "thm7", {"t": t, "r": r, "size_max": size_max}, {},
        checked, mismatch, start,
    )


def verify_opposite_schmidt(t, r, k_max=6, n_max=10):
    """Partitions classed by largest part and complement weight match
    two-colored partitions with restricted second-color sizes.

    Partitions with largest part k whose size minus the sum over rows
    r, t+r, ... equals n correspond to 2-colored partitions of n with
    k parts where color 2 appears only on sizes r-1, r-1 + (t-1), ....
    The length cap mirrors the cor10 argument.
    """
    if t < 2:
        raise DegenerateParams("the complement weight needs t >= 2")
    if r < 2:
        raise DegenerateParams("the restricted color sizes need r >= 2")
    start = time.perf_counter()
    max_len = n_max + -(-n_max // (t - 1)) + r
    arr = partition_histogram(
        ("anti", "first"), (n_max, k_max), t=t, r=r,
        max_part=k_max, max_len=max_len,
    )
    allowed = set(range(r - 1, n_max + 1, t - 1))
    rhs = [[0] * (k_max + 1) for _ in range(n_max + 1)]
    for n in range(n_max + 1):
        for cp in enumerate_colored(n, 2):
            if cp.length() > k_max:
                continue
            if any(c == 2 and p not in allowed for p, c in cp.entries):
                continue
            rhs[n][cp.length()] += 1
    checked = 0
    mismatch = None
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            checked += 1
            a, b = int(arr[n][k]), rhs[n][k]
            if a != b:
                mismatch = {
                    "monomial": {"n": n, "first": k},
                    "lhs": a,
                    "rhs": b,
                }
                break
        if mismatch:
            break
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
            gb = qs.q_binomial(m - k + t - 1, t - 1, "s", box)
            acc = acc + gb * f[k] * TruncatedSeries.monomial(box, head)
        f.append(qs.divide_pochhammer(acc, {"q": m, "s": m * t}, {}, 1))
    return f[n]


def _f_enumeration(n, t, box):
    # s tracks the size exactly, so sizes <= the s bound are complete
    s_cap = int(box["s"])
    terms = []
    for m in range(n, s_cap + 1):
        for lam in enumerate_partitions(m, max_part=n):
            if lam.part(1) == n:
                terms.append(({"q": schmidt_weight(lam, t, 1), "s": m}, 1))
    return TruncatedSeries.from_terms(box, terms)


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
    s_cap = int(box["s"])
    terms = []
    for m in range(s_cap + 1):
        for lam in enumerate_partitions(m):
            terms.append((
                {"s": m, "q": schmidt_weight(lam, t, 1), "z": lam.part(1)},
                1,
            ))
    big_f = TruncatedSeries.from_terms(box, terms)
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

def verify_furtherwork(m_max=4, size_max=20):
    """Known behavior of the diagonal hook counts on modular diagrams.

    Two distinct 3-modular diagrams share the image (5, 4, 3, 1); the
    collision search finds them at size 13 and finds nothing at base 2;
    and the emitted parts always sum to the decoded size.
    """
    start = time.perf_counter()
    checked = 0
    mismatch = None

    def fail(label, got, want):
        return {"monomial": {"check": label}, "lhs": got, "rhs": want}

    twin_a = ModularDiagram(3, ((3, 2), (2, 1), (1, 1)))
    twin_b = ModularDiagram(3, ((3, 1), (2, 1), (1, 2)))
    for name, diagram in (("twin_a", twin_a), ("twin_b", twin_b)):
        image = generalized_hook_map(diagram)
        checked += 1
        if tuple(image.parts) != (5, 4, 3, 1) or not image.is_partition:
            mismatch = fail(name, list(image.parts), [5, 4, 3, 1])
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
            mismatch = fail(
                "collision_3_13",
                [[list(g.image), [list(p) for p in g.preimages]]
                 for g in groups],
                [[[5, 4, 3, 1], [[8, 4, 1], [7, 4, 2]]]],
            )

    if mismatch is None:
        for n in range(size_max + 1):
            checked += 1
            groups = collision_search(2, n)
            if groups:
                mismatch = fail(
                    f"collision_2_{n}",
                    [list(g.image) for g in groups],
                    [],
                )
                break

    if mismatch is None:
        for m in range(2, m_max + 1):
            for n in range(size_max + 1):
                for lam in enumerate_partitions(n):
                    checked += 1
                    image = generalized_hook_map(to_modular(lam, m))
                    if sum(image.parts) != n:
                        mismatch = fail(
                            f"part_sum_{m}",
                            [list(lam), sum(image.parts)],
                            [list(lam), n],
                        )
                        break
                if mismatch:
                    break
            if mismatch:
                break
    return _finish(
        "furtherwork", {"m_max": m_max, "size_max": size_max}, {},
        checked, mismatch, start,
    )


# ---------------------------------------------------------------------------
# dispatch and suites
# ---------------------------------------------------------------------------

def run_verifier(ident, t=None, r=None, n=None, k=None, box=None,
                 perturb=None, m=None):
    """Run one catalog check by id, filling in default parameters."""
    if ident in IDENTITY_IDS:
        params = {}
        if t is not None:
            params["t"] = t
        if r is not None:
            params["r"] = r
        if ident == "eq14" and n is not None:
            params["n"] = n
        return verify_identity(ident, params, box, perturb)
    if ident == "schmidt":
        return verify_schmidt(15 if n is None else n)
    if ident == "prop1":
        return verify_euler_refinement(25 if n is None else n)
    if ident == "cor2":
        return verify_schmidt_refinement(15 if n is None else n)
    if ident == "thm6":
        return verify_li_yee(2 if t is None else t, 8 if n is None else n)
    if ident == "thm7":
        return verify_color_conjugate(
            2 if t is None else t, 1 if r is None else r,
            18 if n is None else n,
        )
    if ident == "cor11":
        return verify_opposite_schmidt(
            2 if t is None else t, 2 if r is None else r,
            6 if k is None else k, 10 if n is None else n,
        )
    if ident == "eq20":
        return verify_recurrence(
            2 if t is None else t, 6 if n is None else n, box
        )
    if ident == "eq24":
        return verify_functional_equation(2 if t is None else t, box, perturb)
    if ident == "table1":
        return verify_table(7 if n is None else n)
    if ident == "furtherwork":
        return verify_furtherwork(4 if m is None else m, 20 if n is None else n)
    raise VerifyError(f"unknown id: {ident}")


def _suite_tasks(level):
    if level not in ("quick", "full"):
        raise VerifyError("suite level must be 'quick' or 'full'")
    q = level == "quick"
    tasks = []

    def add(fn, *args, **kw):
        tasks.append(lambda: fn(*args, **kw))

    def pick(quick_value, full_value):
        return quick_value if q else full_value

    add(verify_schmidt, pick(15, 22))
    add(verify_euler_refinement, pick(25, 30))
    add(verify_schmidt_refinement, pick(15, 22))
    add(verify_identity, "thm3.1", {},
        pick({"q": 12, "z": 24}, {"q": 18, "z": 36}))
    add(verify_identity, "thm3.2", {},
        pick({"q": 12, "z": 12}, {"q": 18, "z": 18}))
    add(verify_identity, "eq3", {},
        pick({"q": 8, "z": 16}, {"q": 12, "z": 24}))
    for ident in ("thm4.1", "thm4.2", "thm5.1", "thm5.2"):
        add(verify_identity, ident, {},
            pick({"q": 12, "z": 12}, {"q": 18, "z": 18}))
    for t in (1, 2, 3):
        add(verify_li_yee, t, pick(8, 12))
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            add(verify_color_conjugate, t, r, pick(18, 24))
    for t in (1, 2, 3, 4):
        for r in (1, 2, 3, 4):
            add(verify_identity, "thm8.1", {"t": t, "r": r},
                pick({"q": 10, "z": 10}, {"q": 15, "z": 15}))
    for t in (1, 2, 3):
        box = {"q": pick(8, 12)}
        for i in range(1, t + 1):
            box[f"z{i}"] = pick(4, 6)
        add(verify_identity, "thm8.2", {"t": t}, box)
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            add(verify_identity, "thm9", {"t": t, "r": r},
                pick({"q": 10, "z": 10, "s": 10},
                     {"q": 12, "z": 12, "s": 12}))
    for t in (2, 3):
        for r in (1, 2, 3):
            add(verify_identity, "cor10", {"t": t, "r": r},
                pick({"q": 8, "z": 8}, {"q": 12, "z": 12}))
    for t in (2, 3):
        for r in (2, 3):
            add(verify_opposite_schmidt, t, r, pick(6, 9), pick(10, 15))
    for n in range(pick(4, 6) + 1):
        add(verify_identity, "eq14", {"n": n},
            pick({"q": 10, "z": 10}, {"q": 15, "z": 15}))
    add(verify_recurrence, 2, pick(6, 9),
        pick({"q": 8, "s": 12}, {"q": 12, "s": 18}))
    add(verify_functional_equation, 2,
        pick({"q": 6, "s": 10, "z": 4}, {"q": 9, "s": 15, "z": 6}))
    add(verify_table, 7)
    add(verify_furtherwork, 4, pick(20, 24))
    return tasks


def run_suite(level="quick", threads=1):
    """Run every catalog check at the given level and collect reports."""
    tasks = _suite_tasks(level)
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda task: task(), tasks))
    else:
        reports = [task() for task in tasks]
    return SuiteReport(level, reports)
