import hashlib
import itertools
import json
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import partbij
import partbij.bijections as bij
import partbij.cli as cli
import partbij.series as qs
import partbij.verify as ver
from partbij import _accel
from partbij._accel import partition_histogram
from partbij.colored import ColoredPartition
from partbij.partitions import (
    Partition,
    enumerate_partitions,
    from_modular,
    partition_domain,
    partition_numbers,
    schmidt_weight,
    to_modular,
)
from partbij.series import TruncatedSeries
from partbij.verify import (
    IDENTITY_IDS,
    THEOREM_IDS,
    SuiteReport,
    UnboundedBox,
    VerificationReport,
    VerifyError,
    _colored_classes,
    f_recurrence,
    lhs_series,
    rhs_series,
    run_suite,
    run_verifier,
    table_bessenrodt,
    verify_identity,
)
from reference import (
    color_profile,
    colored_partitions,
    q_binomial,
    quotient,
    truncated_product,
)
from test_series import exact_quotient

SMALL = {
    "thm3.1": ({}, {"q": 6, "z": 12}),
    "thm3.2": ({}, {"q": 6, "z": 6}),
    "eq3": ({}, {"q": 4, "z": 8}),
    "thm4.1": ({}, {"q": 8, "z": 8}),
    "thm4.2": ({}, {"q": 8, "z": 8}),
    "thm5.1": ({}, {"q": 6, "z": 6}),
    "thm5.2": ({}, {"q": 6, "z": 6}),
    "thm8.1": ({"t": 3, "r": 2}, {"q": 6, "z": 6}),
    "thm8.2": ({"t": 2}, {"q": 5, "z1": 3, "z2": 3}),
    "thm9": ({"t": 2, "r": 2}, {"s": 8, "q": 8, "z": 8}),
    "cor10": ({"t": 3, "r": 2}, {"q": 6, "z": 6}),
    "eq14": ({"n": 3}, {"q": 8, "z": 8}),
}


@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_identity_passes_in_small_box(ident):
    params, box = SMALL[ident]
    report = verify_identity(ident, params=params, box=box)
    assert report.passed, report.first_mismatch
    assert report.status == "pass"
    assert report.coefficients_checked > 0
    assert report.first_mismatch is None


@pytest.mark.parametrize("ident", IDENTITY_IDS)
def test_fault_injection_is_caught(ident):
    params, box = SMALL[ident]
    report = verify_identity(ident, params=params, box=box,
                             perturb={"q": 1})
    assert not report.passed
    assert report.status == "fail"
    assert report.first_mismatch is not None
    mono = report.first_mismatch["monomial"]
    assert report.first_mismatch["lhs"] != report.first_mismatch["rhs"]
    # the report is json-clean
    json.dumps(report.to_json())
    assert all(isinstance(v, int) for v in mono.values())


# boxes whose closed forms a product-norm overflow bound used to reject,
# although every coefficient fits int64 easily
@pytest.mark.parametrize("ident, params, box", [
    ("thm8.1", {"t": t, "r": r}, {"q": 15, "z": 15})
    for t, r in ((2, 4), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4))
] + [
    ("thm4.1", {}, {"q": 22, "z": 22}),
    ("thm4.2", {}, {"q": 24, "z": 24}),
    ("thm5.1", {}, {"q": 30, "z": 30}),
])
def test_identity_passes_in_large_box(ident, params, box):
    report = verify_identity(ident, params=params, box=box)
    assert report.passed, report.first_mismatch


def test_thm8_1_largest_coefficient():
    f = rhs_series("thm8.1", {"t": 4, "r": 4}, {"q": 15, "z": 15})
    assert int(f.coeffs.max()) == 7_146_952


def _head_terms(ident, n):
    """Theorem 4's n-th head and the factor exponents (q, z) of its whole
    denominator: (zq; q)_n^4 for thm4.1, (zq; q)_n^2 (zq; q)_(n-1)^2 for
    thm4.2."""
    if ident == "thm4.1":
        return (n * (2 * n + 1), 4 * n - 1), [(k, 1) for k in range(1, n + 1)] * 4
    return ((n * (2 * n - 1), 4 * n - 3),
            [(k, 1) for k in range(1, n + 1)] * 2
            + [(k, 1) for k in range(1, n)] * 2)


@pytest.mark.parametrize("qz", [0, 1, 5, 12, 22, 24, 40])
@pytest.mark.parametrize("ident", ["thm4.1", "thm4.2"])
def test_nested_head_sums_equal_the_term_by_term_sums(ident, qz):
    # the sum over n of head_n / D_n, each quotient taken whole in
    # Python ints, against the nested sum of rhs_series
    box = {"q": qz, "z": qz}
    want = np.zeros((qz + 1, qz + 1), dtype=object)
    want[0, 0] = 1 if ident == "thm4.1" else 0
    for n in itertools.count(1):
        head, factors = _head_terms(ident, n)
        if max(head) > qz:
            break
        want += exact_quotient(
            TruncatedSeries.monomial(box, dict(zip("qz", head))), factors)
    assert rhs_series(ident, {}, box).coeffs.tolist() == want.tolist()


# the sha256 of each closed form's coefficients one step below its int64
# wall, as the whole quotients (for theorem 4 the sums of whole quotients
# head_n / D_n) gave them; at the wall a coefficient leaves int64
@pytest.mark.parametrize("ident, wall, digest", [
    ("thm4.1", 264,
     "f09600649d2c3d2089cbb1b33d13736cea4e916d5e8f6f3376b673930906838f"),
    ("thm4.2", 264,
     "9368c41b098f1f68d04ccb854c41b10e554bbd0d66662f9e301b69d2b01dd93e"),
    ("thm5.1", 240,
     "3c87835c4fda18a41a10f83c788757057449173b353e36eb78c33d205e1ed61f"),
    ("thm5.2", 211,
     "d9b6f66ff1c1bee3448c77a98d9dc503026e894f908525ecc5c7561fb3772cd0"),
])
def test_closed_forms_overflow_at_their_int64_walls(ident, wall, digest):
    f = rhs_series(ident, {}, {"q": wall - 1, "z": wall - 1})
    assert hashlib.sha256(f.coeffs.astype("<i8").tobytes()).hexdigest() \
        == digest
    with pytest.raises(qs.CoefficientOverflow):
        rhs_series(ident, {}, {"q": wall, "z": wall})


def test_both_kernels_raise_the_one_overflow():
    # thm4.1 at 264 leaves int64 on both sides: the histogram's counts in
    # its wrap scan and the closed form's in a division's checked add,
    # which run the one wrap check and raise the one class
    for side in (lhs_series, rhs_series):
        with pytest.raises(partbij.CoefficientOverflow) as raised:
            side("thm4.1", {}, {"q": 264, "z": 264})
        assert raised.type is qs.CoefficientOverflow \
            is _accel.CoefficientOverflow
        assert raised.traceback[-1].name == "_no_wrap"


def test_no_block_walk_at_suite_or_closed_form_workload_boxes(monkeypatch):
    # blocks pay off only in views of many cells: every division of the
    # suites and of the closed-form workload's largest boxes stays doubling
    plans = []
    plan = qs._plan

    def recorded(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(qs, "_plan", recorded)
    assert run_suite("quick").passed and run_suite("full").passed
    for ident, params, box in [
            ("thm5.1", {}, {"q": 30, "z": 30}),
            ("thm3.1", {}, {"q": 18, "z": 36}),
            ("thm9", {"t": 2, "r": 1}, {"q": 16, "z": 16, "s": 16}),
            ("thm8.2", {"t": 3}, {"q": 12, "z1": 6, "z2": 6, "z3": 6})]:
        rhs_series(ident, params, box)
    steps = [step for steps, _, _ in plans for step in steps]
    assert len(steps) > 1000
    assert all(split == len(adds) for _, _, split, adds in steps)


# eq3's z is twice the size less the length, so it lies between q and 2q:
# boxes with z below q, between q and 2q, and above 2q cut the fold apart
@pytest.mark.parametrize("box", [{"q": 8, "z": 5}, {"q": 6, "z": 9},
                                 {"q": 5, "z": 16}])
def test_eq3_passes_at_the_edges_of_its_fold(box):
    report = verify_identity("eq3", box=box)
    assert report.passed, report.first_mismatch


def test_fault_injection_names_the_exact_monomial():
    report = verify_identity("thm5.1", box={"q": 6, "z": 6},
                             perturb={"q": 3, "z": 2})
    assert report.first_mismatch["monomial"] == {"q": 3, "z": 2}


def test_report_json_shape():
    report = verify_identity("thm3.1", box={"q": 4, "z": 8})
    data = report.to_json()
    assert data["id"] == "thm3.1"
    assert data["status"] == "pass"
    assert data["coefficients_checked"] == report.coefficients_checked
    assert "elapsed_ms" in data and "first_mismatch" not in data


def test_lhs_rejects_non_series_id():
    with pytest.raises(VerifyError):
        lhs_series("schmidt", {}, {"q": 4})
    with pytest.raises(VerifyError):
        rhs_series("table1", {}, {"q": 4})


def test_a_parameter_the_entry_does_not_take_is_rejected():
    with pytest.raises(VerifyError, match="^thm3.1 takes no parameter t$"):
        verify_identity("thm3.1", {"t": 2})
    with pytest.raises(VerifyError, match="^thm7 takes no parameter n$"):
        verify_identity("thm7", {"n": 3})
    with pytest.raises(VerifyError, match="^thm8.1 takes no parameter n$"):
        rhs_series("thm8.1", {"n": 3}, {"q": 4, "z": 4})


@pytest.mark.parametrize("name, cap", [("t", 50_000), ("r", 90_000)])
def test_thm8_1_caps_t_and_r(name, cap):
    # both sides take time linear in t and in r
    assert ver._entry("thm8.1").caps[name] == cap
    box = {"q": 1, "z": 1}
    for check in (verify_identity, lhs_series, rhs_series):
        with pytest.raises(VerifyError, match=f"^thm8.1 takes {name} at "
                                              f"most {cap}, got {cap + 1}$"):
            check("thm8.1", {name: cap + 1}, box)


def test_box_variable_set_is_checked():
    with pytest.raises(VerifyError):
        lhs_series("thm3.1", {}, {"q": 4})
    with pytest.raises(VerifyError):
        rhs_series("thm3.1", {}, {"q": 4, "z": 4, "s": 4})


def test_unbounded_and_degenerate_params():
    # at t = 1 cor10's count has no bound on the length and its closed
    # form is a constant-ratio infinite product, so the entry starts t at 2
    box = {"q": 4, "z": 4}
    with pytest.raises(UnboundedBox):
        partition_histogram(("anti", "first"), (4, 4), t=1, r=1)
    with pytest.raises(qs.DivergentInfiniteProduct):
        qs._divide(TruncatedSeries.constant(box, 1).coeffs, ("q", "z"),
                   [({"z": 1}, {}, qs.INFINITY)])
    for check in (lhs_series, rhs_series, verify_identity):
        with pytest.raises(VerifyError, match="^cor10 needs t >= 2$"):
            check("cor10", {"t": 1, "r": 1}, box)
    with pytest.raises(VerifyError, match="^cor11 needs t >= 2$"):
        verify_identity("cor11", {"t": 1, "r": 2})
    with pytest.raises(VerifyError, match="^cor11 needs r >= 2$"):
        verify_identity("cor11", {"t": 2, "r": 1})


def test_f_recurrence_checks_its_arguments_as_eq20():
    box = {"q": 4, "s": 4}
    with pytest.raises(VerifyError, match="^eq20 needs n_max >= 0$"):
        f_recurrence(-1, 2, box)
    with pytest.raises(VerifyError, match="^eq20 needs t >= 1$"):
        f_recurrence(2, 0, box)
    with pytest.raises(VerifyError, match=r"^eq20 expects a box over "
                                          r"exactly \{q, s\}$"):
        f_recurrence(2, 2, {"q": 4, "z": 4})
    with pytest.raises(VerifyError, match="^eq20 needs s >= 0$"):
        f_recurrence(2, 2, {"q": 4, "s": -1})


def test_special_case_collapse():
    # cor10 at t=2, r=2 collapses to the first-part identity thm5.1
    box = {"q": 6, "z": 6}
    for side in (rhs_series, lhs_series):
        assert np.array_equal(side("cor10", {"t": 2, "r": 2}, box).coeffs,
                              side("thm5.1", {}, box).coeffs)


def test_defaults_cover_every_identity():
    for ident in IDENTITY_IDS:
        assert ver.resolve_arguments(ident)[1]
    report = verify_identity(IDENTITY_IDS[0])
    assert report.passed  # full default boxes run in the suite
    assert ver.resolve_arguments("thm8.2", t=3)[1] == \
        {"q": 8, "z1": 4, "z2": 4, "z3": 4}
    with pytest.raises(VerifyError):
        ver.resolve_arguments("nope")


def test_counting_verifiers_pass_small():
    assert verify_identity("schmidt", {"n_max": 8}).passed
    assert verify_identity("cor2", {"n_max": 8}).passed
    assert verify_identity("prop1", {"n_max": 12}).passed
    assert verify_identity("thm6", {"t": 2, "n_max": 6}).passed
    assert verify_identity("thm7", {"t": 2, "r": 2, "size_max": 10}).passed
    assert verify_identity("cor11", {"t": 2, "r": 2, "k_max": 4,
                                     "n_max": 6}).passed
    assert verify_identity("eq20", {"t": 2, "n_max": 4}).passed
    assert verify_identity("eq24", {"t": 2}).passed
    assert verify_identity("table1", {"n": 7}).passed
    assert verify_identity("furtherwork", {"m_max": 3, "size_max": 12}).passed


# boxes where s < t z and q < z for every t drawn, so that the
# substitution drops terms on both axes; at s 3 and t 7 the gather takes
# t as s + 1
@pytest.mark.parametrize("t", [1, 2, 3, 7])
@pytest.mark.parametrize("box", [{"q": 2, "z": 4, "s": 3},
                                 {"q": 5, "z": 7, "s": 6},
                                 {"q": 4, "z": 6, "s": 5}])
def test_eq24_gathers_the_substituted_histogram(monkeypatch, t, box):
    # z -> s^t q z sends the histogram's cell (a, c, b) to
    # (a + c, c, b + t c); the array eq24 divides, before the division,
    # holds exactly the images that stay in the box
    divide = qs._divide
    handed = []

    def kept(coeffs, variables, products, bound=None):
        handed.append(coeffs.copy())
        return divide(coeffs, variables, products, bound)

    monkeypatch.setattr(qs, "_divide", kept)
    assert verify_identity("eq24", {"t": t}, box).passed
    bounds = box["q"], box["z"], box["s"]
    source = partition_histogram(("weight", "first", "size"), bounds, t=t)
    want = {}
    for a, c, b in np.argwhere(source).tolist():
        target = a + c, c, b + t * c
        if all(x <= bound for x, bound in zip(target, bounds)):
            want[target] = int(source[a, c, b])
    assert len(want) < np.count_nonzero(source)  # some terms left the box
    [gathered] = handed
    assert {tuple(i): int(gathered[tuple(i)])
            for i in np.argwhere(gathered).tolist()} == want


def test_each_side_runs_without_the_others_kernel(monkeypatch):
    # the enumeration side never divides and the closed form never counts
    # partitions: at every quick-suite point of every series identity,
    # each side, built with the other side's kernel made to raise, agrees
    # with the other
    def banned(*args, **kwargs):
        raise AssertionError("the other side's kernel was called")

    points = [task.args for task in ver._suite_tasks("quick")
              if task.args[0] in IDENTITY_IDS]
    assert len(points) == 46
    assert {ident for ident, _, _ in points} == set(IDENTITY_IDS)
    for ident, params, box in points:
        with monkeypatch.context() as patch:
            patch.setattr(qs, "_divide", banned)
            lhs = lhs_series(ident, params, box)
        with monkeypatch.context() as patch:
            patch.setattr(ver, "partition_histogram", banned)
            rhs = rhs_series(ident, params, box)
        assert np.array_equal(lhs.coeffs, rhs.coeffs), (ident, params)
    # and so at the array sides' quick points, but for two: both of cor2's
    # sides are histograms, and eq24's right side gathers from its left
    # side's array
    exempt = {"cor2", "eq24"}
    points = [task.args for task in ver._suite_tasks("quick")
              if task.args[0] not in IDENTITY_IDS
              and ver._entry(task.args[0]).lhs is not None]
    assert {ident for ident, _, _ in points} - exempt == {
        "schmidt", "thm6", "cor11", "eq20"}
    for ident, params, box in points:
        if ident in exempt:
            continue
        entry = ver._entry(ident)
        with monkeypatch.context() as patch:
            patch.setattr(qs, "_divide", banned)
            lhs = entry.lhs(params, box)
        with monkeypatch.context() as patch:
            patch.setattr(ver, "partition_histogram", banned)
            rhs = entry.rhs(params, box)
        assert np.array_equal(lhs, rhs), (ident, params)


def _tally(colored, bound, weight, admits=lambda p, i: True):
    """Colored partitions keyed (weight, color counts), one by one."""
    tally = {}
    for mu in colored:
        if all(admits(p, i) for p, i in mu.entries):
            key = (sum(weight(p, i) for p, i in mu.entries),
                   *(sum(1 for _, c in mu.entries if c == i)
                     for i in range(1, mu.t + 1)))
            if key[0] <= bound:
                tally[key] = tally.get(key, 0) + 1
    return tally


def _keyed(rows):
    """Class rows as a dict from key to count."""
    keys = [tuple(row[:-1]) for row in rows.tolist()]
    assert keys == sorted(set(keys))  # one row per class, in key order
    return dict(zip(keys, rows[:, -1].tolist()))


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_colored_classes_match_enumeration(t):
    bound = 10
    colored = [ColoredPartition(entries, t) for n in range(bound + 1)
               for entries in colored_partitions(n, t)]
    # thm7: part p of color i reassembles to (r-1) + t(p-1) + i
    for r in (1, 2, 3, 4):
        def weight(p, i):
            return r - 1 + t * (p - 1) + i

        assert _keyed(_thm7_classes(t, r, bound)) == \
            _tally(colored, bound, weight), r
    # thm6: every part weighs itself; class (n, s, j) has some color with
    # s parts, and j is the last such color
    part = lambda p, i: p
    classes = Counter()
    for (n, *counts), count in _tally(colored, bound, part).items():
        s = max(counts)
        j = max(i for i, c in enumerate(counts, 1) if c == s) if s else 0
        classes[n, s, j] += count
    assert _nonzero(ver._li_yee_classes(t, bound)) == classes
    # cor11: two colors, color 2 only on the sizes r-1, r-1 + (t-1), ...
    if t == 2:
        for t2, r in ((2, 2), (3, 2), (3, 3), (4, 4)):
            def admits(p, i):
                return i == 1 or (p >= r - 1 and (p - r + 1) % (t2 - 1) == 0)

            pairs = Counter()
            for (n, *counts), count in _tally(
                    colored, bound, part, admits).items():
                pairs[n, sum(counts)] += count
            series = ver._two_colored(t2, r, {"q": bound, "z": bound})
            assert _nonzero(series.coeffs) == pairs, (t2, r)


def test_colored_classes_raise_past_int64():
    # the partitions of 500 with about 30 parts number past 2^63
    with pytest.raises(qs.CoefficientOverflow):
        _colored_classes(500, [range(1, 501)])


def _nonzero(arr):
    """The nonzero cells of an array as a dict from index to value."""
    return {tuple(i): int(arr[tuple(i)]) for i in np.argwhere(arr).tolist()}


def _class_key(lam, t, r):
    """thm7's class key of a partition: its size, first part, part at
    row r, weight and colour profile."""
    def part(i):
        return lam[i - 1] if i <= len(lam) else 0

    return (lam.size(), part(1), part(r), schmidt_weight(lam, t, r),
            *color_profile(lam, t, r))


def _thm7_classes(t, r, size_max):
    return _colored_classes(
        size_max, [range(r - 1 + i, size_max + 1, t) for i in range(1, t + 1)])


def _thm7_class(row, t, r):
    """The report monomial of the pair side's empty-head row for one
    colored class row of thm7, and that class's count."""
    base, *prof, count = row.tolist()
    k = sum(prof)
    n = (base - sum(c * (r - 1 + i - t) for i, c in enumerate(prof, 1))) // t
    # with an empty head, first and row_r are both the colored length
    return {"size": base, "first": k, "row_r": k, "weight": n,
            "profile": prof}, count


@pytest.mark.parametrize("cells", [ver._CHUNK_CELLS, 64])
def test_color_conjugate_catches_a_miscounted_class(monkeypatch, cells):
    monkeypatch.setattr(ver, "_CHUNK_CELLS", cells)  # 64: 5 columns a chunk
    t, r, size_max = 2, 2, 10
    monomial, count = _thm7_class(_thm7_classes(t, r, size_max)[-1], t, r)
    _plant(monkeypatch, ("class", "last", 1))
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": size_max})
    assert report.status == "fail"
    assert report.first_mismatch == {
        "monomial": monomial, "lhs": count, "rhs": count + 1}
    # a walk counts every partition, then the classes in (size, key)
    # order up to the miscounted one
    walk = [lam for size in range(size_max + 1)
            for lam in enumerate_partitions(size)]
    classes = sorted({_class_key(lam, t, r) for lam in walk})
    *key, prof = monomial.values()
    assert report.coefficients_checked == \
        len(walk) + classes.index((*key, *prof)) + 1


def _first_class_mismatch(walk, pair, t, r):
    """The classes checked and the first mismatch of thm7's class compare,
    from counters: the partitions of walk by key, the pair rows' counts
    summed by key, and the union of their keys in order."""
    lhs = Counter(_class_key(lam, t, r) for lam in walk)
    rhs = Counter()
    for *key, count in pair.tolist():
        rhs[tuple(key)] += count
    for checked, key in enumerate(sorted(lhs.keys() | rhs.keys()), 1):
        if lhs[key] != rhs[key]:
            n, first, row_r, weight, *prof = key
            return checked, {"monomial": {
                "size": n, "first": first, "row_r": row_r, "weight": weight,
                "profile": prof}, "lhs": lhs[key], "rhs": rhs[key]}
    return len(lhs.keys() | rhs.keys()), None


# t 2, r 1: the part at row r is the first part, so a key whose two
# differ belongs to no partition
@pytest.mark.parametrize("fault", ["dropped", "added early", "added last"])
def test_color_conjugate_catches_a_class_on_one_side(monkeypatch, fault):
    t, r, size_max = 2, 1, 10
    real = ver._pair_classes

    def pair_classes(*args):
        rows = real(*args)
        if fault == "dropped":
            return rows[(rows[:, :-1] != rows[len(rows) // 2, :-1]).any(1)]
        key = [5, 5, 0] if fault == "added early" else [size_max + 1, 1, 0]
        return np.vstack([rows, key + [0, 0, 0, 1]])

    monkeypatch.setattr(ver, "_pair_classes", pair_classes)
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": size_max})
    walk = [lam for size in range(size_max + 1)
            for lam in enumerate_partitions(size)]
    checked, mismatch = _first_class_mismatch(
        walk, pair_classes(t, r, size_max), t, r)
    assert report.status == "fail"
    assert report.first_mismatch == mismatch
    assert (mismatch["lhs"] == 0) == (fault != "dropped")
    assert report.coefficients_checked == len(walk) + checked


@pytest.mark.parametrize("size_max", [0, 1, 5, 7])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_color_conjugate_with_r_past_the_size_counts_as_the_walk(
        monkeypatch, t, size_max):
    # no partition of the domain reaches row r, so the classes a walk
    # finds are its (size, first part) pairs
    walk = [lam for n in range(size_max + 1)
            for lam in enumerate_partitions(n)]
    compare, keys = ver._class_mismatch, []

    def recorded(partition_keys, pair):
        keys.append(partition_keys)
        return compare(partition_keys, pair)

    monkeypatch.setattr(ver, "_class_mismatch", recorded)
    for r in range(size_max + 1, size_max + 4):
        classes = {_class_key(lam, t, r) for lam in walk}
        assert len(classes) == 1 + size_max * (size_max + 1) // 2
        report = verify_identity("thm7", {"t": t, "r": r,
                                          "size_max": size_max})
        assert report.passed, report.first_mismatch
        assert report.params["r"] == r
        assert report.coefficients_checked == len(walk) + len(classes)
        assert set(map(tuple, keys.pop().tolist())) == classes


def test_color_conjugate_at_a_huge_r_is_fast():
    start = time.perf_counter()
    report = verify_identity("thm7", {"r": 10**8})
    assert time.perf_counter() - start < 1
    assert report.passed
    assert report.params == {"t": 2, "r": 10**8, "size_max": 18}
    assert report.coefficients_checked == \
        verify_identity("thm7", {"r": 19}).coefficients_checked


# from r = 4 on, one (size, first part) cell holds several heads: at size 6
# and first part 3, the heads (3, 3) and (3, 2, 1)
@pytest.mark.parametrize("r", [4, 5])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_color_conjugate_passes_with_many_heads_a_cell(t, r):
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": 12})
    assert report.passed, report.first_mismatch


def test_color_conjugate_catches_a_miscounted_head_cell(monkeypatch):
    t, r, size_max = 2, 4, 12
    _plant(monkeypatch, ("cell", ("size", "first"), (6, 3), 1))
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": size_max})
    assert report.status == "fail"
    # the heads of the cell with the empty colored class: 2 partitions of
    # size 6 with first part 3 and no part at row 4, and 3 pairs
    monomial = {"size": 6, "first": 3, "row_r": 0, "weight": 0,
                "profile": [0, 0]}
    assert report.first_mismatch == {"monomial": monomial, "lhs": 2,
                                     "rhs": 3}
    walk = [lam for size in range(size_max + 1)
            for lam in enumerate_partitions(size)]
    classes = sorted({_class_key(lam, t, r) for lam in walk})
    assert report.coefficients_checked == \
        len(walk) + classes.index((6, 3, 0, 0, 0, 0)) + 1


def test_color_conjugate_class_mismatch_report_is_plain_json(monkeypatch):
    t, r, size_max = 3, 1, 9
    rows = _thm7_classes(t, r, size_max)
    _plant(monkeypatch, ("class", "middle", -1))
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": size_max})
    assert report.status == "fail"
    monomial, count = _thm7_class(rows[len(rows) // 2], t, r)
    assert report.first_mismatch == {
        "monomial": monomial, "lhs": count, "rhs": count - 1}
    assert json.loads(json.dumps(report.to_json()))["coefficients_checked"] \
        == report.coefficients_checked


def test_class_compare_keeps_no_copy_of_the_joined_rows(monkeypatch):
    # thm7 at size 30 (t 2, r 1): 28,629 partition keys and 1,481 pair
    # rows, 0.25 MB in all; joining the two sides and sorting the join
    # held 1.61 MB of copies above them, and counting each side's
    # classes on its own holds about 0.3 MB
    calls = []
    compare = ver._class_mismatch

    def recorded(keys, pair):
        calls.append((keys, pair))
        return compare(keys, pair)

    monkeypatch.setattr(ver, "_class_mismatch", recorded)
    assert verify_identity("thm7", {"t": 2, "r": 1, "size_max": 30}).passed
    (keys, pair), = calls
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert compare(keys, pair) == (1481, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_611_490 // 2


def _recoloured(rows, t, r, heights=None):
    """color_conjugate_rows with colour h mod t + 1 instead of
    (h - 1) mod t + 1."""
    nu, mu, colors = bij.color_conjugate_rows(rows, t, r, heights)
    return nu, mu, np.where(mu > 0, colors % t + 1, 0)


@pytest.mark.parametrize("cells", [ver._CHUNK_CELLS, 64])
@pytest.mark.parametrize("t, r", [(2, 1), (3, 2), (2, 3)])
def test_color_conjugate_catches_a_wrong_colour(monkeypatch, t, r, cells):
    monkeypatch.setattr(ver, "_CHUNK_CELLS", cells)  # 64: 6 columns a chunk
    # the first partition, in enumeration order, that the two maps colour
    # differently: the column of r ones
    rows = partition_domain(8)[0].astype(np.int64)
    differs = (_recoloured(rows, t, r)[2]
               != bij.color_conjugate_rows(rows, t, r)[2]).any(axis=0)
    i = int(np.argmax(differs))
    first = np.trim_zeros(rows[:, i], "b").tolist()
    assert first == [1] * r
    monkeypatch.setattr(ver, "color_conjugate_rows", _recoloured)
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": 8})
    assert report.status == "fail"
    assert report.coefficients_checked == i + 1
    assert report.first_mismatch["monomial"] == {
        "partition": first, "t": t, "r": r}
    assert report.first_mismatch["rhs"] == [first, 1, 0, 1, 1,
                                            [1] + [0] * (t - 1)]


@pytest.mark.parametrize("cells", [ver._CHUNK_CELLS, 64])
def test_color_conjugate_round_trip_fault_wins_over_an_earlier_class(
        monkeypatch, cells):
    monkeypatch.setattr(ver, "_CHUNK_CELLS", cells)
    t, r, size_max = 2, 1, 9
    _plant(monkeypatch, ("class", "first", 1))  # the class of size 0
    # a round-trip fault at size 7 only: (4, 2, 1) takes the wrong colours
    target = [4, 2, 1]

    def recoloured_at(rows, t, r, heights):
        nu, mu, colors = bij.color_conjugate_rows(rows, t, r, heights)
        hit = ((rows[:3] == np.array(target)[:, None]).all(axis=0)
               & (rows[3:] == 0).all(axis=0))
        colors[:, hit] = _recoloured(rows, t, r, heights)[2][:, hit]
        return nu, mu, colors

    monkeypatch.setattr(ver, "color_conjugate_rows", recoloured_at)
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": size_max})
    walk = [list(lam) for n in range(size_max + 1)
            for lam in enumerate_partitions(n)]
    assert report.status == "fail"
    assert report.first_mismatch["monomial"] == {
        "partition": target, "t": t, "r": r}
    assert report.coefficients_checked == walk.index(target) + 1


@pytest.mark.parametrize("distinct", [False, True])
def test_kept_domain_is_exact_and_read_only(distinct):
    parts, sizes = ver._parts(9, distinct)
    assert ver._parts(9, distinct)[0] is parts  # kept between calls
    built, built_sizes = partition_domain(9, distinct)
    assert parts.dtype == sizes.dtype == np.uint8
    assert np.array_equal(parts, built)
    assert np.array_equal(sizes, built_sizes)
    arrays = [parts, sizes]
    if not distinct:
        # thm7's domain adds the column heights to the kept parts
        kept, kept_sizes, heights = ver._domain(9)
        assert kept is parts and kept_sizes is sizes
        assert ver._domain(9)[2] is heights  # kept between calls
        assert heights.dtype == np.uint8
        assert np.array_equal(heights, bij._conjugate_rows(
            parts.astype(np.int64)))
        arrays.append(heights)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 1
    assert parts[0, 0] == 0  # the empty partition, still


@pytest.mark.parametrize("t, r, checked, lhs, rhs", [
    (2, 1, 2, [[1, 1], 1, 0, 1, 1, [0, 1]], [[1], 1, 0, 1, 1, [1, 0]]),
    (3, 2, 4, [[1, 1, 1], 1, 0, 1, 1, [0, 1, 0]],
     [[1, 1], 1, 0, 1, 1, [1, 0, 0]]),
])
def test_color_conjugate_fault_after_a_clean_call_is_caught(
        monkeypatch, t, r, checked, lhs, rhs):
    # the clean call keeps the domain of size 8, and the faulty map that
    # the next call looks up runs over it
    assert verify_identity("thm7", {"t": t, "r": r, "size_max": 8}).passed
    hits = ver._domain.cache_info().hits
    monkeypatch.setattr(ver, "color_conjugate_rows", _recoloured)
    report = verify_identity("thm7", {"t": t, "r": r, "size_max": 8})
    assert ver._domain.cache_info().hits == hits + 1
    assert report.status == "fail"
    assert report.coefficients_checked == checked
    assert report.first_mismatch == {
        "monomial": {"partition": [1] * r, "t": t, "r": r},
        "lhs": lhs, "rhs": rhs}


def _recording(monkeypatch, name):
    """Wrap verify's name, an array map, to record the number of columns
    of each call's first argument."""
    real, widths = getattr(ver, name), []

    def recorded(rows, *args):
        widths.append(rows.shape[1])
        return real(rows, *args)
    monkeypatch.setattr(ver, name, recorded)
    return widths


def test_chunk_cells_set_after_a_clean_call_is_honoured(monkeypatch):
    # clean calls at the default keep each domain; _CHUNK_CELLS = 64 set
    # after them still cuts the column ranges, and the reports are the
    # pinned ones
    t, r, size_max = 2, 2, 10
    params = {"t": t, "r": r, "size_max": size_max}
    assert verify_identity("thm7", params).passed
    assert verify_identity("prop1").passed
    monkeypatch.setattr(ver, "_CHUNK_CELLS", 64)
    _plant(monkeypatch, ("class", "last", 1))
    widths = _recording(monkeypatch, "color_conjugate_rows")
    monomial, count = _thm7_class(_thm7_classes(t, r, size_max)[-1], t, r)
    assert verify_identity("thm7", params).first_mismatch == {
        "monomial": monomial, "lhs": count, "rhs": count + 1}
    # 64 // 12 columns a range
    assert max(widths) == 5
    assert sum(widths) == sum(partition_numbers(size_max))
    _plant(monkeypatch, ("image", "bessenrodt_inverse", (6, 4, 2, 1)))
    widths = _recording(monkeypatch, "bessenrodt_inverse_rows")
    report = verify_identity("prop1")
    assert (report.coefficients_checked, report.first_mismatch) == (
        87, {"monomial": {"partition": [6, 4, 2, 1]}, "lhs": [4, 7],
             "rhs": [3, 7]})
    assert set(widths) == {2}  # 64 // 26 columns a range, up to the fault
    assert sum(widths) == 88


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
def test_first_cell_failure_is_the_walk_over_the_cells(shape, data):
    # the arrays compared at once report as the walk over their cells in
    # index order, keyed by labels, with or without a mask
    cells = st.lists(st.integers(-1, 1), min_size=int(np.prod(shape)),
                     max_size=int(np.prod(shape)))
    got, want = (np.array(data.draw(cells)).reshape(shape) for _ in "ab")
    mask = np.array(data.draw(cells)).reshape(shape) >= 0
    labels = ("n", "s", "j")[:len(shape)]
    for where in (mask, None):
        walk = ver._first_failure(
            (dict(zip(labels, index)), int(got[index]), int(want[index]))
            for index in itertools.product(*map(range, shape))
            if where is None or where[index])
        assert ver._first_cell_failure(got, want, labels, (), where) == walk
    # with graded axes: the walk over the leading axes' cells, each
    # counted with all its graded cells, and within the first that fails
    # its graded-lex first mismatch, named graded labels first, a zero
    # index left out on an axis in exponents
    lead = data.draw(st.integers(0, len(shape)))
    exponents = data.draw(st.sampled_from([(), labels]))
    outer, graded = labels[:lead], labels[lead:]
    monomials = sorted(itertools.product(*map(range, shape[lead:])),
                       key=lambda e: (sum(e), e))
    for where in (mask, None):
        checked, want_mismatch = 0, None
        for at in itertools.product(*map(range, shape[:lead])):
            checked += sum(where is None or bool(where[at + e])
                           for e in monomials)
            bad = [e for e in monomials if got[at + e] != want[at + e]
                   and (where is None or where[at + e])]
            if bad:
                e = bad[0]
                want_mismatch = {
                    "monomial": {name: i for name, i in zip(
                        graded + outer, e + at) if i or name not in exponents},
                    "lhs": int(got[at + e]), "rhs": int(want[at + e])}
                break
        assert ver._first_cell_failure(got, want, outer, graded, where,
                                       exponents) == (checked, want_mismatch)


def _domain_pass_outputs(monkeypatch, kind, level):
    """With every column range cast to kind, the outputs at the level's
    sizes of thm7's round trips (t, r in 1..3), of furtherwork's readouts
    at m_max 4 and of prop1's pass, and what the two array maps that
    furtherwork and prop1 call returned, with their input types."""
    monkeypatch.setattr(ver, "_signed", lambda array: kind)
    maps = []
    for name in ("bessenrodt_inverse_rows", "generalized_hook_map_rows"):
        def recorded(rows, *args, real=getattr(bij, name)):
            out = real(rows, *args)
            maps.append((rows.dtype, out))
            return out
        monkeypatch.setattr(ver, name, recorded)
    thm7, furtherwork, prop1 = {"quick": (18, 20, 25),
                                "full": (24, 24, 30)}[level]
    parts, _, heights = ver._domain(thm7)
    lam = np.pad(parts, ((0, 2), (0, 0))).astype(kind)
    trips = [ver._round_trip_rows(lam, heights.astype(kind), t, r)
             for t in (1, 2, 3) for r in (1, 2, 3)]
    return (trips, ver._hook_map_readouts(4, furtherwork),
            ver.verify_euler_refinement(prop1), maps)


@pytest.mark.parametrize("level", ["quick", "full"])
def test_domain_passes_give_the_same_in_int16_as_in_int64(monkeypatch,
                                                          level):
    wide = _domain_pass_outputs(monkeypatch, np.int64, level)
    narrow = _domain_pass_outputs(monkeypatch, np.int16, level)
    for (keys, failure), (want_keys, want_failure) in zip(narrow[0], wide[0]):
        assert failure is want_failure is None
        assert keys.dtype == np.int16 and np.array_equal(keys, want_keys)
    assert narrow[1:3] == wide[1:3]
    assert narrow[1][1] is None and narrow[2][1] is None
    assert len(narrow[3]) == len(wide[3]) > 0
    for (kind, out), (_, want) in zip(narrow[3], wide[3]):
        assert kind == np.int16
        for a, b in zip(out, want):
            assert a.dtype in (np.bool_, np.int16)
            assert np.array_equal(a, b)


def test_domain_chunks_are_int16_below_size_256():
    parts, sizes = ver._parts(30, False)
    for chunk in ver._column_chunks(32, parts, sizes):
        assert [a.dtype for a in chunk] == [np.int16, np.int16]
    assert ver._signed(np.zeros(1, dtype=np.uint16)) == np.int32


def _plant_hook_images(monkeypatch, planted):
    """Make the scalar hook map and its array form, as furtherwork calls
    them, give the image parts planted[(m, partition)] to that partition
    at base m."""
    scalar, rows_map = bij.generalized_hook_map, bij.generalized_hook_map_rows

    def is_partition(parts):
        return list(parts) == sorted(parts, reverse=True)

    def faulty(diagram):
        parts = planted.get((diagram.m, from_modular(diagram)))
        if parts is None:
            return scalar(diagram)
        return bij.HookMapImage(parts, is_partition(parts))

    def faulty_rows(rows, m):
        image, flags = rows_map(rows, m)
        for (base, lam), parts in planted.items():
            # furtherwork passes at base m only the rows its columns fill
            if base != m or len(lam) > len(rows):
                continue
            hit = (rows[:len(lam)] == np.array(lam, dtype=int)[:, None]).all(
                axis=0) & (rows[len(lam):] == 0).all(axis=0)
            if hit.any():
                image = np.pad(image, ((0, len(parts)), (0, 0)))
                image[:, hit] = 0
                image[:len(parts), hit] = np.array(parts)[:, None]
                flags[hit] = is_partition(parts)
        return image, flags

    monkeypatch.setattr(bij, "generalized_hook_map", faulty)
    monkeypatch.setattr(ver, "generalized_hook_map_rows", faulty_rows)


def _walked_readouts(m_max, size_max):
    """furtherwork's checks after the twins and collision_search(3, 13)
    as a partition-by-partition walk through the scalar map: the collision
    test of each size, then every part sum, m by m. Returns the count of
    all checks and the first failure."""
    checked = 3
    for n in range(size_max + 1):
        checked += 1
        groups = bij.collision_search(2, n)
        if groups:
            return checked, {"monomial": {"check": f"collision_2_{n}"},
                             "lhs": [list(g.image) for g in groups],
                             "rhs": []}
    for m in range(2, m_max + 1):
        for n in range(size_max + 1):
            for lam in enumerate_partitions(n):
                checked += 1
                got = sum(bij.generalized_hook_map(to_modular(lam, m)).parts)
                if got != n:
                    return checked, {"monomial": {"check": f"part_sum_{m}"},
                                     "lhs": [list(lam), got],
                                     "rhs": [list(lam), n]}
    return checked, None


def _one_more(m, lam):
    """The image of lam at base m with its first part one too large."""
    parts = bij.generalized_hook_map(to_modular(lam, m)).parts
    return (parts[0] + 1,) + parts[1:]


# each fault at a base m lies on a partition whose first part is at least
# m: below that a real map's image at m repeats its image at m - 1, and
# the check maps only the others
@pytest.mark.parametrize("faults, first", [
    # a later m loses to an earlier one, whatever the sizes
    ([(4, (4, 1)), (3, (7, 5, 3, 2, 1))], (3, [7, 5, 3, 2, 1])),
    ([(2, (1,) * 20)], (2, [1] * 20)),
    ([(4, (20,)), (4, (4,))], (4, [4])),
])
@pytest.mark.parametrize("cells", [ver._CHUNK_CELLS, 64])
def test_furtherwork_reports_a_wrong_part_as_the_walk_does(
        monkeypatch, faults, first, cells):
    monkeypatch.setattr(ver, "_CHUNK_CELLS", cells)  # 64: 2 columns a chunk
    planted = {(m, lam): _one_more(m, lam) for m, lam in faults}
    _plant_hook_images(monkeypatch, planted)
    report = verify_identity("furtherwork", {"m_max": 4, "size_max": 20})
    m, lam = first
    assert report.first_mismatch["monomial"] == {"check": f"part_sum_{m}"}
    assert report.first_mismatch["lhs"] == [lam, sum(lam) + 1]
    assert (report.coefficients_checked, report.first_mismatch) \
        == _walked_readouts(4, 20)


@pytest.mark.parametrize("cells", [ver._CHUNK_CELLS, 64])
def test_furtherwork_reports_a_base_2_collision_as_the_walk_does(
        monkeypatch, cells):
    monkeypatch.setattr(ver, "_CHUNK_CELLS", cells)
    # (5, 1, 1) takes the image of (3, 3, 1); the part-sum fault at a
    # smaller size comes later in the walk
    twin = bij.generalized_hook_map(to_modular((3, 3, 1), 2)).parts
    _plant_hook_images(monkeypatch, {(2, (5, 1, 1)): twin,
                                     (3, (3, 1)): _one_more(3, (3, 1))})
    report = verify_identity("furtherwork", {"m_max": 4, "size_max": 20})
    assert report.first_mismatch == {
        "monomial": {"check": "collision_2_7"}, "lhs": [list(twin)],
        "rhs": []}
    assert report.coefficients_checked == 3 + 8
    assert (report.coefficients_checked, report.first_mismatch) \
        == _walked_readouts(4, 20)


@pytest.mark.parametrize("m_max, size_max", [
    (9, 6), (3, 6), (5, 1), (3, 0), (2, 0)])
def test_furtherwork_runs_no_base_past_the_size(monkeypatch, m_max, size_max):
    # every part is one cell at a base >= size_max, so the images repeat
    # there, and the report is the walk's over every base
    bases = []
    rows_map = ver.generalized_hook_map_rows

    def recorded(rows, m):
        bases.append(m)
        # above base 2 only the partitions whose first part is at least m
        assert m == 2 or rows[0].min() >= m
        return rows_map(rows, m)

    monkeypatch.setattr(ver, "generalized_hook_map_rows", recorded)
    report = verify_identity("furtherwork",
                             {"m_max": m_max, "size_max": size_max})
    assert max(bases) == min(m_max, max(size_max, 2))
    assert (report.coefficients_checked, report.first_mismatch) \
        == _walked_readouts(m_max, size_max)


def test_hook_map_images_repeat_past_the_size():
    lam = partition_domain(10, False)[0].astype(np.int64)
    want = bij.generalized_hook_map_rows(lam, 10)
    for m in (11, 40, 10**10):
        got = bij.generalized_hook_map_rows(lam, m)
        assert all(map(np.array_equal, got, want))
    # and a partition's image at a base above its first part is its
    # image at the base below, which furtherwork counts and does not map
    for m in range(3, 12):
        below = lam[0] < m
        got, want = (bij.generalized_hook_map_rows(lam[:, below], base)
                     for base in (m, m - 1))
        assert all(map(np.array_equal, got, want))


def test_furtherwork_at_a_huge_base_counts_every_base():
    report = run_verifier("furtherwork", m=10**10, n=8)
    assert report.passed
    # the two twins, collision_search(3, 13), a collision test per size
    # and one part sum per partition and base
    assert report.coefficients_checked == (
        3 + 9 + (10**10 - 1) * sum(partition_numbers(8)))


def test_furtherwork_needs_base_two_or_more():
    for m_max in (-1, 0, 1):
        with pytest.raises(VerifyError):
            verify_identity("furtherwork", {"m_max": m_max, "size_max": 5})
    with pytest.raises(VerifyError):
        verify_identity("furtherwork", {"size_max": -1})


_AT = {"first": lambda n: 0, "middle": lambda n: n // 2,
       "last": lambda n: n - 1}


def _plant(monkeypatch, fault):
    """Plant one fault where the dedicated checks read it:
    ("cell", axes, where, delta) adds delta to the first, middle or last
    cell of every histogram over axes, or to the cell indexed where, a
    tuple, of every such histogram that has it; ("class", where, delta)
    to the first, middle or last count of a colored side: of thm7's rows
    of colored classes in key order, or of the cells of thm6's (n, s, j)
    array or cor11's series in index order; ("image", name, parts) makes
    that bijection append a part 1 to the image of parts, and for
    bessenrodt_inverse, which prop1 runs as an array program, its array
    form bessenrodt_inverse_rows."""
    kind, *spec = fault
    if kind == "cell":
        axes, where, delta = spec
        real = ver.partition_histogram

        def histogram(*args, **kwargs):
            arr = real(*args, **kwargs)
            if tuple(args[0]) != axes:
                return arr
            if where in _AT:
                arr[np.unravel_index(_AT[where](arr.size), arr.shape)] += delta
            elif all(i < n for i, n in zip(where, arr.shape)):
                arr[where] += delta
            return arr
        monkeypatch.setattr(ver, "partition_histogram", histogram)
    elif kind == "class":
        where, delta = spec

        def planted(real, counts):
            def side(*args):
                out = real(*args)
                cells = counts(out)
                cells[np.unravel_index(_AT[where](cells.size),
                                       cells.shape)] += delta
                return out
            return side
        for name, counts in (("_colored_classes", lambda rows: rows[:, -1]),
                             ("_li_yee_classes", lambda arr: arr),
                             ("_two_colored", lambda f: f.coeffs)):
            monkeypatch.setattr(ver, name, planted(getattr(ver, name), counts))
    elif spec[0] == "bessenrodt_inverse":
        parts = spec[1]
        real = ver.bessenrodt_inverse_rows

        def images(rows):
            out, valid = real(rows)
            out = np.pad(out, ((0, 1), (0, 0)))
            hit = np.flatnonzero(
                (rows[:len(parts)] == np.array(parts, dtype=int)[:, None]).all(
                    axis=0) & (rows[len(parts):] == 0).all(axis=0))
            out[np.count_nonzero(out[:, hit], axis=0), hit] = 1
            return out, valid
        monkeypatch.setattr(ver, "bessenrodt_inverse_rows", images)
    else:
        name, parts = spec
        real = getattr(ver, name)

        def image(p):
            out = real(p)
            return Partition(tuple(out) + (1,)) if tuple(p) == parts else out
        monkeypatch.setattr(ver, name, image)


# the parameters that a check's arguments in PINNED_FAULTS set, in order
_ARGUMENTS = {"thm6": ("t",), "cor11": ("t", "r"), "eq20": ("t",)}

# (check, its arguments, planted fault, coefficients checked, first
# mismatch or None), recorded from the cell-by-cell and
# partition-by-partition loops these checks once ran; thm6's and cor11's
# "class" faults plant into their colored-side arrays, and their reports
# were recorded from those arrays
PINNED_FAULTS = [
    ("schmidt", (), ("cell", ("weight",), "first", 1), 16,
     {"monomial": {"n": 0}, "lhs": 2, "rhs": 1}),
    ("schmidt", (), ("cell", ("weight",), "first", -1), 16,
     {"monomial": {"n": 0}, "lhs": 0, "rhs": 1}),
    ("schmidt", (), ("cell", ("weight",), "middle", 1), 16,
     {"monomial": {"n": 8}, "lhs": 23, "rhs": 22}),
    ("schmidt", (), ("cell", ("weight",), "middle", -1), 16,
     {"monomial": {"n": 8}, "lhs": 21, "rhs": 22}),
    ("schmidt", (), ("cell", ("weight",), "last", 1), 16,
     {"monomial": {"n": 15}, "lhs": 177, "rhs": 176}),
    ("schmidt", (), ("cell", ("weight",), "last", -1), 16,
     {"monomial": {"n": 15}, "lhs": 175, "rhs": 176}),
    ("cor2", (), ("cell", ("size", "length"), "first", 1), 1,
     {"monomial": {"n": 0, "length": 0}, "lhs": 2, "rhs": 1}),
    ("cor2", (), ("cell", ("size", "length"), "first", -1), 1,
     {"monomial": {"n": 0, "length": 0}, "lhs": 0, "rhs": 1}),
    ("cor2", (), ("cell", ("size", "length"), "middle", 1), 37,
     {"monomial": {"n": 8, "length": 0}, "lhs": 1, "rhs": 0}),
    ("cor2", (), ("cell", ("size", "length"), "middle", -1), 37,
     {"monomial": {"n": 8, "length": 0}, "lhs": -1, "rhs": 0}),
    ("cor2", (), ("cell", ("size", "length"), "last", 1), 136,
     {"monomial": {"n": 15, "length": 15}, "lhs": 2, "rhs": 1}),
    ("cor2", (), ("cell", ("size", "length"), "last", -1), 136,
     {"monomial": {"n": 15, "length": 15}, "lhs": 0, "rhs": 1}),
    ("cor2", (), ("cell", ("weight", "size"), "first", 1), 1,
     {"monomial": {"n": 0, "length": 0}, "lhs": 1, "rhs": 2}),
    ("cor2", (), ("cell", ("weight", "size"), "first", -1), 1,
     {"monomial": {"n": 0, "length": 0}, "lhs": 1, "rhs": 0}),
    ("cor2", (), ("cell", ("weight", "size"), "middle", 1), 136,
     None),
    ("cor2", (), ("cell", ("weight", "size"), "middle", -1), 136,
     None),
    ("cor2", (), ("cell", ("weight", "size"), "last", 1), 121,
     {"monomial": {"n": 15, "length": 0}, "lhs": 0, "rhs": 1}),
    ("cor2", (), ("cell", ("weight", "size"), "last", -1), 121,
     {"monomial": {"n": 15, "length": 0}, "lhs": 0, "rhs": -1}),
    ("thm6", (2,), ("cell", ("weight", "length"), "first", 1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 2, "rhs": 1}),
    ("thm6", (2,), ("cell", ("weight", "length"), "first", -1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 0, "rhs": 1}),
    ("thm6", (2,), ("cell", ("weight", "length"), "middle", 1), 21,
     {"monomial": {"n": 4, "s": 4, "j": 2}, "lhs": 2, "rhs": 1}),
    ("thm6", (2,), ("cell", ("weight", "length"), "middle", -1), 21,
     {"monomial": {"n": 4, "s": 4, "j": 2}, "lhs": 0, "rhs": 1}),
    ("thm6", (2,), ("cell", ("weight", "length"), "last", 1), 73,
     {"monomial": {"n": 8, "s": 8, "j": 2}, "lhs": 2, "rhs": 1}),
    ("thm6", (2,), ("cell", ("weight", "length"), "last", -1), 73,
     {"monomial": {"n": 8, "s": 8, "j": 2}, "lhs": 0, "rhs": 1}),
    ("thm6", (2,), ("class", "first", 1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 1, "rhs": 2}),
    ("thm6", (2,), ("class", "first", -1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 1, "rhs": 0}),
    ("thm6", (2,), ("class", "middle", 1), 20,
     {"monomial": {"n": 4, "s": 4, "j": 1}, "lhs": 1, "rhs": 2}),
    ("thm6", (2,), ("class", "middle", -1), 20,
     {"monomial": {"n": 4, "s": 4, "j": 1}, "lhs": 1, "rhs": 0}),
    ("thm6", (2,), ("class", "last", 1), 73,
     {"monomial": {"n": 8, "s": 8, "j": 2}, "lhs": 1, "rhs": 2}),
    ("thm6", (2,), ("class", "last", -1), 73,
     {"monomial": {"n": 8, "s": 8, "j": 2}, "lhs": 1, "rhs": 0}),
    ("thm6", (3,), ("cell", ("weight", "length"), "first", 1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 2, "rhs": 1}),
    ("thm6", (3,), ("cell", ("weight", "length"), "first", -1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 0, "rhs": 1}),
    ("thm6", (3,), ("cell", ("weight", "length"), "middle", 1), 31,
     {"monomial": {"n": 4, "s": 4, "j": 3}, "lhs": 2, "rhs": 1}),
    ("thm6", (3,), ("cell", ("weight", "length"), "middle", -1), 31,
     {"monomial": {"n": 4, "s": 4, "j": 3}, "lhs": 0, "rhs": 1}),
    ("thm6", (3,), ("cell", ("weight", "length"), "last", 1), 109,
     {"monomial": {"n": 8, "s": 8, "j": 3}, "lhs": 2, "rhs": 1}),
    ("thm6", (3,), ("cell", ("weight", "length"), "last", -1), 109,
     {"monomial": {"n": 8, "s": 8, "j": 3}, "lhs": 0, "rhs": 1}),
    ("thm6", (3,), ("class", "first", 1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 1, "rhs": 2}),
    ("thm6", (3,), ("class", "first", -1), 1,
     {"monomial": {"n": 0, "s": 0, "j": 0}, "lhs": 1, "rhs": 0}),
    ("thm6", (3,), ("class", "middle", 1), 30,
     {"monomial": {"n": 4, "s": 4, "j": 2}, "lhs": 1, "rhs": 2}),
    ("thm6", (3,), ("class", "middle", -1), 30,
     {"monomial": {"n": 4, "s": 4, "j": 2}, "lhs": 1, "rhs": 0}),
    ("thm6", (3,), ("class", "last", 1), 109,
     {"monomial": {"n": 8, "s": 8, "j": 3}, "lhs": 1, "rhs": 2}),
    ("thm6", (3,), ("class", "last", -1), 109,
     {"monomial": {"n": 8, "s": 8, "j": 3}, "lhs": 1, "rhs": 0}),
    ("cor11", (2, 2), ("cell", ("anti", "first"), "first", 1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 2, "rhs": 1}),
    ("cor11", (2, 2), ("cell", ("anti", "first"), "first", -1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 0, "rhs": 1}),
    ("cor11", (2, 2), ("cell", ("anti", "first"), "middle", 1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 13, "rhs": 12}),
    ("cor11", (2, 2), ("cell", ("anti", "first"), "middle", -1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 11, "rhs": 12}),
    ("cor11", (2, 2), ("cell", ("anti", "first"), "last", 1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 87, "rhs": 86}),
    ("cor11", (2, 2), ("cell", ("anti", "first"), "last", -1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 85, "rhs": 86}),
    ("cor11", (2, 2), ("class", "first", 1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 1, "rhs": 2}),
    ("cor11", (2, 2), ("class", "first", -1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 1, "rhs": 0}),
    ("cor11", (2, 2), ("class", "middle", 1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 12, "rhs": 13}),
    ("cor11", (2, 2), ("class", "middle", -1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 12, "rhs": 11}),
    ("cor11", (2, 2), ("class", "last", 1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 86, "rhs": 87}),
    ("cor11", (2, 2), ("class", "last", -1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 86, "rhs": 85}),
    ("cor11", (3, 3), ("cell", ("anti", "first"), "first", 1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 2, "rhs": 1}),
    ("cor11", (3, 3), ("cell", ("anti", "first"), "first", -1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 0, "rhs": 1}),
    ("cor11", (3, 3), ("cell", ("anti", "first"), "middle", 1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 5, "rhs": 4}),
    ("cor11", (3, 3), ("cell", ("anti", "first"), "middle", -1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 3, "rhs": 4}),
    ("cor11", (3, 3), ("cell", ("anti", "first"), "last", 1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 15, "rhs": 14}),
    ("cor11", (3, 3), ("cell", ("anti", "first"), "last", -1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 13, "rhs": 14}),
    ("cor11", (3, 3), ("class", "first", 1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 1, "rhs": 2}),
    ("cor11", (3, 3), ("class", "first", -1), 1,
     {"monomial": {"n": 0, "first": 0}, "lhs": 1, "rhs": 0}),
    ("cor11", (3, 3), ("class", "middle", 1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 4, "rhs": 5}),
    ("cor11", (3, 3), ("class", "middle", -1), 39,
     {"monomial": {"n": 5, "first": 3}, "lhs": 4, "rhs": 3}),
    ("cor11", (3, 3), ("class", "last", 1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 14, "rhs": 15}),
    ("cor11", (3, 3), ("class", "last", -1), 77,
     {"monomial": {"n": 10, "first": 6}, "lhs": 14, "rhs": 13}),
    ("prop1", (), ("image", "bessenrodt_inverse", ()), 1,
     {"monomial": {"partition": []}, "lhs": [1, 1], "rhs": [0, 0]}),
    ("prop1", (), ("image", "bessenrodt_inverse", (6, 4, 2, 1)), 87,
     {"monomial": {"partition": [6, 4, 2, 1]}, "lhs": [4, 7], "rhs": [3, 7]}),
    ("prop1", (), ("image", "bessenrodt_inverse", (25,)), 763,
     {"monomial": {"partition": [25]}, "lhs": [26, 1], "rhs": [25, 1]}),
    ("eq20", (2,), ("cell", ("weight", "first", "size"), (3, 3, 5), 1), 468,
     {"monomial": {"q": 3, "s": 5, "n": 3}, "lhs": 2, "rhs": 1}),
    ("eq20", (2,), ("cell", ("weight", "first", "size"), (3, 3, 5), -1), 468,
     {"monomial": {"q": 3, "s": 5, "n": 3}, "lhs": 0, "rhs": 1}),
    ("table1", (), ("image", "bessenrodt", (1, 1, 1, 1, 1, 1, 1)), 1,
     {"monomial": {"partition": [7]},
      "lhs": [[7, 1], 7, 7], "rhs": [[7], 7, 7]}),
    ("table1", (), ("image", "bessenrodt", (5, 1, 1)), 3,
     {"monomial": {"partition": [5, 2]},
      "lhs": [[5, 2, 1], 7, 5], "rhs": [[5, 2], 7, 5]}),
    ("table1", (), ("image", "bessenrodt", (7,)), 5,
     {"monomial": {"partition": [4, 3]},
      "lhs": [[4, 3, 1], 7, 4], "rhs": [[4, 3], 7, 4]}),
]


@pytest.mark.parametrize(
    "ident, args, fault, checked, mismatch", PINNED_FAULTS,
    ids=["-".join(map(str, (ident, *args, *fault))).replace(" ", "")
         for ident, args, fault, *_ in PINNED_FAULTS])
def test_planted_fault_gives_the_pinned_report(
        monkeypatch, ident, args, fault, checked, mismatch):
    _plant(monkeypatch, fault)
    report = verify_identity(ident, dict(zip(_ARGUMENTS.get(ident, ()), args)))
    assert report.status == ("pass" if mismatch is None else "fail")
    assert (report.coefficients_checked, report.first_mismatch) \
        == (checked, mismatch)
    json.dumps(report.to_json())  # plain ints, no numpy scalars


def test_prop1_catches_an_arm_swapped_with_its_leg(monkeypatch):
    # a mutant of the array inverse map that swaps the outermost arm and
    # leg of every row, built from its source
    import inspect

    source = inspect.getsource(bij.bessenrodt_inverse_rows)
    line = "        legs[i] = delta[2 * i] - arms[i] - 1\n"
    swap = ("        if i == 0:\n"
            "            arms[i], legs[i] = legs[i], arms[i].copy()\n")
    assert source.count(line) == 1
    namespace = dict(vars(bij))
    exec(source.replace(line, line + swap), namespace)
    monkeypatch.setattr(ver, "bessenrodt_inverse_rows",
                        namespace["bessenrodt_inverse_rows"])
    report = verify_identity("prop1")
    assert report.status == "fail"
    # (2) comes from (1, 1) through the diagram (1, 1) with arm 0 and
    # leg 1; swapped, they give (2) and so (3)
    assert report.first_mismatch == {"monomial": {"partition": [2]},
                                     "lhs": [1, 3], "rhs": [2, 1]}
    assert report.coefficients_checked == 3


# a cell of each array-side check's right side, named as its mismatch
# report names it, and the report at the defaults with that cell plus 1
PERTURBED = {
    "schmidt": ({"n": 3}, 16, 3),
    "cor2": ({"n": 4, "length": 2}, 13, 2),
    "thm6": ({"n": 4, "s": 2, "j": 1}, 16, 4),
    "cor11": ({"n": 2, "first": 1}, 16, 2),
    "eq20": ({"q": 3, "s": 5, "n": 3}, 468, 1),
    "eq24": ({"q": 1, "s": 2}, 385, 0),
}


@pytest.mark.parametrize("ident", [i for i in THEOREM_IDS
                                   if i not in IDENTITY_IDS])
def test_perturb_on_a_dedicated_check_needs_a_closed_form(ident):
    # every check with two sides takes perturb; the dedicated verifiers
    # do not
    if ident in PERTURBED:
        cell, checked, lhs = PERTURBED[ident]
        report = verify_identity(ident, perturb=cell)
        assert (report.status, report.coefficients_checked,
                report.first_mismatch) == (
            "fail", checked, {"monomial": cell, "lhs": lhs, "rhs": lhs + 1})
        return
    with pytest.raises(VerifyError, match=f"^{ident} takes no perturb$"):
        verify_identity(ident, perturb={"q": 1})


def test_perturb_stays_in_the_box_and_in_int64(monkeypatch):
    for ident in ("thm5.1", "eq24"):
        with pytest.raises(qs.OutOfBox):
            verify_identity(ident, perturb={"q": 99})
    # an array side's cells: past an axis, and on an axis it has not
    for cell in ({"n": 16}, {"n": -1}, {"q": 1}):
        with pytest.raises(qs.OutOfBox):
            verify_identity("schmidt", perturb=cell)
    monkeypatch.setattr(ver, "rhs_series", lambda ident, params, box:
                        TruncatedSeries.constant(box, 2 ** 63 - 1))
    with pytest.raises(qs.CoefficientOverflow):
        verify_identity("thm5.1", box={"q": 4, "z": 4}, perturb={"q": 0})


def test_functional_equation_fault_injection():
    report = verify_identity("eq24", {"t": 2}, perturb={"q": 1, "s": 2})
    assert not report.passed
    assert report.first_mismatch["monomial"] == {"q": 1, "s": 2}


def test_recurrence_matches_enumeration_columns():
    box = {"q": 6, "s": 10}
    for n in range(4):
        f = f_recurrence(n, 2, box)
        assert isinstance(f, TruncatedSeries)
    report = verify_identity("eq20", {"t": 2, "n_max": 3}, box=box)
    assert report.passed
    # heads q^m s^(m + k(t-1)) beyond the default box contribute nothing,
    # and the Gaussian binomials' factors past the s bound are 1 in the box
    for t in (3, 4, 5):
        assert verify_identity("eq20", {"t": t}).passed


def test_recurrence_past_the_box_width_passes_at_any_t():
    # past t = s + 1 the recurrence keeps s + 1 running sums; the
    # histogram it is checked against takes t as it is
    s = ver._entry("eq20").box["s"]
    for t in (s, s + 1, s + 2):
        assert verify_identity("eq20", {"t": t}).passed, t
    start = time.perf_counter()
    report = verify_identity("eq20", {"t": 10**6})
    assert time.perf_counter() - start < 1
    assert report.passed, report.first_mismatch


def test_recurrence_past_the_box_is_zero():
    # the largest part n counts in the weight (q) and the size (s)
    box = {"q": 5, "s": 7}
    for n in (6, 7, 10 ** 12):
        f = f_recurrence(n, 2, box)
        assert f.variables == ("q", "s") and not f.coeffs.any()
    assert f_recurrence(5, 2, box).coeffs.any()


@pytest.mark.parametrize("t", [2, 3])
def test_recurrence_matches_histogram_above_full_box(t):
    # above the full suite's n_max 9 and box q <= 12, s <= 18
    box = {"q": 16, "s": 30}
    arr = partition_histogram(("weight", "first", "size"), (16, 10, 30),
                              t=t, r=1)
    for n in range(11):
        assert np.array_equal(f_recurrence(n, t, box).coeffs, arr[:, n, :])


def reference_f_series(n_max, t, box):
    """The largest-part recurrence on Python ints, each Gaussian binomial
    by the q-Pascal rule, each term a truncated product and the division a
    power-series quotient."""
    shape = (box["q"] + 1, box["s"] + 1)
    one = np.zeros(shape, dtype=object)
    one[0, 0] = 1
    f = [one]
    for m in range(1, n_max + 1):
        acc = np.zeros(shape, dtype=object)
        for k in range(m):
            hq, hs = m, m + k * (t - 1)
            if hq >= shape[0] or hs >= shape[1]:
                continue
            gb = q_binomial(m - k + t - 1, t - 1)[:shape[1] - hs]
            term = np.zeros(shape, dtype=object)
            term[hq, hs:hs + len(gb)] = gb
            acc += truncated_product(term, f[k])
        divisor = one.copy()
        if m < shape[0] and m * t < shape[1]:
            divisor[m, m * t] = -1
        f.append(quotient(acc, divisor))
    return f


def _coefficients(f, box):
    assert f.box_dict() == box
    return f.coeffs.tolist()


@pytest.mark.parametrize("box", [{"q": 16, "s": 30}, {"q": 10, "s": 10},
                                 {"q": 5, "s": 25}])
def test_recurrence_matches_binomial_reference(box):
    for t in range(1, 6):
        want = [g.tolist() for g in reference_f_series(12, t, box)]
        assert _coefficients(f_recurrence(12, t, box), box) == want[12]
        assert [_coefficients(g, box) for g in ver._f_series(12, t, box)] \
            == want


# windows that go empty: at t 5, q 3, s 2 the window is empty from m = 4,
# the s^((m-1)(t-1)) shift passes s from m = 2 and the s^u shift at u > 2;
# at t 3, q 9, s 3 the s^((m-1)(t-1)) shift passes s from m = 3 while m <= q
@example(8, 5, 3, 2)
@example(8, 3, 9, 3)
@example(5, 2, 0, 0)
@example(4, 4, 9, 0)
@example(6, 1, 0, 14)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(1, 5), st.integers(0, 9),
       st.integers(0, 14))
def test_recurrence_running_sums_match_the_binomial_reference(n_max, t, q, s):
    box = {"q": q, "s": s}
    want = [g.tolist() for g in reference_f_series(n_max, t, box)]
    assert [_coefficients(g, box) for g in ver._f_series(n_max, t, box)] \
        == want


def test_recurrence_sums_raise_where_their_counts_leave_int64():
    # at t 2 every f_n fits on q, s <= 507; at 508 a running sum's count
    # leaves int64 first, and the in-place add's wrap check raises
    ver._f_series(507, 2, {"q": 507, "s": 507})
    with pytest.raises(qs.CoefficientOverflow) as raised:
        ver._f_series(508, 2, {"q": 508, "s": 508})
    assert [entry.name for entry in raised.traceback[-2:]] == \
        ["_f_series", "_no_wrap"]


@pytest.mark.parametrize("t", [1, 2, 3, 5])
@pytest.mark.parametrize("box", [{"q": 16, "s": 30}, {"q": 5, "s": 8}])
def test_recurrence_takes_one_shift_pass_per_largest_part(monkeypatch, t,
                                                          box):
    # one division by 1 - q^m s^(mt) per m and no pass per (m, k) pair:
    # the running sums keep the recurrence at O(n) shift passes
    divide = qs._divide
    calls = []

    def counted(coeffs, variables, products, bound=None):
        calls.append(products)
        return divide(coeffs, variables, products, bound)

    monkeypatch.setattr(qs, "_divide", counted)
    ver._f_series(12, t, box)
    assert calls == [[({"q": m, "s": m * t}, {}, 1)] for m in range(1, 13)]


def test_quick_suite_takes_no_series_product():
    # the series layer has no general product: `*` on two series is a
    # TypeError, so every check the suite runs divides only by
    # Pochhammer factors
    assert "__mul__" not in vars(TruncatedSeries)
    f = TruncatedSeries.constant({"q": 1}, 2)
    with pytest.raises(TypeError):
        f * f
    with pytest.raises(TypeError):
        3 * f
    assert run_suite("quick").passed


def test_public_api():
    names = partbij.__all__
    assert names == sorted(names)
    assert all(hasattr(partbij, name) for name in names)
    removed = {"BoxTooSmall", "count_in_box", "count_partitions",
               "enumerate_colored", "equal_in_box", "invert", "pochhammer",
               "q_binomial", "durfee_size", "hook_length", "to_frobenius",
               "from_frobenius", "FrobeniusCoords", "CellOutOfDiagram",
               "InvalidFrobenius"}
    # the dedicated verifiers run through verify_identity, and six of
    # them are gone: their checks are array sides
    dedicated = {entry.verifier for entry in ver.CATALOG if entry.verifier}
    gone = {"verify_schmidt", "verify_schmidt_refinement", "verify_li_yee",
            "verify_opposite_schmidt", "verify_recurrence",
            "verify_functional_equation"}
    assert not any(hasattr(ver, name) for name in gone)
    assert not hasattr(ver, "inspect")
    removed |= dedicated | gone
    # only the tests called these; conjugate and color_profile are
    # oracles in tests/reference.py
    removed |= {"color_profile", "conjugate", "default_box"}
    # eq24's substituted side is a gather, and the tests divide by
    # series._divide on a copy
    removed |= {"substitute", "divide_pochhammer"}
    # no check compares two series, and both kernels raise the one
    # CoefficientOverflow
    removed |= {"first_mismatch", "BoxMismatch", "_check_aligned",
                "HistogramOverflow"}
    assert len(removed) == 34
    assert not removed & set(names)
    for module in (partbij, partbij.partitions, qs, _accel):
        assert not any(hasattr(module, name) for name in removed)
    assert not hasattr(ver, "default_box")
    # and the methods only the tests called; equality and hashing are
    # object's again
    cut = {TruncatedSeries: {"from_terms", "coefficient", "terms", "__add__",
                             "__eq__", "__hash__", "__repr__", "to_json",
                             "_check_aligned"},
           ColoredPartition: {"part", "color", "color_counts"},
           Partition: {"part"},
           qs: {"_expand", "_sum", "_max_abs", "_overflow"}}
    for owner, methods in cut.items():
        assert not methods & set(vars(owner)), owner


def test_defaults_match_catalog():
    args = cli._build_parser().parse_args(["table", "bessenrodt"])
    assert args.n == ver._entry("table1").params["n"]


def test_table_rows_are_sorted_by_weight():
    rows = table_bessenrodt(7)
    weights = [w for w, _, _ in rows]
    assert weights == sorted(weights, reverse=True)
    assert len(rows) == 5


def test_run_verifier_dispatches_every_id():
    cheap = {
        "schmidt": dict(n=6),
        "prop1": dict(n=8),
        "cor2": dict(n=6),
        "thm6": dict(t=2, n=5),
        "thm7": dict(t=2, r=2, n=8),
        "cor11": dict(t=2, r=2, k=3, n=5),
        "eq20": dict(t=2, n=3),
        "eq24": dict(t=2),
        "table1": dict(n=7),
        "furtherwork": dict(m=3, n=10),
    }
    for ident in THEOREM_IDS:
        if ident in SMALL:
            params, box = SMALL[ident]
            report = run_verifier(ident, box=box, **params)
        else:
            report = run_verifier(ident, **cheap[ident])
        assert report.id == ident
        assert report.passed, (ident, report.first_mismatch)


def test_run_verifier_rejects_unknown_id():
    with pytest.raises(VerifyError):
        run_verifier("thm99")


def test_suite_quick_is_green():
    suite = run_suite(level="quick")
    assert suite.level == "quick"
    assert suite.passed
    assert suite.failures() == []
    assert len(suite.reports) == 69
    assert [r.id for r in suite.reports] == sorted(
        (r.id for r in suite.reports), key=THEOREM_IDS.index
    )
    data = suite.to_json()
    assert data["passed"] is True
    assert len(data["reports"]) == 69


def test_suite_report_failure_accounting():
    good = VerificationReport("thm3.1", {}, {"q": 2, "z": 4}, "pass", 5, 0.1)
    bad = VerificationReport("thm3.2", {}, {"q": 2, "z": 2}, "fail", 5, 0.1,
                             first_mismatch={"monomial": {"q": 1},
                                             "lhs": 0, "rhs": 1})
    suite = SuiteReport("quick", [good, bad])
    assert not suite.passed
    assert suite.failures() == [bad]
    assert suite.to_json()["passed"] is False
