import json

import numpy as np
import pytest

import partbij.bijections as bij
import partbij.verify as ver
from partbij.colored import enumerate_colored
from partbij.partitions import (
    Partition,
    enumerate_partitions,
    from_modular,
    partition_blocks,
    to_modular,
)
from partbij.series import TruncatedSeries, equal_in_box
from partbij.verify import (
    IDENTITY_IDS,
    THEOREM_IDS,
    DegenerateParams,
    SuiteReport,
    UnboundedBox,
    VerificationReport,
    VerifyError,
    _colored_class_counts,
    default_box,
    f_recurrence,
    lhs_series,
    rhs_series,
    run_suite,
    run_verifier,
    table_bessenrodt,
    verify_color_conjugate,
    verify_euler_refinement,
    verify_functional_equation,
    verify_furtherwork,
    verify_identity,
    verify_li_yee,
    verify_opposite_schmidt,
    verify_recurrence,
    verify_schmidt,
    verify_schmidt_refinement,
    verify_table,
)

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


def test_box_variable_set_is_checked():
    with pytest.raises(VerifyError):
        lhs_series("thm3.1", {}, {"q": 4})
    with pytest.raises(VerifyError):
        rhs_series("thm3.1", {}, {"q": 4, "z": 4, "s": 4})


def test_unbounded_and_degenerate_params():
    with pytest.raises(UnboundedBox):
        lhs_series("cor10", {"t": 1, "r": 1}, {"q": 4, "z": 4})
    with pytest.raises(DegenerateParams):
        rhs_series("cor10", {"t": 1, "r": 1}, {"q": 4, "z": 4})
    with pytest.raises(DegenerateParams):
        verify_opposite_schmidt(1, 2)
    with pytest.raises(DegenerateParams):
        verify_opposite_schmidt(2, 1)


def test_special_case_collapse():
    # cor10 at t=2, r=2 collapses to the first-part identity thm5.1
    box = {"q": 6, "z": 6}
    assert equal_in_box(rhs_series("cor10", {"t": 2, "r": 2}, box),
                        rhs_series("thm5.1", {}, box))
    assert equal_in_box(lhs_series("cor10", {"t": 2, "r": 2}, box),
                        lhs_series("thm5.1", {}, box))


def test_defaults_cover_every_identity():
    for ident in IDENTITY_IDS:
        assert default_box(ident)
        report = verify_identity(ident)
        assert report.passed
        break  # full default boxes run in the suite; one here keeps this fast
    assert default_box("thm8.2", {"t": 3}) == \
        {"q": 8, "z1": 4, "z2": 4, "z3": 4}
    with pytest.raises(VerifyError):
        default_box("nope")


def test_counting_verifiers_pass_small():
    assert verify_schmidt(n_max=8).passed
    assert verify_schmidt_refinement(n_max=8).passed
    assert verify_euler_refinement(n_max=12).passed
    assert verify_li_yee(2, n_max=6).passed
    assert verify_color_conjugate(2, 2, size_max=10).passed
    assert verify_opposite_schmidt(2, 2, k_max=4, n_max=6).passed
    assert verify_recurrence(2, n_max=4).passed
    assert verify_functional_equation(2).passed
    assert verify_table(7).passed
    assert verify_furtherwork(m_max=3, size_max=12).passed


def _tally(colored, bound, weight, admits=lambda p, i: True):
    """Colored partitions keyed (weight, size, color counts), one by one."""
    tally = {}
    for mu in colored:
        if all(admits(p, i) for p, i in mu.entries):
            key = (sum(weight(p, i) for p, i in mu.entries), mu.size(),
                   mu.color_counts())
            if key[0] <= bound:
                tally[key] = tally.get(key, 0) + 1
    return tally


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_colored_class_counts_match_enumeration(t):
    size_max = 10
    colored = [mu for n in range(size_max + 1)
               for mu in enumerate_colored(n, t)]
    # thm7: part p of color i reassembles to (r-1) + t(p-1) + i
    for r in (1, 2, 3, 4):
        def weight(p, i):
            return r - 1 + t * (p - 1) + i

        assert _colored_class_counts(t, weight, size_max) == \
            _tally(colored, size_max, weight), r
    # thm6: every part weighs itself
    part = lambda p, i: p
    assert _colored_class_counts(t, part, size_max) == \
        _tally(colored, size_max, part)
    # cor11: color 2 only on the sizes r-1, r-1 + (t-1), ...
    if t == 2:
        for step, r in ((1, 2), (2, 2), (2, 3), (3, 4)):
            def admits(p, i):
                return i == 1 or (p >= r - 1 and (p - r + 1) % step == 0)

            assert _colored_class_counts(2, part, size_max, admits) == \
                _tally(colored, size_max, part, admits), (step, r)


def test_color_conjugate_catches_a_miscounted_class(monkeypatch):
    import partbij.verify as ver

    t, r, size_max = 2, 2, 10
    counts = _colored_class_counts(
        t, lambda p, i: r - 1 + t * (p - 1) + i, size_max)
    key = base, n, prof = max(counts)
    planted = {**counts, key: counts[key] + 1}
    monkeypatch.setattr(ver, "_colored_class_counts", lambda *args: planted)
    report = verify_color_conjugate(t, r, size_max)
    assert report.status == "fail"
    # the class's first pair has an empty head, so first and row_r are
    # both the length of the colored partition
    k = sum(prof)
    assert report.first_mismatch == {
        "monomial": {"size": base, "first": k, "row_r": k, "weight": n,
                     "profile": list(prof)},
        "lhs": counts[key], "rhs": counts[key] + 1,
    }


def test_color_conjugate_class_mismatch_report_is_plain_json(monkeypatch):
    import partbij.verify as ver

    t, r, size_max = 3, 1, 9
    counts = _colored_class_counts(
        t, lambda p, i: r - 1 + t * (p - 1) + i, size_max)
    key = sorted(counts)[len(counts) // 2]
    planted = {**counts, key: counts[key] - 1}
    monkeypatch.setattr(ver, "_colored_class_counts", lambda *args: planted)
    report = verify_color_conjugate(t, r, size_max)
    assert report.status == "fail"
    assert json.loads(json.dumps(report.to_json()))["coefficients_checked"] \
        == report.coefficients_checked


@pytest.mark.parametrize("t, r", [(2, 1), (3, 2), (2, 3)])
def test_color_conjugate_catches_a_wrong_colour(monkeypatch, t, r):
    import partbij.verify as ver
    from partbij.bijections import color_conjugate_rows

    def recoloured(rows, t, r):
        # colour h mod t + 1 instead of (h - 1) mod t + 1
        nu, mu, colors = color_conjugate_rows(rows, t, r)
        return nu, mu, np.where(mu > 0, colors % t + 1, 0)

    # the first partition, in enumeration order, that the two maps colour
    # differently: the column of r ones
    rows = np.concatenate(list(partition_blocks(8)))
    differs = (recoloured(rows, t, r)[2]
               != color_conjugate_rows(rows, t, r)[2]).any(axis=1)
    i = int(np.argmax(differs))
    first = np.trim_zeros(rows[i], "b").tolist()
    assert first == [1] * r
    monkeypatch.setattr(ver, "color_conjugate_rows", recoloured)
    report = verify_color_conjugate(t, r, size_max=8)
    assert report.status == "fail"
    assert report.coefficients_checked == i + 1
    assert report.first_mismatch["monomial"] == {
        "partition": first, "t": t, "r": r}
    assert report.first_mismatch["rhs"] == [first, 1, 0, 1, 1,
                                            [1] + [0] * (t - 1)]


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
            hit = (rows[:, :len(lam)] == lam).all(axis=1) \
                & (rows[:, len(lam):] == 0).all(axis=1)
            if base == m and hit.any():
                image = np.pad(image, ((0, 0), (0, len(parts))))
                image[hit] = 0
                image[hit, :len(parts)] = parts
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


@pytest.mark.parametrize("faults, first", [
    # a later m loses to an earlier one, whatever the sizes
    ([(4, (2, 1)), (3, (7, 5, 3, 2, 1))], (3, [7, 5, 3, 2, 1])),
    ([(2, (1,) * 20)], (2, [1] * 20)),
    ([(4, (20,)), (4, (1,))], (4, [1])),
])
@pytest.mark.parametrize("cells", [ver._CHUNK_CELLS, 64])
def test_furtherwork_reports_a_wrong_part_as_the_walk_does(
        monkeypatch, faults, first, cells):
    monkeypatch.setattr(ver, "_CHUNK_CELLS", cells)  # 64: 2 rows a chunk
    planted = {(m, lam): _one_more(m, lam) for m, lam in faults}
    _plant_hook_images(monkeypatch, planted)
    report = verify_furtherwork(m_max=4, size_max=20)
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
                                     (3, (2, 1)): _one_more(3, (2, 1))})
    report = verify_furtherwork(m_max=4, size_max=20)
    assert report.first_mismatch == {
        "monomial": {"check": "collision_2_7"}, "lhs": [list(twin)],
        "rhs": []}
    assert report.coefficients_checked == 3 + 8
    assert (report.coefficients_checked, report.first_mismatch) \
        == _walked_readouts(4, 20)


def test_furtherwork_needs_base_two_or_more():
    for m_max in (-1, 0, 1):
        with pytest.raises(VerifyError):
            verify_furtherwork(m_max=m_max, size_max=5)
    with pytest.raises(VerifyError):
        verify_furtherwork(size_max=-1)


_AT = {"first": lambda n: 0, "middle": lambda n: n // 2,
       "last": lambda n: n - 1}


def _plant(monkeypatch, fault):
    """Plant one fault where the dedicated checks read it:
    ("cell", axes, where, delta) adds delta to the first, middle or last
    cell of every histogram over axes; ("class", where, delta) to the
    first, middle or last knapsack class in key order; ("image", name,
    parts) makes that bijection append a part 1 to the image of parts."""
    kind, *spec = fault
    if kind == "cell":
        axes, where, delta = spec
        real = ver.partition_histogram

        def histogram(*args, **kwargs):
            arr = real(*args, **kwargs)
            if tuple(args[0]) == axes:
                arr[np.unravel_index(_AT[where](arr.size), arr.shape)] += delta
            return arr
        monkeypatch.setattr(ver, "partition_histogram", histogram)
    elif kind == "class":
        where, delta = spec
        real = ver._colored_class_counts

        def classes(*args, **kwargs):
            counts = real(*args, **kwargs)
            key = sorted(counts)[_AT[where](len(counts))]
            return {**counts, key: counts[key] + delta}
        monkeypatch.setattr(ver, "_colored_class_counts", classes)
    else:
        name, parts = spec
        real = getattr(ver, name)

        def image(p):
            out = real(p)
            return Partition(tuple(out) + (1,)) if tuple(p) == parts else out
        monkeypatch.setattr(ver, name, image)


_DEDICATED = {
    "schmidt": verify_schmidt,
    "cor2": verify_schmidt_refinement,
    "prop1": verify_euler_refinement,
    "table1": verify_table,
    "thm6": verify_li_yee,
    "cor11": verify_opposite_schmidt,
}

# (check, its arguments, planted fault, coefficients checked, first
# mismatch or None), recorded from the cell-by-cell and
# partition-by-partition loops these checks once ran
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
    ("thm6", (2,), ("class", "middle", 1), 45,
     {"monomial": {"n": 7, "s": 1, "j": 2}, "lhs": 7, "rhs": 8}),
    ("thm6", (2,), ("class", "middle", -1), 45,
     {"monomial": {"n": 7, "s": 1, "j": 2}, "lhs": 7, "rhs": 6}),
    ("thm6", (2,), ("class", "last", 1), 72,
     {"monomial": {"n": 8, "s": 8, "j": 1}, "lhs": 1, "rhs": 2}),
    ("thm6", (2,), ("class", "last", -1), 72,
     {"monomial": {"n": 8, "s": 8, "j": 1}, "lhs": 1, "rhs": 0}),
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
    ("thm6", (3,), ("class", "middle", 1), 76,
     {"monomial": {"n": 7, "s": 4, "j": 3}, "lhs": 22, "rhs": 23}),
    ("thm6", (3,), ("class", "middle", -1), 76,
     {"monomial": {"n": 7, "s": 4, "j": 3}, "lhs": 22, "rhs": 21}),
    ("thm6", (3,), ("class", "last", 1), 107,
     {"monomial": {"n": 8, "s": 8, "j": 1}, "lhs": 1, "rhs": 2}),
    ("thm6", (3,), ("class", "last", -1), 107,
     {"monomial": {"n": 8, "s": 8, "j": 1}, "lhs": 1, "rhs": 0}),
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
    ("cor11", (2, 2), ("class", "middle", 1), 62,
     {"monomial": {"n": 8, "first": 5}, "lhs": 38, "rhs": 39}),
    ("cor11", (2, 2), ("class", "middle", -1), 62,
     {"monomial": {"n": 8, "first": 5}, "lhs": 38, "rhs": 37}),
    ("cor11", (2, 2), ("class", "last", 1), 77,
     None),
    ("cor11", (2, 2), ("class", "last", -1), 77,
     None),
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
    ("cor11", (3, 3), ("class", "middle", 1), 61,
     {"monomial": {"n": 8, "first": 4}, "lhs": 14, "rhs": 15}),
    ("cor11", (3, 3), ("class", "middle", -1), 61,
     {"monomial": {"n": 8, "first": 4}, "lhs": 14, "rhs": 13}),
    ("cor11", (3, 3), ("class", "last", 1), 77,
     None),
    ("cor11", (3, 3), ("class", "last", -1), 77,
     None),
    ("prop1", (), ("image", "bessenrodt_inverse", ()), 1,
     {"monomial": {"partition": []}, "lhs": [1, 1], "rhs": [0, 0]}),
    ("prop1", (), ("image", "bessenrodt_inverse", (6, 4, 2, 1)), 87,
     {"monomial": {"partition": [6, 4, 2, 1]}, "lhs": [4, 7], "rhs": [3, 7]}),
    ("prop1", (), ("image", "bessenrodt_inverse", (25,)), 763,
     {"monomial": {"partition": [25]}, "lhs": [26, 1], "rhs": [25, 1]}),
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
    report = _DEDICATED[ident](*args)
    assert report.status == ("pass" if mismatch is None else "fail")
    assert (report.coefficients_checked, report.first_mismatch) \
        == (checked, mismatch)
    json.dumps(report.to_json())  # plain ints, no numpy scalars


def test_functional_equation_fault_injection():
    report = verify_functional_equation(2, perturb={"q": 1, "s": 2})
    assert not report.passed
    assert report.first_mismatch["monomial"] == {"q": 1, "s": 2}


def test_recurrence_matches_enumeration_columns():
    box = {"q": 6, "s": 10}
    for n in range(4):
        f = f_recurrence(n, 2, box)
        assert isinstance(f, TruncatedSeries)
    report = verify_recurrence(2, n_max=3, box=box)
    assert report.passed
    # heads q^m s^(m + k(t-1)) beyond the default box contribute nothing,
    # and Gaussian binomials of degree past the s bound are cut to the box
    for t in (3, 4, 5):
        assert verify_recurrence(t).passed


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
