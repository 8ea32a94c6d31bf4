"""Acceptance gate: seventeen checks, one test each, exact integer equality.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion; `-s` additionally prints the inner check lines.
"""

import time

import numpy as np

from partbij.bijections import (
    bessenrodt,
    collision_search,
    color_conjugate,
    color_conjugate_inverse,
    generalized_hook_map,
    modular_fill_inverse,
    mork,
    mork_inverse,
)
from partbij.colored import ColoredPartition
from partbij.partitions import (
    ModularDiagram,
    Partition,
    enumerate_partitions,
)
from partbij._accel import partition_histogram
from partbij.verify import (
    lhs_series,
    rhs_series,
    table_bessenrodt,
    verify_identity,
)


def check(name, condition, detail=""):
    mark = "ok" if condition else "FAIL"
    print(f"  [{mark}] {name}" + (f": {detail}" if detail and not condition else ""))
    assert condition, f"{name}: {detail}"


def test_criterion_01_mork_worked_example():
    lam = mork(Partition([7, 5, 4, 4, 2, 1]))
    check("mork([7,5,4,4,2,1]) = [12,10,7,5,3,2,1]",
          lam == (12, 10, 7, 5, 3, 2, 1), str(lam))
    check("inverse roundtrip", mork_inverse(lam) == (7, 5, 4, 4, 2, 1))


def test_criterion_02_mork_invariants_to_25():
    start = time.perf_counter()
    count = 0
    for n in range(26):
        for mu in enumerate_partitions(n):
            lam = mork(mu)
            parts = list(lam)
            assert all(a > b for a, b in zip(parts, parts[1:]))
            assert sum(parts[0::2]) == n
            assert sum(parts[1::2]) == n - mu.length()
            assert lam.size() == 2 * n - mu.length()
            assert mork_inverse(lam) == mu
            count += 1
    elapsed = time.perf_counter() - start
    check(f"invariants for {count} partitions", count >= 6600)
    check("under 5 s", elapsed < 5.0, f"{elapsed:.2f} s")


def test_criterion_03_bessenrodt_composite_and_table():
    for n in range(26):
        for omega in enumerate_partitions(n, odd_parts=True):
            lam = bessenrodt(omega)
            assert lam == mork(modular_fill_inverse(omega))
            assert lam.size() == n
    check("bessenrodt agrees with the composite map and preserves size, n <= 25",
          True)
    rows = table_bessenrodt(7)
    expected = [
        (7, (7,), (1, 1, 1, 1, 1, 1, 1)),
        (6, (6, 1), (3, 1, 1, 1, 1)),
        (5, (5, 2), (5, 1, 1)),
        (5, (4, 2, 1), (3, 3, 1)),
        (4, (4, 3), (7,)),
    ]
    check("table rows at n=7", [tuple(r) for r in rows] == expected, str(rows))


def test_criterion_04_distinct_parts_statistics():
    report = verify_identity("prop1", {"n_max": 25})
    check("length and first-part statistics for distinct lambda, |lambda| <= 25",
          report.passed, str(report.first_mismatch))


def test_criterion_05_weight_counts_to_15():
    report = verify_identity("cor2", {"n_max": 15})
    check("refined weight counts for n <= 15, all lengths",
          report.passed, str(report.first_mismatch))


def test_criterion_06_distinct_weight_series():
    r1 = verify_identity("thm3.1", box={"q": 12, "z": 24})
    check("thm3.1 on q<=12, z<=24", r1.passed, str(r1.first_mismatch))
    r2 = verify_identity("thm3.2", box={"q": 12, "z": 12})
    check("thm3.2 on q<=12, z<=12", r2.passed, str(r2.first_mismatch))
    f = lhs_series("eq3", {}, {"q": 3, "z": 16})
    printed = {
        0: {0: 1},
        1: {1: 1},
        2: {2: 1, 3: 1},
        3: {3: 1, 4: 1, 5: 1},
    }
    for n, coeffs in printed.items():
        for z in range(17):
            want = coeffs.get(z, 0)
            got = int(f.coeffs[n, z])
            assert got == want, (n, z, got, want)
    check("printed expansion p_0..p_3", True)


def test_criterion_07_length_classes_mod_four():
    r1 = verify_identity("thm4.1", box={"q": 12, "z": 12})
    check("thm4.1 on q<=12, z<=12", r1.passed, str(r1.first_mismatch))
    r2 = verify_identity("thm4.2", box={"q": 12, "z": 12})
    check("thm4.2 on q<=12, z<=12", r2.passed, str(r2.first_mismatch))
    for n in range(25):
        in_03 = in_12 = 0
        for lam in enumerate_partitions(n, distinct=True):
            a = lam.length() % 4 in (0, 3)
            b = lam.length() % 4 in (1, 2)
            assert a != b
            in_03 += a
            in_12 += b
        total = len(list(enumerate_partitions(n, distinct=True)))
        assert in_03 + in_12 == total
    check("length classes are disjoint and cover, |lambda| <= 24", True)
    box = {"q": 12, "z": 12}
    union = (lhs_series("thm4.1", {}, box).coeffs
             + lhs_series("thm4.2", {}, box).coeffs)
    cap = 12
    everything = partition_histogram(
        ("weight", "first"), (12, 12), t=4, r=1,
        distinct=True, max_len=cap,
    )
    check("class series sum to the unrestricted series",
          np.array_equal(union, everything))


def test_criterion_08_first_part_series():
    r1 = verify_identity("thm5.1", box={"q": 12, "z": 12})
    check("thm5.1 on q<=12, z<=12", r1.passed, str(r1.first_mismatch))
    r2 = verify_identity("thm5.2", box={"q": 12, "z": 12})
    check("thm5.2 on q<=12, z<=12", r2.passed, str(r2.first_mismatch))
    for n in range(5):
        r = verify_identity("eq14", params={"n": n}, box={"q": 10, "z": 10})
        check(f"eq14 at n={n} on q<=10, z<=10", r.passed,
              str(r.first_mismatch))


def test_criterion_09_color_conjugate():
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            report = verify_identity("thm7", {"t": t, "r": r, "size_max": 18})
            check(f"roundtrip and statistics t={t} r={r}, |lambda| <= 18",
                  report.passed, str(report.first_mismatch))
    lam = Partition([9, 7, 6, 5, 4, 4, 4, 4, 3, 2, 1])
    nu, mu = color_conjugate(lam, 3, 4)
    check("figure instance", nu == (4, 2, 1) and mu == ColoredPartition(
        [(3, 2), (3, 1), (2, 3), (2, 2), (1, 1)], 3))
    check("figure inverse", color_conjugate_inverse(nu, mu, 3, 4) == lam)
    nu2, mu2 = color_conjugate(Partition([4, 4, 3, 3, 3, 3]), 3, 1)
    check("remark instance", nu2 == () and mu2 == ColoredPartition(
        [(2, 3), (2, 3), (2, 3), (1, 2)], 3))


def test_criterion_10_multi_residue_series():
    for t in (1, 2, 3, 4):
        for r in (1, 2, 3, 4):
            rep = verify_identity("thm8.1", params={"t": t, "r": r},
                                  box={"q": 10, "z": 10})
            check(f"thm8.1 t={t} r={r} on q<=10, z<=10", rep.passed,
                  str(rep.first_mismatch))
    for t in (1, 2, 3):
        box = {"q": 8}
        box.update({f"z{i}": 4 for i in range(1, t + 1)})
        rep = verify_identity("thm8.2", params={"t": t}, box=box)
        check(f"thm8.2 t={t} on q<=8, z_i<=4", rep.passed,
              str(rep.first_mismatch))


def test_criterion_11_three_variable_series():
    for t in (1, 2, 3):
        for r in (1, 2, 3):
            rep = verify_identity("thm9", params={"t": t, "r": r},
                                  box={"s": 10, "q": 10, "z": 10})
            check(f"thm9 t={t} r={r} on s,q,z <= 10", rep.passed,
                  str(rep.first_mismatch))


def test_criterion_12_residue_free_series():
    for t in (2, 3):
        for r in (1, 2, 3):
            rep = verify_identity("cor10", params={"t": t, "r": r},
                                  box={"q": 8, "z": 8})
            check(f"cor10 t={t} r={r} on q<=8, z<=8", rep.passed,
                  str(rep.first_mismatch))
    box = {"q": 8, "z": 8}
    check("cor10(2,2) matches thm5.1", all(
        np.array_equal(side("cor10", {"t": 2, "r": 2}, box).coeffs,
                       side("thm5.1", {}, box).coeffs)
        for side in (rhs_series, lhs_series)))


def test_criterion_13_two_colored_counting():
    for t in (2, 3):
        for r in (2, 3):
            rep = verify_identity("cor11", {"t": t, "r": r, "k_max": 6,
                                            "n_max": 10})
            check(f"two-colored counts t={t} r={r}, k <= 6, n <= 10",
                  rep.passed, str(rep.first_mismatch))


def test_criterion_14_colored_maximum_counting():
    for t in (1, 2, 3):
        rep = verify_identity("thm6", {"t": t, "n_max": 8})
        check(f"colored maximum counts t={t}, n <= 8", rep.passed,
              str(rep.first_mismatch))


def test_criterion_15_recurrence_and_functional_equation():
    rep = verify_identity("eq20", {"t": 2, "n_max": 6})
    check("column recurrence t=2, n <= 6", rep.passed,
          str(rep.first_mismatch))
    rep = verify_identity("eq24", {"t": 2}, box={"q": 6, "s": 10, "z": 4})
    check("functional equation t=2 on q<=6, s<=10, z<=4", rep.passed,
          str(rep.first_mismatch))


def test_criterion_16_generalized_hook_map():
    a = generalized_hook_map(ModularDiagram(3, ((3, 2), (2, 1), (1, 1))))
    b = generalized_hook_map(ModularDiagram(3, ((3, 1), (2, 1), (1, 2))))
    check("both printed diagrams map to (5,4,3,1)",
          a.parts == (5, 4, 3, 1) and b.parts == (5, 4, 3, 1))
    groups = collision_search(3, 13)
    check("collision_search(3,13) finds that group",
          any(g.image == (5, 4, 3, 1)
              and {(8, 4, 1), (7, 4, 2)} <= set(g.preimages)
              for g in groups))
    check("collision_search(2,n) empty for n <= 20",
          all(collision_search(2, n) == [] for n in range(21)))
    rep = verify_identity("furtherwork", {"m_max": 4, "size_max": 20})
    check("part-sum preserved for m <= 4, n <= 20", rep.passed,
          str(rep.first_mismatch))


def test_criterion_17_fault_injection():
    rep = verify_identity("thm3.1", box={"q": 6, "z": 12},
                          perturb={"q": 2, "z": 4})
    check("perturbed right side fails", not rep.passed)
    check("mismatching monomial is reported",
          rep.first_mismatch is not None
          and rep.first_mismatch["monomial"] == {"q": 2, "z": 4},
          str(rep.first_mismatch))
    rep = verify_identity("eq24", {"t": 2}, perturb={"q": 1}).first_mismatch
    check("counting verifier reports its monomial too",
          rep is not None and rep["monomial"] == {"q": 1}, str(rep))
