"""The test oracles in reference.py, checked against brute force."""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from partbij.partitions import enumerate_partitions
from reference import (
    box_partitions,
    colored_partitions,
    graded_terms,
    q_binomial,
    quotient,
    series_text,
    truncated_product,
)


def pairwise_product(a, b):
    out = np.zeros(a.shape, dtype=object)
    for i in itertools.product(*map(range, a.shape)):
        for j in itertools.product(*map(range, b.shape)):
            k = tuple(x + y for x, y in zip(i, j))
            if all(e < dim for e, dim in zip(k, a.shape)):
                out[k] += int(a[i]) * int(b[j])
    return out


SHAPES = [(5,), (4, 3), (3, 3, 2), (1,), (2, 1, 1, 2)]


def test_truncated_product_matches_pairwise():
    rng = np.random.default_rng(7)
    for shape in SHAPES:
        a = rng.integers(-9, 9, size=shape)
        b = rng.integers(-9, 9, size=shape)
        got = truncated_product(a, b)
        assert got.shape == a.shape
        assert got.tolist() == pairwise_product(a, b).tolist()


def test_truncated_product_truncates_to_box():
    a = np.ones(4, dtype=np.int64)
    assert truncated_product(a, a).tolist() == [1, 2, 3, 4]


def test_truncated_product_is_exact():
    a = np.array([2 ** 62, 2 ** 62], dtype=np.int64)
    assert truncated_product(a, a).tolist() == [2 ** 124, 2 ** 125]


def test_quotient_is_inverse():
    one_minus_q = np.array([1, -1] + [0] * 9)
    one = np.array([1] + [0] * 10)
    g = quotient(one, one_minus_q)
    assert g.tolist() == [1] * 11
    assert truncated_product(one_minus_q, g).tolist() == one.tolist()
    rng = np.random.default_rng(11)
    for shape in SHAPES:
        f = rng.integers(-9, 9, size=shape)
        for c in (1, -1):
            g = rng.integers(-9, 9, size=shape)
            g.flat[0] = c
            h = quotient(f, g)
            assert truncated_product(g, h).tolist() == f.tolist()


def test_quotient_needs_unit_constant():
    f = np.array([1, 0, 0])
    with pytest.raises(ValueError):
        quotient(f, np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        quotient(f, np.array([2, 0, 0]))


def test_q_binomial_known_and_symmetric():
    assert q_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert q_binomial(5, 2) == q_binomial(5, 3)
    assert q_binomial(3, 0) == [1]
    with pytest.raises(ValueError):
        q_binomial(2, 3)


def test_box_partitions_are_the_partitions_in_the_box():
    for n in range(10):
        for distinct in (False, True):
            every = list(enumerate_partitions(n, distinct))
            for w, h in itertools.product(range(n + 2), repeat=2):
                assert list(box_partitions(n, w, h, distinct)) == [
                    p for p in every
                    if len(p) <= h and all(part <= w for part in p)]


def test_q_binomial_counts_box_partitions():
    # q^e's coefficient counts the partitions of e in a k by (n-k) box
    for n in range(7):
        for k in range(n + 1):
            coeffs = q_binomial(n, k)
            assert len(coeffs) == k * (n - k) + 1
            assert sum(coeffs) == math.comb(n, k)
            assert coeffs == [
                len(list(box_partitions(e, n - k, k)))
                for e in range(k * (n - k) + 1)]


def test_shapes_must_match():
    a, b = np.ones(3), np.ones(4)
    with pytest.raises(ValueError):
        truncated_product(a, b)
    with pytest.raises(ValueError):
        quotient(a, b)


def test_colored_partitions_match_brute_force():
    # every multiset of (part, colour) pairs with parts summing to n,
    # each listed once in descending order
    for t in (1, 2, 3):
        pairs = [(p, c) for p in range(1, 8) for c in range(1, t + 1)]
        for n in range(8):
            want = {
                tuple(sorted(combo, reverse=True))
                for k in range(n + 1)
                for combo in itertools.combinations_with_replacement(pairs, k)
                if sum(p for p, _ in combo) == n
            }
            got = list(colored_partitions(n, t))
            assert len(got) == len(set(got))
            assert set(got) == want
            assert all(list(e) == sorted(e, reverse=True) for e in got)


def test_graded_terms_and_text_by_hand():
    a = np.zeros((3, 3), dtype=np.int64)
    a[0, 0], a[1, 0], a[0, 2], a[1, 1], a[2, 0] = 1, -1, 4, -1, 3
    # degree first, then the index: (0, 2) < (1, 1) < (2, 0)
    assert graded_terms(a) == [((0, 0), 1), ((1, 0), -1), ((0, 2), 4),
                               ((1, 1), -1), ((2, 0), 3)]
    assert series_text(("q", "z"), a) == "1 - q + 4*z^2 - q*z + 3*q^2"
    assert series_text(("q", "z"), -a) == "-1 + q - 4*z^2 + q*z - 3*q^2"
    assert series_text(("q",), np.zeros(2)) == "0"
    assert graded_terms(np.array(-7)) == [((), -7)]
    assert series_text((), np.array(-7)) == "-7"
    assert series_text(("q", "z"), np.array([[0, -1], [0, 0]])) == "-z"


def test_reference_imports_nothing_under_test():
    # an oracle built on the kernels it checks would agree with them by
    # construction
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    assert modules == {"itertools", "numpy"}
