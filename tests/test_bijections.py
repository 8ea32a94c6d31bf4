import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from partbij.bijections import (
    CollisionGroup,
    InvalidPair,
    NotDistinct,
    NotOddParts,
    bessenrodt,
    bessenrodt_inverse,
    _conjugate_rows,
    bessenrodt_inverse_rows,
    collision_search,
    color_conjugate,
    color_conjugate_inverse,
    color_conjugate_inverse_rows,
    color_conjugate_rows,
    generalized_hook_map,
    generalized_hook_map_rows,
    modular_fill,
    modular_fill_inverse,
    mork,
    mork_inverse,
)
from partbij.colored import ColoredPartition
from partbij.partitions import (
    InvalidDiagram,
    ModularDiagram,
    NotSorted,
    Partition,
    enumerate_partitions,
    partition_domain,
    to_modular,
)
from reference import color_profile, hook_length


@st.composite
def partitions(draw, max_n=25, distinct=False, odd=False):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition()
    choices = [
        p for p in enumerate_partitions(n, distinct=distinct, odd_parts=odd)
    ]
    return draw(st.sampled_from(choices))


def test_mork_worked_example():
    assert mork(Partition([7, 5, 4, 4, 2, 1])) == (12, 10, 7, 5, 3, 2, 1)


@given(partitions())
def test_mork_invariants(mu):
    lam = mork(mu)
    parts = list(lam)
    assert all(a > b for a, b in zip(parts, parts[1:]))
    assert sum(parts[0::2]) == mu.size()
    assert sum(parts[1::2]) == mu.size() - mu.length()
    assert lam.size() == 2 * mu.size() - mu.length()
    assert mork_inverse(lam) == mu


def test_mork_inverse_rejects_repeats():
    with pytest.raises(NotDistinct):
        mork_inverse(Partition([4, 4, 1]))


def test_mork_is_onto_distinct_partitions():
    # every part k contributes 2k-1 to the image size, so images of fixed
    # size are counted by the odd-parts generating function, which matches
    # the distinct-parts count; with injectivity the map is onto
    for n in range(14):
        for lam in enumerate_partitions(n, distinct=True):
            assert mork(mork_inverse(lam)) == lam


@given(partitions(odd=True))
def test_modular_fill_roundtrip(omega):
    lam = modular_fill(omega)
    assert lam == tuple(2 * p - 1 for p in omega)
    assert modular_fill_inverse(lam) == omega


def test_modular_fill_inverse_rejects_even_parts():
    with pytest.raises(NotOddParts):
        modular_fill_inverse(Partition([4, 2]))


def test_bessenrodt_is_the_composite():
    for n in range(16):
        for omega in enumerate_partitions(n, odd_parts=True):
            assert bessenrodt(omega) == mork(modular_fill_inverse(omega))


@given(partitions(odd=True))
def test_bessenrodt_roundtrip_and_weight(omega):
    lam = bessenrodt(omega)
    assert lam.size() == omega.size()
    parts = list(lam)
    assert all(a > b for a, b in zip(parts, parts[1:]))
    assert bessenrodt_inverse(lam) == omega


def test_bessenrodt_inverse_rejects_non_image():
    with pytest.raises(NotDistinct):
        bessenrodt_inverse(Partition([3, 3]))


def test_bessenrodt_inverse_rows_agree_with_scalar_map():
    # parts-major: one column per partition
    cols = partition_domain(25, distinct=True)[0].astype(np.int64)
    images, valid = bessenrodt_inverse_rows(cols)
    assert valid.all()
    for lam, image in zip(cols.T.tolist(), images.T.tolist()):
        want = list(bessenrodt_inverse(Partition(lam)))
        assert image == want + [0] * (len(image) - len(want)), lam
    # a repeated part has no preimage, as the scalar map raises
    _, valid = bessenrodt_inverse_rows(np.array([[3, 3, 0], [3, 0, 0]]).T)
    assert valid.tolist() == [False, True]


def test_color_conjugate_worked_example():
    lam = Partition([9, 7, 6, 5, 4, 4, 4, 4, 3, 2, 1])
    nu, mu = color_conjugate(lam, 3, 4)
    assert nu == (4, 2, 1)
    assert mu == ColoredPartition(
        [(3, 2), (3, 1), (2, 3), (2, 2), (1, 1)], 3
    )
    assert color_conjugate_inverse(nu, mu, 3, 4) == lam


def test_color_conjugate_single_residue():
    lam = Partition([4, 4, 3, 3, 3, 3])
    nu, mu = color_conjugate(lam, 3, 1)
    assert nu == ()
    assert mu == ColoredPartition([(2, 3), (2, 3), (2, 3), (1, 2)], 3)


@given(partitions(max_n=18), st.integers(1, 3), st.integers(1, 3))
def test_color_conjugate_statistics(lam, t, r):
    from partbij.partitions import schmidt_weight

    nu, mu = color_conjugate(lam, t, r)
    assert color_conjugate_inverse(nu, mu, t, r) == lam
    assert nu.length() <= r - 1
    lam_r = lam[r - 1] if r <= len(lam) else 0
    assert lam_r == 0 or sum(nu[:1]) <= lam[0] - lam_r
    assert mu.size() == schmidt_weight(lam, t, r)
    assert mu.length() == lam_r
    assert tuple(sum(1 for _, c in mu.entries if c == i)
                 for i in range(1, t + 1)) == color_profile(lam, t, r)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_color_conjugate_rows_agree_with_scalar_map(t, r):
    size_max = 18
    lams = [lam for n in range(size_max + 1)
            for lam in enumerate_partitions(n)]
    # parts-major: one column per partition
    rows = partition_domain(size_max)[0].astype(np.int64)
    nu, mu, colors = color_conjugate_rows(rows, t, r)
    # the column heights, given, change nothing
    for got, want in zip(
            color_conjugate_rows(rows, t, r, _conjugate_rows(rows)),
            (nu, mu, colors)):
        assert np.array_equal(got, want)
    back, valid = color_conjugate_inverse_rows(nu, mu, colors, t, r)
    # pairs outside the image: nu with an r-th part, and colours moved
    # c -> c mod t + 1, which makes the column heights rise on some columns
    extra = np.ones((1, rows.shape[1]), dtype=np.int64)
    _, long_valid = color_conjugate_inverse_rows(
        np.vstack([nu, extra]), mu, colors, t, r)
    assert not long_valid.any()
    moved = np.where(mu > 0, colors % t + 1, 0)
    moved_back, moved_valid = color_conjugate_inverse_rows(
        nu, mu, moved, t, r)
    for i, lam in enumerate(lams):
        want_nu, want_mu = color_conjugate(lam, t, r)
        cols = mu[:, i] > 0
        assert Partition(nu[:, i]) == want_nu, lam
        assert ColoredPartition(zip(mu[cols, i], colors[cols, i]), t) \
            == want_mu, lam
        assert valid[i] and Partition(back[:, i]) == lam
        heights = [(p - 1) * t + c for p, c in zip(mu[cols, i], moved[cols, i])]
        rises = any(a < b for a, b in zip(heights, heights[1:]))
        assert moved_valid[i] == (not rises), lam
        if not rises:
            recolored = ColoredPartition(zip(mu[cols, i], moved[cols, i]), t)
            assert Partition(moved_back[:, i]) == \
                color_conjugate_inverse(want_nu, recolored, t, r), lam


def test_color_conjugate_inverse_rejects_long_first_component():
    nu = Partition([2, 1])
    mu = ColoredPartition([(1, 1)], 2)
    with pytest.raises(InvalidPair):
        color_conjugate_inverse(nu, mu, 2, 2)


def test_color_conjugate_inverse_rejects_a_colour_above_t():
    # colour 3 at t = 2 would regrow column height 3, whose forward image
    # is (2^1; t=2), not this pair
    with pytest.raises(InvalidPair):
        color_conjugate_inverse(Partition(), ColoredPartition([(1, 3)], 3), 2, 1)
    # a wider palette whose colours all fit t is a valid pair
    mu = ColoredPartition([(2, 2), (1, 1)], 3)
    lam = color_conjugate_inverse(Partition(), mu, 2, 1)
    assert color_conjugate(lam, 2, 1).mu.entries == mu.entries


def test_hook_map_printed_examples():
    a = ModularDiagram(3, ((3, 2), (2, 1), (1, 1)))
    b = ModularDiagram(3, ((3, 1), (2, 1), (1, 2)))
    ia = generalized_hook_map(a)
    ib = generalized_hook_map(b)
    assert ia.parts == (5, 4, 3, 1)
    assert ib.parts == (5, 4, 3, 1)
    assert ia.is_partition and ib.is_partition


@pytest.mark.parametrize("diagram, message", [
    # rising cell counts, which once gave (2, 1, 1, 1)
    (ModularDiagram(3, ((1, 1), (2, 1))), "cell counts must be weakly"),
    # a remainder of 0, which once was dropped to give (1, 1, 1)
    (ModularDiagram(3, ((2, 0),)), r"remainder 0 outside 1\.\.3"),
])
def test_hook_map_rejects_a_malformed_diagram(diagram, message):
    with pytest.raises(InvalidDiagram, match=message):
        generalized_hook_map(diagram)


@given(partitions(max_n=20), st.integers(2, 4))
def test_hook_map_preserves_size(p, m):
    d = to_modular(p, m)
    image = generalized_hook_map(d)
    assert sum(image.parts) == p.size()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 25, 5000])
def test_hook_map_rows_agree_with_scalar_map(m):
    # the whole domain as one array, and each size's block on its own,
    # whose largest part bounds the remainders differently; 25 is larger
    # than every part. One more input, (5001, 1^4999), has at m = 5000 a
    # single hook of 5001 cells, which the scalar map once rescanned for
    # each of its 5000 thresholds
    big = Partition([5001] + [1] * 4999)
    image, is_partition = generalized_hook_map_rows(np.array([big]).T, m)
    want = generalized_hook_map(to_modular(big, m))
    got = image[:, 0].tolist()
    assert got == list(want.parts) + [0] * (len(got) - len(want.parts))
    assert is_partition[0] == want.is_partition
    size_max = 18
    lams = [lam for n in range(size_max + 1)
            for lam in enumerate_partitions(n)]
    rows, sizes = partition_domain(size_max)
    rows = rows.astype(np.int64)
    blocks = [rows[:, sizes == n] for n in range(size_max + 1)]
    assert lams[0] == () and not blocks[0].any()  # the empty partition
    per_block = [generalized_hook_map_rows(cols, m) for cols in blocks]
    for image, is_partition in [
            generalized_hook_map_rows(rows, m),
            (np.concatenate([np.pad(a, ((0, size_max - len(a)), (0, 0)))
                             for a, _ in per_block], axis=1),
             np.concatenate([b for _, b in per_block]))]:
        assert image.shape == (len(image), len(lams))
        for i, lam in enumerate(lams):
            want = generalized_hook_map(to_modular(lam, m))
            got, parts = image[:, i].tolist(), list(want.parts)
            assert got == parts + [0] * (len(got) - len(parts)), lam
            assert is_partition[i] == want.is_partition, lam


def test_collision_search_two_modular_is_injective():
    for n in range(16):
        assert collision_search(2, n) == []


def test_collision_search_finds_known_group():
    groups = collision_search(3, 13)
    assert groups
    assert all(isinstance(g, CollisionGroup) for g in groups)
    hit = [g for g in groups if g.image == (5, 4, 3, 1)]
    assert len(hit) == 1
    pre = set(hit[0].preimages)
    assert {(8, 4, 1), (7, 4, 2)} <= pre
    assert len(pre) >= 2


# every partition of size <= 18, for the tests that pin the scalar maps to
# their definitions
UP_TO_18 = [p for n in range(19) for p in enumerate_partitions(n)]


def test_mork_reads_the_diagonal_hook_lengths():
    for mu in UP_TO_18:
        want = []
        for i in range(1, len(mu) + 1):
            if mu[i - 1] < i:
                break
            want.append(hook_length(mu, i, i))
            if mu[i - 1] > i:
                want.append(hook_length(mu, i, i + 1))
        assert mork(mu) == tuple(want), mu


def test_mork_coerces_sequences():
    assert mork([3, 2]) == mork(Partition([3, 2])) == (4, 3, 1)
    assert mork((7, 5, 4, 4, 2, 1)) == (12, 10, 7, 5, 3, 2, 1)
    assert type(mork([3, 2])) is Partition
    with pytest.raises(NotSorted):
        mork([2, 3])


def test_color_conjugate_round_trips_every_partition():
    for t in range(1, 5):
        for r in range(1, 5):
            for lam in UP_TO_18:
                nu, mu = color_conjugate(lam, t, r)
                assert color_conjugate_inverse(nu, mu, t, r) == lam, (lam, t, r)


@pytest.mark.parametrize("t, r", [(0, 1), (0, 2), (1, 0), (3, 0), (0, 0),
                                  (-1, 2), (2, -1)])
def test_color_conjugate_rejects_nonpositive_t_r(t, r):
    lam = Partition([4, 2, 1])
    with pytest.raises(ValueError, match="^t and r must be positive$"):
        color_conjugate(lam, t, r)
    nu, mu = color_conjugate(lam, 2, 1)
    for nu_ in (nu, Partition([1])):
        with pytest.raises(ValueError, match="^t and r must be positive$"):
            color_conjugate_inverse(nu_, mu, t, r)


def _seeded_columns(count, size_max, seed):
    """count seeded random partitions of size <= size_max, parts-major
    (see partitions) in int64, with two zero rows below the longest."""
    rng = random.Random(seed)
    lams = []
    for _ in range(count):
        left, parts = rng.randint(0, size_max), []
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        lams.append(sorted(parts, reverse=True))
    rows = np.zeros((max(map(len, lams)) + 2, count), dtype=np.int64)
    for i, lam in enumerate(lams):
        rows[:len(lam), i] = lam
    return rows


def _array_map_outputs(rows):
    """Every array map's outputs on the parts-major rows, in order."""
    outs = [_conjugate_rows(rows), *bessenrodt_inverse_rows(rows)]
    for t, r in ((1, 1), (2, 1), (3, 2), (4, 3)):
        nu, mu, colors = color_conjugate_rows(rows, t, r)
        outs += [nu, mu, colors,
                 *color_conjugate_rows(rows, t, r, _conjugate_rows(rows)),
                 *color_conjugate_inverse_rows(nu, mu, colors, t, r)]
    for m in (2, 3, 5, 25):
        outs += generalized_hook_map_rows(rows, m)
    return outs


@pytest.mark.parametrize("rows", [
    _seeded_columns(300, 40, seed=1),
    partition_domain(18)[0],  # thm7's quick domain
    partition_domain(24)[0],  # thm7's and furtherwork's full domain
    partition_domain(30, distinct=True)[0],  # prop1's full domain
], ids=["seeded", "quick", "full", "distinct"])
def test_array_maps_compute_in_their_input_type(rows):
    wide = _array_map_outputs(rows.astype(np.int64))
    narrow = _array_map_outputs(rows.astype(np.int16))
    assert len(wide) == len(narrow)
    for a, b in zip(wide, narrow):
        assert np.array_equal(a, b)
        assert b.dtype in (np.bool_, np.int16)
