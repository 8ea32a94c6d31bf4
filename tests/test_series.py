import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from partbij import series
from partbij.partitions import partition_numbers
from partbij.series import (
    INFINITY,
    BoxMismatch,
    CoefficientOverflow,
    DivergentInfiniteProduct,
    NonUnitConstantTerm,
    OutOfBox,
    SeriesError,
    TruncatedSeries,
    first_mismatch,
)
from partbij.verify import _quotient, rhs_series, verify_identity
from reference import graded_terms, quotient, series_text, truncated_product

BOX = {"q": 4, "z": 3}


def built(box, cells):
    """A series over box with the coefficients cells, a dict from index
    tuples, in the canonical variable order, to values."""
    f = TruncatedSeries.zero(box)
    for index, value in cells.items():
        f.coeffs[index] = value
    return f


def same(f, g):
    """f and g live on one box and have equal coefficients."""
    return (f.variables, f.box) == (g.variables, g.box) and \
        np.array_equal(f.coeffs, g.coeffs)


def one_pass(f, products):
    """f's coefficients divided by every product in one _divide pass, on
    a copy."""
    coeffs = f.coeffs.copy()
    series._divide(coeffs, f.variables, products)
    return coeffs


def divided(f, base, ratio, n):
    """f / (base; ratio)_n in f's box, as a new series."""
    return TruncatedSeries(f.variables, f.box,
                           one_pass(f, [(base, ratio, n)]))


def test_variable_order_is_canonical():
    f = TruncatedSeries.zero({"z": 2, "q": 3, "s": 1, "z2": 1, "a": 1})
    assert f.variables == ("q", "z", "s", "z2", "a")


def test_monomial_and_coefficient():
    f = TruncatedSeries.monomial(BOX, {"q": 2, "z": 1}, 7)
    assert graded_terms(f.coeffs) == [((2, 1), 7)]
    with pytest.raises(OutOfBox):
        TruncatedSeries.monomial(BOX, {"q": 5})
    with pytest.raises(OutOfBox):
        TruncatedSeries.monomial(BOX, {"s": 1})


def test_series_add_only_series():
    # no check adds, subtracts or negates series, so a series does none
    # of these: the checks divide and compare arrays in place
    f = TruncatedSeries.monomial(BOX, {"q": 1})
    for op in (lambda: f + f, lambda: f - f, lambda: -f):
        with pytest.raises(TypeError):
            op()


def test_int_scalars():
    # no check mixes in a scalar
    f = TruncatedSeries.monomial(BOX, {"q": 1})
    for op in (lambda: f + 1, lambda: 1 + f, lambda: 1 - f, lambda: f - 1):
        with pytest.raises(TypeError):
            op()


def test_more_box_variables_than_numpy_allows_is_a_series_error():
    limit = series._MAX_VARIABLES
    assert limit in (32, 64)
    box = {f"z{i}": 0 for i in range(1, 72)}
    with pytest.raises(SeriesError, match=(
            f"^a box has at most {limit} variables, numpy's limit on array "
            "dimensions; got 71$")):
        TruncatedSeries.zero(box)


def test_a_box_past_what_numpy_can_size_is_a_memory_error():
    # 10^20 int64 cells, past numpy's index range of bytes
    with pytest.raises(MemoryError, match="larger than numpy can allocate"):
        TruncatedSeries.zero({"q": 10**10 - 1, "z": 10**10 - 1})


def test_box_mismatch_rejected():
    f = TruncatedSeries.zero(BOX)
    g = TruncatedSeries.zero({"q": 4})
    with pytest.raises(BoxMismatch):
        first_mismatch(f, g)


def test_divide_pochhammer_known_series():
    # 1/(q;q)_2 = 1/((1-q)(1-q^2)) counts partitions into parts 1 and 2
    one = TruncatedSeries.constant({"q": 6}, 1)
    f = divided(one, {"q": 1}, {"q": 1}, 2)
    assert f.text() == "1 + q + 2*q^2 + 2*q^3 + 3*q^4 + 3*q^5 + 4*q^6"
    # 1/(zq;q)_oo counts partitions of n into k parts at q^n z^k
    one = TruncatedSeries.constant({"q": 4, "z": 3}, 1)
    g = divided(one, {"q": 1, "z": 1}, {"q": 1}, INFINITY)
    assert dict(graded_terms(g.coeffs)) == {(0, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1, (3, 1): 1,
                   (3, 2): 1, (3, 3): 1, (4, 1): 1, (4, 2): 2, (4, 3): 1}
    # a product with no factor in the box divides by 1
    assert same(divided(one, {"q": 5}, {"q": 1}, INFINITY), one)


def test_pochhammer_infinite_truncates():
    one = TruncatedSeries.constant({"q": 8}, 1)
    f = divided(one, {"q": 1}, {"q": 1}, INFINITY)
    assert same(f, divided(one, {"q": 1}, {"q": 1}, 9))
    assert f.coeffs.tolist() == partition_numbers(8)


def test_pochhammer_divergent_constant_ratio():
    one = TruncatedSeries.constant({"q": 4}, 1)
    with pytest.raises(DivergentInfiniteProduct):
        divided(one, {"q": 1}, {}, INFINITY)
    # finite products with constant ratio are fine: 1/(1 - q)^2
    f = divided(one, {"q": 1}, {}, 2)
    assert same(f, divided(one, {"q": 1}, {"q": 0}, 2))
    assert f.coeffs.tolist() == [1, 2, 3, 4, 5]


def test_text_rendering():
    f = built(BOX, {(0, 0): 1, (1, 0): -1, (2, 1): 3})
    assert f.text() == "1 - q + 3*q^2*z"
    assert TruncatedSeries.zero(BOX).text() == "0"


def test_json_roundtrip():
    f = built(BOX, {(1, 0): 2, (3, 2): -4})
    data = json.loads(f.json_text())
    assert data == {"box": BOX, "terms": [[{"q": 1}, 2],
                                          [{"q": 3, "z": 2}, -4]]}


def test_json_text_escapes_variable_names():
    # names outside the catalog's: a %, a quote, a non-ASCII letter
    # the variables in canonical order: q, then the other names sorted
    f = built({"q": 2, "a%d": 2, 'b"\u00e9': 1},
              {(0, 1, 0): 3, (2, 0, 1): -4, (0, 0, 0): 1})
    assert f.variables == ("q", "a%d", 'b"\u00e9')
    assert f.json_text() == json.dumps({"box": f.box_dict(), "terms": [
        [{}, 1], [{"a%d": 1}, 3], [{"q": 2, 'b"\u00e9': 1}, -4]]})


def test_building_a_series_sums_terms_exactly():
    box = {"q": 1}
    # a single coefficient outside int64, in every constructor
    for value in (2 ** 63, -2 ** 63 - 1):
        with pytest.raises(CoefficientOverflow):
            TruncatedSeries.constant(box, value)
        with pytest.raises(CoefficientOverflow):
            TruncatedSeries.monomial(box, {"q": 1}, value)
    # the ends of int64, as Python and numpy ints, are kept exactly
    for value in (2 ** 63 - 1, np.int64(-2 ** 63)):
        assert TruncatedSeries.constant(box, value).coeffs.tolist() == \
            [value, 0]
        assert TruncatedSeries.monomial(box, {"q": 1}, value).coeffs \
            .tolist() == [0, value]


@st.composite
def pochhammer_cases(draw, coefficients=st.integers(-9, 9)):
    """A box of 1-3 variables with bounds <= 8, a series f in it with
    coefficients drawn from the given strategy, and a Pochhammer product
    (base; ratio)_n, n finite or INFINITY."""
    names = ("q", "z", "s")[:draw(st.integers(1, 3))]
    box = {v: draw(st.integers(0, 8)) for v in names}
    base = {v: draw(st.integers(0, 3)) for v in names}
    ratio = {v: draw(st.integers(0, 3)) for v in names}
    if any(ratio.values()) and draw(st.booleans()):
        n = INFINITY
    else:
        n = draw(st.integers(0, 5))
    shape = tuple(b + 1 for b in box.values())
    values = draw(st.lists(coefficients, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    f = TruncatedSeries.zero(box)
    f.coeffs[...] = np.array(values, dtype=np.int64).reshape(shape)
    return box, f, base, ratio, n


# zero-heavy, with small values and values at the ends of int64
COEFFS = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                   st.integers(-2 ** 63, -2 ** 63 + 2),
                   st.integers(2 ** 63 - 3, 2 ** 63 - 1))


@st.composite
def rendered_series(draw):
    """A series on 0-4 variables with bounds <= 3: zero now and then, and
    otherwise drawn from COEFFS cell by cell."""
    names = ("q", "z", "s", "z1")[:draw(st.integers(0, 4))]
    f = TruncatedSeries.zero({v: draw(st.integers(0, 3)) for v in names})
    if draw(st.integers(0, 4)):
        values = draw(st.lists(COEFFS, min_size=f.coeffs.size,
                               max_size=f.coeffs.size))
        f.coeffs[...] = np.array(values, dtype=np.int64).reshape(
            f.coeffs.shape)
    return f


@settings(max_examples=300, deadline=None)
@given(rendered_series(), st.data())
def test_rendering_matches_the_oracle(f, data):
    want = [({v: e for v, e in zip(f.variables, index) if e}, value)
            for index, value in graded_terms(f.coeffs)]
    assert f.text() == series_text(f.variables, f.coeffs)
    assert f.json_text() == json.dumps(
        {"box": f.box_dict(), "terms": [list(term) for term in want]})
    # g differs from f in a few drawn cells, perhaps none
    g = f.copy()
    for cell, value in data.draw(st.lists(
            st.tuples(st.integers(0, f.coeffs.size - 1), COEFFS),
            max_size=3)):
        g.coeffs.flat[cell] = value
    differ = graded_terms(f.coeffs != g.coeffs)
    if not differ:
        assert first_mismatch(f, g) is None
    else:
        index = differ[0][0]
        assert first_mismatch(f, g) == (
            {v: e for v, e in zip(f.variables, index) if e},
            int(f.coeffs[index]), int(g.coeffs[index]))


def test_first_mismatch_graded_lex():
    f = TruncatedSeries.zero(BOX)
    g = built(BOX, {(2, 0): 1, (1, 1): 1, (0, 1): 1})
    exps, cf, cg = first_mismatch(f, g)
    assert exps == {"z": 1}
    assert (cf, cg) == (0, 1)
    assert first_mismatch(f, f) is None
    assert first_mismatch(g, g) is None
    # ties in total degree break lexicographically on the exponent tuple
    h = built(BOX, {(1, 1): 1, (0, 2): 1})
    exps, _, _ = first_mismatch(TruncatedSeries.zero(BOX), h)
    assert exps == {"z": 2}


def test_negative_exponent_rejected():
    with pytest.raises(SeriesError):
        TruncatedSeries.monomial(BOX, {"q": -1})


def _factors(box, base, ratio, n):
    """Exponent tuples of the factors of (base; ratio)_n inside the box."""
    out, k = [], 0
    while n is INFINITY or k < n:
        e = tuple(base[v] + k * ratio[v] for v in box)
        if any(x > b for x, b in zip(e, box.values())):
            break
        out.append(e)
        k += 1
    return out


def explicit_pochhammer(box, base, ratio, n):
    """(base; ratio)_n as one full truncated product per factor (1 - x^e)."""
    one = TruncatedSeries.constant(box, 1)
    acc = one.coeffs
    for e in _factors(box, base, ratio, n):
        factor = one.coeffs.copy()
        factor[e] -= 1
        acc = truncated_product(acc, factor)
    return TruncatedSeries(one.variables, one.box, acc.astype(np.int64))


@settings(max_examples=300, deadline=None)
@given(pochhammer_cases())
def test_shift_pochhammer_matches_convolution(case):
    box, f, base, ratio, n = case
    want = explicit_pochhammer(box, base, ratio, n)
    if int(want.coeffs.flat[0]) == 0:  # a factor 1 - 1
        with pytest.raises(NonUnitConstantTerm):
            divided(f, base, ratio, n)
    else:
        assert divided(f, base, ratio, n).coeffs.tolist() == \
            quotient(f.coeffs, want.coeffs).tolist()


def test_divide_overflow_is_exact():
    box = {"q": 1}
    with pytest.raises(CoefficientOverflow):
        divided(TruncatedSeries.constant(box, 2 ** 62),
                          {"q": 1}, {}, 2)
    # 2^61 / (1 - q)^2 = 2^61 + 2^62 q on q <= 1
    g = divided(TruncatedSeries.constant(box, 2 ** 61),
                          {"q": 1}, {}, 2)
    assert g.coeffs[1] == 2 ** 62
    # a result coefficient of exactly 2^63 - 1 still fits
    f = built(box, {(0,): 2 ** 62, (1,): 2 ** 62 - 1})
    g = divided(f, {"q": 1}, {}, 1)
    assert g.coeffs[1] == 2 ** 63 - 1


def test_divide_pochhammer_overflow_is_exact():
    # 1/(1 - q)^n has q^k coefficient C(n + k - 1, k), growing with each
    # factor: C(66, 33) fits int64 and C(67, 33) does not
    one = TruncatedSeries.constant({"q": 33}, 1)
    f = divided(one, {"q": 1}, {}, 34)
    assert f.coeffs[33] == math.comb(66, 33)
    with pytest.raises(CoefficientOverflow):
        divided(one, {"q": 1}, {}, 35)


def test_add_overflow_is_exact():
    # the checked array add of the recurrence and of the checked passes
    def cells(*values):
        return np.array(values, dtype=np.int64)

    big, low = 2 ** 62, -2 ** 62
    assert series._sum(cells(big, 1), cells(big - 1, -1)).tolist() == \
        [2 ** 63 - 1, 0]
    assert series._sum(cells(low), cells(low)).tolist() == [-(2 ** 63)]
    with pytest.raises(CoefficientOverflow):
        series._sum(cells(0, big), cells(0, big))
    with pytest.raises(CoefficientOverflow):
        series._sum(cells(-(2 ** 63), 0), cells(-1, 0))


def exact_quotient(f, factors):
    """f divided by each (1 - x^e) as Python ints: a sequential
    out[k] += out[k - e], with k in lexicographic order so that k - e is
    final before k reads it."""
    out = f.coeffs.astype(object)
    for e in factors:
        for k in itertools.product(*(range(d, dim)
                                     for d, dim in zip(e, out.shape))):
            out[k] += out[tuple(i - d for i, d in zip(k, e))]
    return out


def _fits(coeffs):
    return all(-(2 ** 63) <= int(c) < 2 ** 63 for c in coeffs.flat)


@st.composite
def big_quotient_cases(draw, signed):
    """pochhammer_cases with coefficients up to 2^scale, scale <= 61,
    and the product's factors, none of them 1 - 1."""
    top = 2 ** draw(st.integers(0, 61))
    box, f, base, ratio, n = draw(pochhammer_cases(
        st.integers(-top if signed else 0, top)))
    factors = _factors(box, base, ratio, n)
    assume(all(any(e) for e in factors))
    return f, base, ratio, n, factors


@settings(max_examples=300, deadline=None)
@given(big_quotient_cases(signed=False))
def test_divide_overflows_iff_exact_quotient_leaves_int64(case):
    # with nonnegative coefficients every partial sum is at most the
    # final quotient, so an overflow is exactly a quotient beyond int64
    f, base, ratio, n, factors = case
    want = exact_quotient(f, factors)
    if _fits(want):
        got = divided(f, base, ratio, n)
        assert got.coeffs.tolist() == want.tolist()
    else:
        with pytest.raises(CoefficientOverflow):
            divided(f, base, ratio, n)


@settings(max_examples=150, deadline=None)
@given(big_quotient_cases(signed=True))
def test_signed_divide_is_exact_when_it_returns(case):
    f, base, ratio, n, factors = case
    try:
        got = divided(f, base, ratio, n)
    except CoefficientOverflow:
        return
    assert got.coeffs.tolist() == exact_quotient(f, factors).tolist()


def _counting(monkeypatch, name):
    calls = []
    original = getattr(series, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(series, name, counted)
    return calls


def _plans(monkeypatch):
    """The (steps, grow, adds) plan of each product every division plans
    from here on, once per distinct product per call."""
    plans = []
    plan = series._plan

    def recorded(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(series, "_plan", recorded)
    return plans


def test_running_bound_retakes_the_max_and_stays_unchecked(monkeypatch):
    # 2^59 / (1 - q^7)^6 = 2^59 (1 + 6 q^7) on q <= 7: each factor may
    # double the bound, which passes int64 at the fourth factor, where the
    # exact max 3 * 2^59 lets it run unchecked, and again at the sixth,
    # where the exact max is 5 * 2^59
    sums = _counting(monkeypatch, "_sum")
    maxes = _counting(monkeypatch, "_max_abs")
    g = divided(TruncatedSeries.constant({"q": 7}, 2 ** 59),
                          {"q": 7}, {}, 6)
    assert g.coeffs.tolist() == [2 ** 59] + [0] * 6 + [6 * 2 ** 59]
    assert len(maxes) == 3 and not sums  # the first bound and two re-takes


def test_checked_factor_can_succeed(monkeypatch):
    # 2^62 / (1 - q^2) on q <= 2: the exact bound 2^62 * 2 does not fit,
    # so the shift-add is checked, and its result 2^62 + 2^62 q^2 fits
    sums = _counting(monkeypatch, "_sum")
    g = divided(TruncatedSeries.constant({"q": 2}, 2 ** 62),
                          {"q": 2}, {}, 1)
    assert g.coeffs.tolist() == [2 ** 62, 0, 2 ** 62]
    assert len(sums) == 1


# (q; z)_2 on q, z <= 1 has the factors 1 - q and 1 - qz, each of growth
# 2, so c on every cell has the bound c times 4, which fits int64 up to
# c = MAX // 4; the quotient c (1 + z + 2q + 3qz) leaves int64 past
# c = MAX // 3
_MAX = 2 ** 63 - 1


@pytest.mark.parametrize("scale, checked", [
    (_MAX // 4, False), (_MAX // 4 + 1, True),
    (_MAX // 3, True), (_MAX // 3 + 1, True)])
def test_product_runs_unchecked_iff_its_growth_fits(monkeypatch, scale,
                                                    checked):
    f = TruncatedSeries.zero({"q": 1, "z": 1})
    f.coeffs[...] = scale
    want = exact_quotient(f, [(1, 0), (1, 1)])
    under = _counting(monkeypatch, "_add_under")
    if _fits(want):
        got = divided(f, {"q": 1}, {"z": 1}, 2)
        assert got.coeffs.tolist() == want.tolist()
    else:
        with pytest.raises(CoefficientOverflow):
            divided(f, {"q": 1}, {"z": 1}, 2)
    assert bool(under) == checked


def test_plans_are_kept_per_block_size(monkeypatch):
    # one product at one shape, planned under the default block size, then
    # under 1, then under the default again: only the plan under 1 walks
    # blocks, so no plan made under another block size is reused
    f = TruncatedSeries.constant({"q": 20}, 1)
    cells = series._BLOCK_CELLS
    plans = _plans(monkeypatch)
    want = divided(f, {"q": 1}, {"q": 1}, INFINITY)
    monkeypatch.setattr(series, "_BLOCK_CELLS", 1)
    walked = divided(f, {"q": 1}, {"q": 1}, INFINITY)
    monkeypatch.setattr(series, "_BLOCK_CELLS", cells)
    again = divided(f, {"q": 1}, {"q": 1}, INFINITY)
    assert same(again, walked) and same(walked, want)
    assert [max(_walks([plan])) > 0 for plan in plans] == \
        [False, True, False]


@settings(max_examples=100, deadline=None)
@given(pochhammer_cases())
def test_factor_passes_write_only_their_view(case):
    # the catalog divides, in place, the view of an array at or past a
    # corner (_quotient, _head_sum): the view takes the quotient and the
    # cells outside it keep their values
    box, f, base, ratio, n = case
    outside = 7
    padded = np.full([dim + 1 for dim in f.coeffs.shape], outside)
    view = padded[(slice(1, None),) * f.coeffs.ndim]
    view[...] = f.coeffs
    if int(explicit_pochhammer(box, base, ratio, n).coeffs.flat[0]) == 0:
        with pytest.raises(NonUnitConstantTerm):
            series._divide(view, f.variables, [(base, ratio, n)])
    else:
        series._divide(view, f.variables, [(base, ratio, n)])
        assert np.array_equal(view, divided(f, base, ratio, n).coeffs)
    view[...] = outside
    assert (padded == outside).all()


@st.composite
def expansion_cases(draw):
    """A series f in a box of 1-3 variables with bounds 1-8, either
    dense or a head monomial of degree <= 2 in each variable, with
    signed coefficients up to 2^scale, scale <= 61, and a list of 1-5
    Pochhammer products (base, ratio, n) drawn from 1-3 distinct ones, so
    that products repeat. A ratio may be constant (all zero) with n
    finite; no base is constant, so no factor is 1 - 1."""
    names = ("q", "z", "s")[:draw(st.integers(1, 3))]
    box = {v: draw(st.integers(1, 8)) for v in names}
    # half the scales near int64, and the largest magnitudes often, so
    # that repeated factors overflow
    top = 2 ** draw(st.one_of(st.integers(0, 61), st.integers(48, 61)))
    coefficients = st.one_of(st.integers(-top, top),
                             st.sampled_from((-top, top)))
    if draw(st.booleans()):
        head = {v: draw(st.integers(0, min(2, box[v]))) for v in names}
        f = TruncatedSeries.monomial(box, head, draw(coefficients))
    else:
        shape = tuple(b + 1 for b in box.values())
        values = draw(st.lists(coefficients, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        f = TruncatedSeries.zero(box)
        f.coeffs[...] = np.array(values, dtype=np.int64).reshape(shape)
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        base = {v: draw(st.integers(0, 2)) for v in names}
        base[draw(st.sampled_from(names))] = draw(st.integers(1, 2))
        ratio = {v: draw(st.integers(0, 2)) for v in names}
        if any(ratio.values()) and draw(st.booleans()):
            n = INFINITY
        else:
            n = draw(st.integers(1, 5))
        distinct.append((base, ratio, n))
    products = draw(st.lists(st.sampled_from(distinct), min_size=1,
                             max_size=5))
    return box, f, products


# c / (1 - q)^5 on q <= 8 peaks at C(12, 4) c = 495 c, which fits int64 for
# c = 2^54 and not for 2^55, while c times one factor's growth, 9, fits
_FIVE = [({"q": 1}, {"q": 0}, 1)] * 5


@settings(max_examples=200, deadline=None)
@given(expansion_cases())
@example(({"q": 8}, TruncatedSeries.constant({"q": 8}, 2 ** 54), _FIVE))
@example(({"q": 8}, TruncatedSeries.constant({"q": 8}, 2 ** 55), _FIVE))
def test_one_pass_quotient_equals_the_chained_quotients(case):
    box, f, products = case
    before = f.coeffs.copy()
    chained = f
    try:
        for base, ratio, n in products:
            chained = divided(chained, base, ratio, n)
    except CoefficientOverflow:
        with pytest.raises(CoefficientOverflow):
            one_pass(f, products)
    else:
        got = one_pass(f, products)
        factors = [e for p in products for e in _factors(box, *p)]
        assert got.tolist() == chained.coeffs.tolist() \
            == exact_quotient(f, factors).tolist()
    assert np.array_equal(f.coeffs, before)


def test_thm81_plans_each_distinct_product_once(monkeypatch):
    # 1 / ((z; 1)_3 (zq; q)_oo^4) on q, z <= 15 has 3 + 4 * 15 factors
    # but only 2 distinct products, whose factors have 16 distinct
    # exponents: z and q^k z for k = 1..15
    plans = _plans(monkeypatch)
    g = rhs_series("thm8.1", {"t": 4, "r": 4}, {"q": 15, "z": 15})
    assert len(plans) == 2
    assert len({e for steps, _, _ in plans for e, *_ in steps}) == 16
    assert g.coeffs[1, 1] == 4  # the t colours of one 1


def test_equal_factors_share_one_step(monkeypatch):
    # (z; 1)_1000, thm8.1's (z; 1)_(r - 1) at r = 1001, has 1000 equal
    # factors 1 - z: one step is planned and reused, and the growth is
    # the same integer, 5^1000 on z <= 4
    adds = _counting(monkeypatch, "_adds")
    steps, grow, pairs = series._plan.__wrapped__(  # past the plan cache
        (3, 5), ("q", "z"), ((("z", 1),), (), 1000), series._BLOCK_CELLS)
    assert len(adds) == 1
    assert len(steps) == 1000 and len({id(step[3]) for step in steps}) == 1
    assert grow == 5 ** 1000
    assert len(pairs) == 1000 * len(steps[0][3])
    # the quotient is C(999 + k, k) z^k, as 1000 divisions give
    got = one_pass(TruncatedSeries.constant({"q": 2, "z": 4}, 1),
                   [({"z": 1}, {}, 1000)])
    assert got[0].tolist() == [math.comb(999 + k, k) for k in range(5)]


@settings(max_examples=150, deadline=None)
@given(expansion_cases(), st.data())
def test_corner_quotient_equals_the_full_box_quotient(case, data):
    # _quotient divides only the view at or past its head; the quotient
    # of the whole box's monomial is zero below the head as well
    box, _, products = case
    head = {v: data.draw(st.integers(0, bound)) for v, bound in box.items()}
    f = TruncatedSeries.monomial(box, head)
    want = exact_quotient(f, [e for p in products for e in _factors(box, *p)])
    if not _fits(want):
        with pytest.raises(CoefficientOverflow):
            _quotient(box, products, head)
        return
    got = _quotient(box, products, head)
    assert got.coeffs.tolist() == want.tolist()
    below = np.ones(got.coeffs.shape, dtype=bool)
    below[tuple(slice(e, None) for e in head.values())] = False
    assert not got.coeffs[below].any()


@settings(max_examples=200, deadline=None)
@given(expansion_cases(), st.sampled_from((1, 2, 8, 64)))
@example(({"q": 8}, TruncatedSeries.constant({"q": 8}, 2 ** 54), _FIVE), 1)
@example(({"q": 8}, TruncatedSeries.constant({"q": 8}, 2 ** 55), _FIVE), 2)
def test_block_walks_divide_exactly(case, cells):
    # a view of at least `cells` cells ends each division in a block
    # walk; with coefficients near int64 its blocks run checked
    box, f, products = case
    want = exact_quotient(f, [e for p in products for e in _factors(box, *p)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_BLOCK_CELLS", cells)
        try:
            got = one_pass(f, products)
        except CoefficientOverflow:
            # with no negative coefficient every partial sum is at most
            # a coefficient of the quotient
            assert f.coeffs.min() < 0 or not _fits(want)
        else:
            assert got.tolist() == want.tolist()


def _walks(plans):
    """The number of blocks each factor of the plans walks."""
    return [len(adds) - split for steps, _, _ in plans
            for _, _, split, adds in steps]


def test_large_views_walk_blocks_to_the_same_quotient(monkeypatch):
    # q <= 150, z <= 300 holds 45,451 cells, so a division ends in a
    # walk of up to 5 blocks; with no walk the quotient is the same
    box = {"q": 150, "z": 300}
    plans = _plans(monkeypatch)
    walked = rhs_series("eq3", {}, box)
    assert max(_walks(plans)) == 5
    monkeypatch.setattr(series, "_BLOCK_CELLS", 2 ** 62)
    assert same(rhs_series("eq3", {}, box), walked)
    assert verify_identity("eq3", box=box).passed
