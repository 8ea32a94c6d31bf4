"""Exact-integer multivariate power series truncated to a per-variable box.

A series lives on a fixed, canonically ordered variable tuple with an
inclusive maximum exponent per variable; coefficients sit in a dense int64
array indexed by exponent vectors. All arithmetic is exact. A series is
"box-exact" when every stored coefficient equals the coefficient of the
formal series it stands for; sums of box-exact series, and their
quotients by Pochhammer products, are box-exact because exponents only
ever add.

Every closed form of the catalog divides by Pochhammer products, and
division needs no general product: dividing by 1 - x^e is the doubling
product (1 + x^e)(1 + x^2e)(1 + x^4e)..., one shift-add per doubling
until the shift leaves the box. In a view of many cells the doublings
stop once few multiples of the exponent are left, and the rest is the
recurrence c[x] += c[x - e] walked a disjoint block at a time. A whole
closed form, a list of Pochhammer products, runs in one pass, factor by
factor in order, in place on one array under one running bound on its
magnitude, which a factor at most multiplies by the number of input
coefficients a quotient coefficient sums. A caller that owns its array
divides only the view at or past the input's lowest nonzero corner, with
the bound it knows: the quotient is zero below that corner too, and the
view is a smaller box. The growth is checked once per product: while
the bound times the growth of all of a product's factors fits int64,
the product's adds run unchecked, each an in-place add on a view, and
the bound is multiplied once. Since the bound only grows, that is
exactly when every factor's own check would pass. When it does not fit,
the exact maximum is taken again, and if it still does not, the product
runs factor by factor: a factor that still might overflow runs each add
unchecked where its own bound, from the exact maximum of its source,
fits int64 and checked where it does not. Every operation raises
CoefficientOverflow only when a coefficient would really leave int64.

The layer has no substitution of variables: eq24's side F(s, q, s^t q z)
is a gather from the histogram array in the verify module, which then
divides that array in place.

The plan of a pass is made once per product and view shape and kept
across calls (_plan): the product's factors in the box, counted with one
floor division per axis (the k-th factor of (base; ratio)_n lies in the
box while k <= (bound - base) // ratio on every axis where ratio moves),
each factor's growth and the indices of its adds' destination and
source views, and the product of the growths. A call turns a product's
indices into views once, the first time the product comes up, and
shares them with its repeats, such as the t copies of (zq; q)_oo.

A series is printed, as JSON or as plain text, from its arrays, with
no dict per term: its nonzero cells are sorted once into
graded-lexicographic order, each kind of term gets one %-template (for
JSON its carried variables; for text also its sign, which exponents are
1 and whether the magnitude shows), and the joined templates are filled
from one list of the cells' numbers. The JSON is what json.dumps prints
for the same document.
"""

import collections
import functools
import json
import math
import re
from operator import add, index, sub

import numpy as np

from ._accel import _zeros

INFINITY = math.inf

_ZNUM = re.compile(r"^z([1-9][0-9]*)$")


class SeriesError(ValueError):
    """Base class for series failures."""


class BoxMismatch(SeriesError):
    """Operands live on different variables or boxes."""


class NonUnitConstantTerm(SeriesError):
    """A Pochhammer divisor has a factor 1 - 1, whose constant term is 0."""


class DivergentInfiniteProduct(SeriesError):
    """Infinite Pochhammer with a constant ratio never leaves the box."""


class OutOfBox(SeriesError):
    """Requested exponent vector lies outside the box."""


class CoefficientOverflow(SeriesError):
    """A coefficient would leave the int64 range."""


def _var_key(name):
    if name == "q":
        return (0, 0, "")
    if name == "z":
        return (1, 0, "")
    if name == "s":
        return (2, 0, "")
    m = _ZNUM.match(name)
    if m:
        return (3, int(m.group(1)), "")
    return (4, 0, name)


# numpy's limit on the dimensions of an array: 32 before numpy 2.0, 64 since
_MAX_VARIABLES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


def _canon_box(box):
    """Split a {name: bound} dict into aligned variable and bound tuples."""
    if len(box) > _MAX_VARIABLES:
        raise SeriesError(f"a box has at most {_MAX_VARIABLES} variables, "
                          f"numpy's limit on array dimensions; got {len(box)}")
    variables = tuple(sorted(box, key=_var_key))
    bounds = []
    for v in variables:
        b = int(box[v])
        if b < 0:
            raise SeriesError(f"negative bound for {v}: {b}")
        bounds.append(b)
    return variables, tuple(bounds)


_INT64_MAX = 2**63 - 1


def _overflow():
    return CoefficientOverflow("coefficient exceeds the int64 range")


def _checked(value):
    """An integer coefficient as a Python int, raising if it leaves int64."""
    value = index(value)
    if not -_INT64_MAX - 1 <= value <= _INT64_MAX:
        raise _overflow()
    return value


def _sum(a, b):
    """a + b, raising if a coefficient wrapped: an int64 sum wraps exactly
    when it lands on the wrong side of a for the sign of b."""
    out = a + b
    if np.not_equal(out < a, b < 0).any():
        raise _overflow()
    return out


# A division walks disjoint blocks only in views of at least this many
# cells, and there once at most cells // _BLOCK_CELLS multiples of its
# exponent are left. Each block is one more numpy call: at the suites'
# boxes, of a few hundred cells, blocks ran 9-27% slower than doubling,
# while in eq3's view of 435,000 cells at q 466, z 932 they halve the
# product side. 8192 lies above every view of the suites and of the
# closed-form benchmark, whose largest holds 4,913 cells.
_BLOCK_CELLS = 8192


def _max_abs(coeffs):
    return max(int(coeffs.max()), -int(coeffs.min()))


def _add_under(dst, src, low, bound):
    """dst += src, where low bounds the magnitude of dst and bound that
    of the whole array; returns the bound after the add. The add runs
    unchecked when low plus the exact maximum of src fits int64, and
    checked, by _sum, when it does not."""
    top = low + _max_abs(src)
    if top > _INT64_MAX:
        dst[...] = _sum(dst, src)
        top = _max_abs(dst)
    else:
        dst += src
    return max(bound, top)


def _adds(shape, e, block_cells):
    """The plan that divides an array of this shape by 1 - x^e: (grow,
    split, adds), where grow - 1 multiples of e fit the box and adds are
    the (destination, source) index tuples of the in-place adds, run in
    order, the first split of them doubling shifts and the rest a block
    walk.

    The doubling shifts add the array to itself shifted by e, 2e, 4e,
    ...; after j of them the rest of the division is by 1 - x^(2^j e).
    They run until no multiple of that exponent fits, or, in a view of
    at least block_cells cells, until at most cells // block_cells
    multiples fit, and _blocks walks the rest.
    """
    grow = min([(dim - 1) // k for k, dim in zip(e, shape) if k]) + 1
    adds = []
    left = grow - 1  # multiples of the current exponent in the box
    while left > math.prod(shape) // block_cells:
        adds.append((tuple(map(slice, e, shape)),
                     tuple(map(slice, map(sub, shape, e)))))
        e = [k << 1 for k in e]
        left >>= 1
    split = len(adds)
    if left:
        adds += _blocks(shape, e, left)
    return grow, split, tuple(adds)


def _blocks(shape, e, left):
    """The indices of the recurrence c[x] += c[x - e] walked upward a
    block at a time, when left multiples of e fit the box: block k = 1,
    ..., left is the k-th run of e rows along an axis where the fewest
    multiples fit, and it adds the run below it, shifted by e, which is
    final before it is read. Source and destination never overlap, and
    each cell is added once."""
    ax = min((i for i, k in enumerate(e) if k),
             key=lambda i: (shape[i] - 1) // e[i])
    dst = list(map(slice, e, shape))
    src = list(map(slice, map(sub, shape, e)))
    walk = []
    for start in range(e[ax], left * e[ax] + 1, e[ax]):
        stop = min(start + e[ax], shape[ax])
        dst[ax] = slice(start, stop)
        src[ax] = slice(start - e[ax], stop - e[ax])
        walk.append((tuple(dst), tuple(src)))
    return walk


def _graded_lex(coeffs):
    """The nonzero cells of an array in graded-lexicographic order: the
    rows of their index vectors sorted by total degree, then by index,
    and their values."""
    nonzero = coeffs != 0
    idx = np.argwhere(nonzero)
    order = np.lexsort((*idx.T[::-1], idx.sum(axis=1)))
    return idx[order], coeffs[nonzero][order]


class TruncatedSeries:
    """Dense truncated series. Build via zero / constant / monomial."""

    __slots__ = ("variables", "box", "coeffs")

    def __init__(self, variables, box, coeffs):
        self.variables = variables
        self.box = box
        self.coeffs = coeffs

    @classmethod
    def zero(cls, box):
        variables, bounds = _canon_box(box)
        return cls(variables, bounds, _zeros(tuple(b + 1 for b in bounds)))

    @classmethod
    def constant(cls, box, value):
        f = cls.zero(box)
        f.coeffs[(0,) * len(f.variables)] = _checked(value)
        return f

    @classmethod
    def monomial(cls, box, exponents, coeff=1):
        """Single term; exponents maps variable name to exponent, zeros may be omitted."""
        f = cls.zero(box)
        idx = f._index(exponents)
        f.coeffs[idx] = _checked(coeff)
        return f

    def _index(self, exponents):
        idx = [0] * len(self.variables)
        pos = {v: i for i, v in enumerate(self.variables)}
        for name, e in exponents.items():
            e = int(e)
            if e == 0:
                continue
            if e < 0 or name not in pos or e > self.box[pos[name]]:
                raise OutOfBox(f"{name}^{e} outside box")
            idx[pos[name]] = e
        return tuple(idx)

    def box_dict(self):
        return dict(zip(self.variables, self.box))

    def copy(self):
        return TruncatedSeries(self.variables, self.box, self.coeffs.copy())

    def _check_aligned(self, other):
        if self.variables != other.variables or self.box != other.box:
            raise BoxMismatch(
                f"{self.variables}/{self.box} vs {other.variables}/{other.box}")

    def text(self):
        """Plain rendering, e.g. '1 + q*z + 2*q^2*z^2', written straight
        from the coefficients like json_text(): a term's template, such
        as ' - %d*q*z^%d', follows from its sign, whether its magnitude
        shows (it is not 1, or the term has no variable) and which
        variables it carries with exponent 1 or more; the terms'
        templates are joined in order and one tolist() of the shown
        magnitudes and exponents fills them."""
        idx, values = _graded_lex(self.coeffs)
        if not len(values):
            return "0"
        carried = np.minimum(idx, 2)  # absent, bare, or with an exponent
        shown = (np.abs(values) != 1) | ~idx.any(axis=1)
        kinds, pattern = np.unique(
            (carried @ 3 ** np.arange(len(self.variables)) * 2 + shown) * 2
            + (values < 0), return_inverse=True)
        templates = []
        for kind in kinds.tolist():
            factors = ["%d"] if kind & 2 else []
            states = kind >> 2
            for v in self.variables:
                states, state = divmod(states, 3)
                if state:
                    factors.append(v.replace("%", "%%")
                                   + ("" if state == 1 else "^%d"))
            templates.append((" - " if kind & 1 else " + ")
                             + "*".join(factors))
        templates = np.array(templates, dtype=object)
        # magnitudes as uint64: abs(-2**63) wraps in int64
        table = np.column_stack([np.abs(values).view(np.uint64),
                                 idx.astype(np.uint64)])
        text = "".join(templates[pattern].tolist()) % tuple(
            table[np.column_stack([shown, carried == 2])].tolist())
        return ("-" if values[0] < 0 else "") + text[3:]

    def json_text(self):
        """The JSON document {"box": {name: bound}, "terms": [[exponents,
        coeff], ...]}, terms in graded-lexicographic order, as json.dumps
        prints it, written straight from the coefficients: each pattern
        of carried variables gets one %-template, such as
        '[{"q": %d, "z": %d}, %d]', the terms' templates are joined in
        order, and one tolist() of the nonzero cells of the rows
        (exponents, value) fills them."""
        idx, values = _graded_lex(self.coeffs)
        table = np.column_stack([idx, values])
        cells = table != 0  # every value is nonzero
        keys = [json.dumps(v).replace("%", "%%") + ": %d"
                for v in self.variables]
        masks, pattern = np.unique(cells[:, :-1] @ (1 << np.arange(len(keys))),
                                   return_inverse=True)
        templates = np.array(
            ["[{" + ", ".join(k for i, k in enumerate(keys) if m >> i & 1)
             + "}, %d]" for m in masks.tolist()], dtype=object)
        terms = ", ".join(templates[pattern].tolist()) % tuple(
            table[cells].tolist())
        return '{"box": %s, "terms": [%s]}' % (
            json.dumps(self.box_dict()), terms)


def _monomial_exponents(variables, m):
    exps = [0] * len(variables)
    pos = {v: i for i, v in enumerate(variables)}
    for name, e in m.items():
        e = int(e)
        if e < 0:
            raise SeriesError(f"negative exponent {name}^{e}")
        if e == 0:
            continue
        if name not in pos:
            raise SeriesError(f"variable {name} not in box")
        exps[pos[name]] = e
    return exps


def _factor_exponents(variables, bounds, base, ratio, n):
    """Exponent vectors of the factors of (base; ratio)_n inside the box.

    Exponents only grow with k, so the factors in the box are the first
    count of them, where count is the least (bound - base) // ratio + 1
    over the axes the ratio moves, and none if the base leaves the box.
    """
    b = _monomial_exponents(variables, base)
    r = _monomial_exponents(variables, ratio)
    if n is INFINITY:
        if not any(r):
            raise DivergentInfiniteProduct("constant ratio")
    else:
        n = int(n)
        if n < 0:
            raise SeriesError(f"negative factor count {n}")
    count = n
    for e, d, bound in zip(b, r, bounds):
        if e > bound:
            return []
        if d:
            count = min(count, (bound - e) // d + 1)
    factors, e = [], tuple(b)
    for _ in range(count):
        factors.append(e)
        e = tuple(map(add, e, r))
    return factors


@functools.lru_cache(maxsize=4096)
def _plan(shape, variables, product, block_cells):
    """The plan that divides an array of this shape, its axes variables,
    by one Pochhammer product, given as (base items, ratio items, n):
    (steps, grow, adds), where steps holds each factor's (e, grow, split,
    adds) from _adds, in order, grow is the product of the factors'
    growths and adds chains the steps' adds. NonUnitConstantTerm if a
    factor is 1 - 1.
    """
    base, ratio, n = product
    factors = _factor_exponents(variables, [dim - 1 for dim in shape],
                                dict(base), dict(ratio), n)
    # exponents only grow, so only the first factor can be 1 - 1
    if factors and not any(factors[0]):
        raise NonUnitConstantTerm("constant term is 0")
    # equal factors, as in (1 - q^s)^t, share one step
    repeats = collections.Counter(factors)
    plans = {e: _adds(shape, e, block_cells) for e in repeats}
    steps = tuple((e, *plans[e]) for e in factors)
    return (steps, math.prod(plans[e][0] ** k for e, k in repeats.items()),
            tuple(pair for step in steps for pair in step[3]))


def _divide(coeffs, variables, products, bound=None):
    """Divide coeffs in place by each factor (1 - x^e) of every (base,
    ratio, n) Pochhammer product in products, factor by factor in order,
    and return a bound on the magnitude of the result. NonUnitConstantTerm
    if a factor is 1 - 1.

    coeffs is an array or a view of one, its axes variables and its
    shape the box; a caller whose input is zero below some corner
    passes only the view at or past it. bound, if given, bounds the
    input's magnitude; if not, the exact maximum is taken when needed.

    Each quotient coefficient, and each partial sum on the way to it,
    sums at most grow input coefficients, one more than the multiples of
    e in the box, so a factor whose grow times the bound fits int64 can
    run its adds unchecked and multiply the bound by grow. The bound only
    grows, so every factor of a product passes that test iff the bound
    times the product of their grows fits: then the product's adds run
    unchecked as one run and the bound is multiplied once. When it does
    not fit, a grown bound is taken again exactly, and if it still does
    not, each factor is a run of its own: a factor that fits runs
    unchecked, and before one that does not a grown bound is taken again
    exactly and, if it still might overflow, each add runs through
    _add_under. A product's plan is made once per shape (_plan) and its
    views once per call, shared by its repeats, as in (zq; q)_oo^t.
    """
    plans = {}
    grown = True  # bound may lie above the exact maximum
    for base, ratio, n in products:
        key = tuple(base.items()), tuple(ratio.items()), n
        plan = plans.get(key)
        if plan is None:
            steps, grow, adds = _plan(coeffs.shape, variables, key,
                                      _BLOCK_CELLS)
            plan = plans[key] = steps, grow, [(coeffs[dst], coeffs[src])
                                              for dst, src in adds]
        steps, grow, pairs = plan
        if not steps:  # the view may be empty: take no maximum
            continue
        if bound is None or grown and bound * grow > _INT64_MAX:
            bound, grown = _max_abs(coeffs), False
        # (grow, split, count) of each run of adds: the whole product if
        # it fits, as every factor's own check then passes, else each factor
        if bound * grow <= _INT64_MAX:
            runs = [(grow, len(pairs), len(pairs))]
        else:
            runs = [(grow, split, len(adds)) for _, grow, split, adds in steps]
        stop = 0
        for grow, split, count in runs:
            start, stop = stop, stop + count
            if grown and bound * grow > _INT64_MAX:
                bound, grown = _max_abs(coeffs), False
            if bound * grow <= _INT64_MAX:
                for dst, src in pairs[start:stop]:
                    dst += src
                bound *= grow
                grown = True
                continue
            # a doubling shift adds to cells under bound; a block adds to
            # cells no earlier block wrote, which are under low
            for dst, src in pairs[start:start + split]:
                bound = _add_under(dst, src, bound, bound)
            low = bound
            for dst, src in pairs[start + split:stop]:
                bound = _add_under(dst, src, low, bound)
            grown = False
    return bound


def first_mismatch(f, g):
    """First differing monomial in graded-lex order, or None if equal in box.

    Returns (exponents, f_coeff, g_coeff).
    """
    f._check_aligned(g)
    if np.array_equal(f.coeffs, g.coeffs):
        return None
    idx, _ = _graded_lex(f.coeffs != g.coeffs)
    if not len(idx):
        return None
    first = tuple(idx[0].tolist())
    exps = {v: e for v, e in zip(f.variables, first) if e}
    return exps, int(f.coeffs[first]), int(g.coeffs[first])
