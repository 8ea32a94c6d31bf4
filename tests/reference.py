"""Brute-force oracles for the tests, on plain Python ints.

Series are dense numpy arrays of exact Python ints (dtype object), one
axis per variable and indexed by exponent vectors, so they compare with
a TruncatedSeries' coefficients by ``.tolist()``. Partitions are plain
tuples of weakly decreasing parts; conjugate and color_profile here are
the definitions that the library's array maps and histogram profile axes
are checked against. Nothing here calls the series layer, the histogram
kernel or the coloured-partition module.
"""

import itertools

import numpy as np


def _exact(a):
    return np.asarray(a).astype(object)


def truncated_product(a, b):
    """The product of two coefficient arrays of one shape, truncated to it.

    Every pair of exponent vectors i, j whose sum lies in the box adds
    a[i] b[j] there: for each nonzero a[i], the j that fit are one slice
    of b, added to the slice of the output shifted by i.
    """
    a, b = _exact(a), _exact(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    out = np.zeros(a.shape, dtype=object)
    for i in itertools.product(*map(range, a.shape)):
        if a[i]:
            src = tuple(slice(0, dim - e) for e, dim in zip(i, a.shape))
            dst = tuple(slice(e, dim) for e, dim in zip(i, a.shape))
            out[dst] += a[i] * b[src]
    return out


def quotient(f, g):
    """f / g truncated to their common box; g's constant term is +1 or -1.

    The quotient h is the one series with g h = f, so with c = g[0] = 1/c,
    h[k] = c (f[k] - sum of g[j] h[k - j]) over the nonzero g[j], j != 0.
    Lexicographic order computes every h[k - j] before h[k]. h is kept
    flat in an array with one box length of zeros in front of each axis,
    so an index k - j that leaves the box reads one of those zeros.
    """
    f, g = _exact(f), _exact(g)
    if f.shape != g.shape:
        raise ValueError(f"shape mismatch: {f.shape} vs {g.shape}")
    c = g.flat[0]
    if c not in (1, -1):
        raise ValueError(f"constant term is {c}, not +1 or -1")
    strides = [1] * f.ndim
    for axis in range(f.ndim - 2, -1, -1):
        strides[axis] = strides[axis + 1] * 2 * f.shape[axis + 1]
    terms = [(sum(e * s for e, s in zip(j, strides)), g[j])
             for j in itertools.product(*map(range, g.shape))
             if any(j) and g[j]]
    h = [0] * (2 ** f.ndim * f.size)
    out = np.zeros(f.shape, dtype=object)
    for k in itertools.product(*map(range, f.shape)):
        at = sum((e + dim) * s for e, dim, s in zip(k, f.shape, strides))
        h[at] = c * (f[k] - sum(gj * h[at - off] for off, gj in terms))
        out[k] = h[at]
    return out


def q_binomial(n, k):
    """Coefficients of the Gaussian binomial [n, k]_q, degree k(n - k),
    by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
    if k in (0, n):
        return [1]
    left, right = q_binomial(n - 1, k - 1), q_binomial(n - 1, k)
    out = left + [0] * (k * (n - k) + 1 - len(left))
    for e, coeff in enumerate(right):
        out[e + k] += coeff
    return out


def colored_partitions(n, t, top=None):
    """Every t-coloured partition of n once, as a tuple of (part, colour)
    pairs in descending order (part first, then colour).

    top bounds the pairs from above; each pair is at most the one before.
    """
    if n == 0:
        yield ()
        return
    top_part, top_color = (n, t) if top is None else top
    for part in range(min(top_part, n), 0, -1):
        for color in range(top_color if part == top_part else t, 0, -1):
            for rest in colored_partitions(n - part, t, (part, color)):
                yield ((part, color),) + rest


def box_partitions(n, max_part, max_length, distinct=False):
    """Every partition of n into at most max_length parts, each at most
    max_part (and distinct if distinct), in reverse-lexicographic order."""
    if n == 0:
        yield ()
        return
    if max_length == 0:
        return
    for part in range(min(max_part, n), 0, -1):
        for rest in box_partitions(n - part, part - distinct,
                                   max_length - 1, distinct):
            yield (part,) + rest


def hook_length(p, i, j):
    """The number of cells in the hook of cell (i, j), 1-based, of the
    diagram of the weakly decreasing parts p: the cell itself, the cells
    to its right in row i and the cells below it in column j."""
    return p[i - 1] - j + sum(1 for part in p[i:] if part >= j) + 1


def graded_terms(coeffs):
    """The nonzero entries of an array as (index tuple, value) pairs of
    plain Python ints, sorted by total degree and then by index."""
    a = np.asarray(coeffs)
    cells = [(i, int(a[i])) for i in itertools.product(*map(range, a.shape))
             if a[i]]
    return sorted(cells, key=lambda cell: (sum(cell[0]), cell[0]))


def series_text(variables, coeffs):
    """A series as text: its graded terms joined by ' + ' and ' - ' (a
    leading '-' on the first), each the magnitude, left out when it is 1
    and the term has a variable, then 'v' or 'v^e' per variable, all
    joined by '*'; '0' when there is no term."""
    text = ""
    for index, value in graded_terms(coeffs):
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip(variables, index) if e]
        if abs(value) != 1 or not factors:
            factors.insert(0, str(abs(value)))
        body = "*".join(factors)
        if text:
            text += (" - " if value < 0 else " + ") + body
        else:
            text = ("-" if value < 0 else "") + body
    return text or "0"


def conjugate(p):
    """The column lengths of the diagram of the weakly decreasing parts p:
    column j holds one cell for each part >= j."""
    return tuple(sum(1 for part in p if part >= j)
                 for j in range(1, (p[0] if p else 0) + 1))


def color_profile(p, t, r):
    """The t alternating sums c_i = sum over k >= 0 of p_a - p_(a+1), with
    a = kt + r + i - 1, of the weakly decreasing parts p, 1-based and 0
    past the last; they are nonnegative and sum to p_r."""
    def part(a):
        return p[a - 1] if a <= len(p) else 0

    return tuple(sum(part(a) - part(a + 1)
                     for a in range(r + i - 1, len(p) + 1, t))
                 for i in range(1, t + 1))
