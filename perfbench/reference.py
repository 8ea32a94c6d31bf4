"""Reference computations for the benchmark's checks, made apart from partbij.

Imports neither numpy nor partbij. Series are dense lists of Python ints
over an inclusive exponent box, flattened in lexicographic order of the
variables as the caller names them. Every closed form is built from its
product definition in the paper using three steps: start from a
monomial, divide by (1 - monomial), add. Dividing by (1 - x^m) is the
running sum c[e] += c[e - m], taken in increasing lexicographic order.
"""

from itertools import product


class Box:
    """Variable names with inclusive bounds; flat index of an exponent vector."""

    def __init__(self, names, bounds):
        self.names = tuple(names)
        self.bounds = tuple(int(b) for b in bounds)
        strides = []
        step = 1
        for b in reversed(self.bounds):
            strides.append(step)
            step *= b + 1
        self.strides = tuple(reversed(strides))
        self.volume = step

    def exps(self, mono):
        """Exponent vector of a {name: exponent} monomial, None outside the box."""
        out = [int(mono.get(v, 0)) for v in self.names]
        if any(e > b for e, b in zip(out, self.bounds)):
            return None
        return out

    def flat(self, exps):
        return sum(e * s for e, s in zip(exps, self.strides))


def monomial(box, mono, coeff=1):
    c = [0] * box.volume
    e = box.exps(mono)
    if e is not None:
        c[box.flat(e)] = coeff
    return c


def add_into(acc, c):
    for i, v in enumerate(c):
        if v:
            acc[i] += v
    return acc


def divide_one_minus(box, c, mono):
    """c / (1 - x^mono) in place; mono must not be the constant monomial."""
    m = box.exps(mono)
    if m is None:
        return c
    if not any(m):
        raise ValueError("1/(1 - 1) has no series")
    off = box.flat(m)
    for idx in product(*(range(e, b + 1) for e, b in zip(m, box.bounds))):
        i = box.flat(idx)
        c[i] += c[i - off]
    return c


def poch_monomials(box, base, ratio, n=None):
    """Monomials base*ratio^k of (base; ratio)_n that lie inside the box.

    n=None is the infinite product; its factors leave the box once their
    exponents pass it, since every exponent grows with k.
    """
    if n is None and not any(ratio.values()):
        raise ValueError("infinite product with constant ratio")
    out = []
    k = 0
    while n is None or k < n:
        mono = {v: base.get(v, 0) + k * ratio.get(v, 0)
                for v in set(base) | set(ratio)}
        if box.exps(mono) is None:
            break
        out.append(mono)
        k += 1
    return out


def quotient(box, head, denominators):
    """x^head divided by every (1 - x^m) in denominators."""
    c = monomial(box, head)
    for mono in denominators:
        divide_one_minus(box, c, mono)
    return c


def closed_form(ident, params, box):
    """Coefficients of the product side of a catalog identity.

    The formulas are the paper's, written here from its statements:
    (a; b)_n is the product of (1 - a b^k) for k < n.
    """
    inf = None
    zq = poch_monomials(box, {"q": 1, "z": 1}, {"q": 1}, inf)

    if ident in ("thm3.1", "eq3"):
        # 1 / (qz; q z^2)_inf
        return quotient(box, {}, poch_monomials(box, {"q": 1, "z": 1}, {"q": 1, "z": 2}))
    if ident == "thm3.2":
        # 1 / (z; q z^2)_inf
        return quotient(box, {}, poch_monomials(box, {"z": 1}, {"q": 1, "z": 2}))
    if ident == "thm5.1":
        # 1 / (zq; q)_inf^2
        return quotient(box, {}, zq * 2)
    if ident == "thm5.2":
        # 1 / ((1 - z) (zq; q)_inf^2)
        return quotient(box, {}, [{"z": 1}] + zq * 2)
    if ident == "thm8.1":
        # 1 / ((z; 1)_{r-1} (zq; q)_inf^t)
        t, r = params["t"], params["r"]
        return quotient(box, {}, [{"z": 1}] * (r - 1) + zq * t)
    if ident == "cor10":
        # 1 / ((zq; q)_inf (z q^{r-1}; q^{t-1})_inf)
        t, r = params["t"], params["r"]
        tail = poch_monomials(box, {"q": r - 1, "z": 1}, {"q": t - 1})
        return quotient(box, {}, zq + tail)
    if ident == "eq14":
        # 1 / (zq; q)_n^2
        n = params["n"]
        return quotient(box, {}, poch_monomials(box, {"q": 1, "z": 1}, {"q": 1}, n) * 2)
    if ident in ("thm4.1", "thm4.2"):
        # thm4.1: 1 + sum_{n>=1} q^{n(2n+1)} z^{4n-1} / (zq; q)_n^4
        # thm4.2:     sum_{n>=1} q^{n(2n-1)} z^{4n-3} / ((zq; q)_n^2 (zq; q)_{n-1}^2)
        acc = monomial(box, {}) if ident == "thm4.1" else [0] * box.volume
        n = 1
        while True:
            if ident == "thm4.1":
                head = {"q": n * (2 * n + 1), "z": 4 * n - 1}
                dens = poch_monomials(box, {"q": 1, "z": 1}, {"q": 1}, n) * 4
            else:
                head = {"q": n * (2 * n - 1), "z": 4 * n - 3}
                dens = (poch_monomials(box, {"q": 1, "z": 1}, {"q": 1}, n) * 2
                        + poch_monomials(box, {"q": 1, "z": 1}, {"q": 1}, n - 1) * 2)
            if box.exps(head) is None:
                return acc
            add_into(acc, quotient(box, head, dens))
            n += 1
    if ident == "thm8.2":
        # prod_{i=1..t} 1 / (q z_i; q)_inf
        t = params["t"]
        dens = []
        for i in range(1, t + 1):
            dens += poch_monomials(box, {"q": 1, f"z{i}": 1}, {"q": 1})
        return quotient(box, {}, dens)
    if ident == "thm9":
        # 1 / (sz; s)_{r-1} * prod_{n>=0} 1 / (s^{nt+r} q^{n+1} z; s)_t
        t, r = params["t"], params["r"]
        dens = poch_monomials(box, {"s": 1, "z": 1}, {"s": 1}, r - 1)
        n = 0
        while True:
            base = {"s": n * t + r, "q": n + 1, "z": 1}
            if box.exps(base) is None:
                break
            dens += poch_monomials(box, base, {"s": 1}, t)
            n += 1
        return quotient(box, {}, dens)
    raise ValueError(f"no reference closed form for {ident}")


def partitions(n, max_part=None):
    """Every partition of n with parts <= max_part, as tuples, largest part first."""
    cap = n if max_part is None else min(n, max_part)
    if n == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def row_weight(parts, t, r):
    """Sum of the parts in rows r, r+t, r+2t, ... (rows counted from 1)."""
    return sum(parts[r - 1::t])


def largest_part_series(n, t, box):
    """Partitions with largest part exactly n, keyed (row-t weight, size).

    box names exactly q and s; q carries the weight of rows 1, 1+t, ...
    and s the size. Sizes beyond the s bound are never needed.
    """
    c = [0] * box.volume
    s_max = box.bounds[box.names.index("s")] if n else 0
    for size in range(n, s_max + 1):
        for rest in partitions(size - n, n):
            lam = (n,) + rest if n else rest
            e = box.exps({"q": row_weight(lam, t, 1), "s": size})
            if e is not None:
                c[box.flat(e)] += 1
    return c


class PartitionSampler:
    """Uniform random partitions of n.

    counts[m][k] is the number of partitions of m with parts <= k; the
    largest part j of a partition of m with parts <= k is drawn with
    weight counts[m - j][j], and the rest of the partition after it.
    """

    def __init__(self, n):
        counts = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(n)]
        for m in range(1, n + 1):
            row = counts[m]
            for k in range(1, n + 1):
                row[k] = row[k - 1] + (counts[m - k][k] if k <= m else 0)
        self.counts = counts
        self.n = n

    def draw(self, rng):
        m = k = self.n
        parts = []
        while m:
            x = rng.randrange(self.counts[m][k])
            j = min(k, m)
            while x >= self.counts[m - j][j]:
                x -= self.counts[m - j][j]
                j -= 1
            parts.append(j)
            m -= j
            k = j
        return tuple(parts)
