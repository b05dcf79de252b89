"""Formal series over pairs of partitions, and the scalar types they carry.

Coefficients are exact rationals, dense polynomials in the moment order k
(KPoly), or mpmath floats at the ambient working precision.  Mixed arithmetic
promotes in that order: rational times poly stays a poly, anything times a
float becomes a float, a poly scaled by a float keeps polynomial shape with
float coefficients.

A PairSeries is a truncated series indexed by pairs (mu, nu) of partitions,
graded by total weight.  In the powersum basis multiplication is the free
commutative product (part multisets concatenate), taken weight by weight;
exp and log sum their defining power series by repeated products.  The
engine's exp and log run on integer lists over one plan per weight (_plan)
by the grading derivation's recurrence, which the oracles check against
the defining series; its series are symmetric under swapping the two
partitions, so the plan keeps only the products the first key of each
mirror pair needs.
"""

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from mpmath import mp

from .characters import character_table
from .partitions import _check_index, check_partition, partitions_of

POWERSUM = "powersum"
SCHUR = "schur"
EMPTY_KEY = ((), ())


class KPoly:
    """Dense univariate polynomial, low degree first, zero stored as ()."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __eq__(self, other):
        if isinstance(other, KPoly):
            return self.coeffs == other.coeffs
        # scalar comparison against the constant polynomial
        if not self.coeffs:
            return other == 0
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, KPoly):
            other = KPoly.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return KPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return KPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, KPoly):
            if not self.coeffs or not other.coeffs:
                return KPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return KPoly(out)
        return KPoly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __repr__(self):
        return "KPoly(%r)" % (self.coeffs,)


class PairSeries:
    """Truncated series over partition pairs, graded by total weight."""

    __slots__ = ("basis", "max_weight", "coeffs")

    def __init__(self, basis, max_weight, coeffs=None):
        if basis not in (POWERSUM, SCHUR):
            raise ValueError("unknown basis %r" % (basis,))
        _check_index(max_weight, "max_weight")
        self.basis = basis
        self.max_weight = max_weight
        self.coeffs = {}
        if coeffs:
            for (mu, nu), val in coeffs.items():
                mu = check_partition(mu)
                nu = check_partition(nu)
                if sum(mu) + sum(nu) > max_weight:
                    raise ValueError(
                        "key (%r, %r) exceeds max_weight %d" % (mu, nu, max_weight)
                    )
                if val != 0:
                    self.coeffs[(mu, nu)] = val

    def get(self, mu, nu):
        return self.coeffs.get((tuple(mu), tuple(nu)), 0)

    def __eq__(self, other):
        if not isinstance(other, PairSeries):
            return NotImplemented
        return (
            self.basis == other.basis
            and self.max_weight == other.max_weight
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return "PairSeries(%s, max_weight=%d, %d terms)" % (
            self.basis,
            self.max_weight,
            len(self.coeffs),
        )

    def copy(self):
        out = PairSeries(self.basis, self.max_weight)
        out.coeffs = dict(self.coeffs)
        return out


def pair_keys(wmax):
    """The pair keys (mu, nu) of total weight <= wmax, by weight, within
    weight w by |mu| = 0..w, then partitions_of's order for mu and for nu."""
    return [(mu, nu) for w in range(wmax + 1) for a in range(w + 1)
            for mu in partitions_of(a) for nu in partitions_of(w - a)]


class _Plan(NamedTuple):
    """The engine's products among the pair keys of total weight <= wmax.

    keys is pair_keys(wmax), keys[starts[w]:starts[w + 1]] those of weight
    w, and twin[i] indexes the mirror of keys[i], its partitions swapped.
    products[w][j] lists the index triples (out, a, b), keys[a] of weight
    j, keys[b] of weight w - j and keys[out] their product, both part
    multisets merged, whose out is the first of its mirror pair, twin[out]
    >= out: on symmetric series the caller copies the other outputs.
    """

    keys: tuple
    starts: tuple
    products: tuple
    twin: tuple


@lru_cache(maxsize=None)
def _plan(wmax):
    keys = tuple(pair_keys(wmax))
    weights = [sum(m) + sum(nu) for m, nu in keys]
    starts = tuple(bisect_left(weights, w) for w in range(wmax + 2))
    index = {key: i for i, key in enumerate(keys)}
    twin = tuple(index[key[::-1]] for key in keys)
    at = [range(starts[w], starts[w + 1]) for w in range(wmax + 1)]
    left = [sum(m) for m, _ in keys]

    def times(a, b):
        (m1, n1), (m2, n2) = keys[a], keys[b]
        return index[(tuple(sorted(m1 + m2, reverse=True)),
                      tuple(sorted(n1 + n2, reverse=True)))]

    # a weight-w key comes before its mirror only if |mu| <= w/2 (pair_keys'
    # order), so a pair whose merged |mu| passes w/2 is dropped unformed
    products = tuple(
        tuple(tuple((o, a, b) for a in at[j] for b in at[w - j]
                    if 2 * (left[a] + left[b]) <= w and twin[o := times(a, b)] >= o)
              for j in range(w + 1))
        for w in range(wmax + 1)
    )
    return _Plan(keys, starts, products, twin)


def _accumulate(triples, x, y, acc):
    """acc[out] += x[a] * y[b] over the triples."""
    for out, a, b in triples:
        acc[out] += x[a] * y[b]


def series_mul(a, b):
    """Product of two powersum-basis series, truncated at the smaller order;
    the terms pair weight by weight, so none past the truncation is formed."""
    if a.basis != b.basis:
        raise ValueError("cannot multiply series in different bases")
    if a.basis != POWERSUM:
        raise ValueError("series multiplication requires the powersum basis")
    wmax, x, y, acc = min(a.max_weight, b.max_weight), {}, {}, {}
    for group, series in ((x, a), (y, b)):
        for key, val in series.coeffs.items():
            group.setdefault(sum(key[0]) + sum(key[1]), []).append((key, val))
    for i, xs in x.items():
        for j, ys in y.items():
            if i + j > wmax:
                continue
            for (m1, n1), u in xs:
                for (m2, n2), v in ys:
                    key = (tuple(sorted(m1 + m2, reverse=True)),
                           tuple(sorted(n1 + n2, reverse=True)))
                    acc[key] = acc.get(key, 0) + u * v
    out = PairSeries(POWERSUM, wmax)
    out.coeffs = {key: v for key, v in acc.items() if v != 0}
    return out


def _power_series(series, name, constant, divisor):
    """exp (constant 0) or log (constant 1) by its defining power series:
    1 - constant plus sum_{m>=1} x**m / divisor(m) through the truncation,
    x the series less its constant term, which must be `constant`.  x**m
    starts at weight m; an mpf rounds once per division."""
    if series.basis != POWERSUM:
        raise ValueError("%s requires the powersum basis" % name)
    if series.coeffs.get(EMPTY_KEY, 0) != constant:
        raise ValueError("%s needs constant term %d" % (name, constant))
    x = series.copy()
    x.coeffs.pop(EMPTY_KEY, None)
    total, power = {EMPTY_KEY: 1 - constant}, x
    for m in range(1, x.max_weight + 1):
        d, inv = divisor(m), Fraction(1, divisor(m))
        for key, v in power.coeffs.items():
            total[key] = total.get(key, 0) + (
                v / d if isinstance(v, mp.mpf) else v * inv)
        power = series_mul(power, x)
    x.coeffs = {key: v for key, v in total.items() if v != 0}
    return x


def _exp_fixed(plan, L, B):
    """S = exp(L) in units of 2**-B, L symmetric over plan.keys, L[0] unread:
    S_0 = 2**B, S_w = L_w + floor(sum_{0<j<w} (j L_j) S_{w-j} / (w 2**B)),
    the grading derivation's recurrence (D S = (D L) S, D multiplying weight
    w by w) summed over the plan's outputs, the mirrors copied.
    For exact L the errors summed over the K_w keys of weight w are under K_w
    + sum_{0<j<w} (j/w) Lam_j E_{w-j} units, Lam the sums of |L| / 2**B."""
    n, twin = len(plan.keys), plan.twin
    s, dl, cross = [1 << B] + [0] * (n - 1), [0] * n, [0] * n
    for w in range(1, len(plan.starts) - 1):
        for j in range(1, w):
            _accumulate(plan.products[w][j], dl, s, cross)
        wB = w << B
        for i in range(plan.starts[w], plan.starts[w + 1]):
            s[i] = L[i] + cross[i] // wB if twin[i] >= i else s[twin[i]]
            dl[i] = L[i] * w
    return s


def _log_l1(t):
    """Lam_n = t_n + sum_{0<j<n} C(n-1, j-1) Lam_j t_{n-j}: with t_n the l1
    norms of S = n! X summed over the keys of weight n (or more), that of L =
    n! log(1 + X), and of its partial sums in _packed_log's recurrence."""
    lam = list(t)
    for n in range(2, len(t)):
        lam[n] += sum(comb(n - 1, j - 1) * lam[j] * t[n - j]
                      for j in range(1, n))
    return lam


def _pack(coeffs, K):
    """The polynomial with these coefficients, low first, at 2**K."""
    return sum(c << K * u for u, c in enumerate(coeffs))


def _packed_log(plan, P, K, slots):
    """L = n! log(1 + X) over plan.keys from S = n! X, each packed into one
    int at 2**K (P, P[0] unread): L_n = S_n - sum_{0<j<n} C(n-1, j-1) L_j
    S_{n-j}, cut to `slots` slots, exact for K = bit_length(max _log_l1) +
    1.  Each L comes back with 2**(K-1) added per slot, for _unpack."""
    starts, twin, mask = plan.starts, plan.twin, (1 << K * slots) - 1
    bias = mask // ((1 << K) - 1) << K - 1
    L = list(P)
    for n in range(2, len(starts) - 1):
        acc = [0] * len(P)
        for j in range(1, n):
            c = comb(n - 1, j - 1)
            cl = [0] * starts[j] + [c * v for v in L[starts[j]:starts[j + 1]]]
            _accumulate(plan.products[n][j], cl, P, acc)
        for i in range(starts[n], starts[n + 1]):
            L[i] = (((L[i] - acc[i] + bias) & mask) - bias
                    if twin[i] >= i else L[twin[i]])
    for i, t in enumerate(twin):
        L[i] = L[i] + bias if t >= i else L[t]
    return L


def _unpack(v, K, slots):
    """The signed coefficients in the low slots of one of _packed_log's."""
    return [(v >> K * u & (1 << K) - 1) - (1 << K - 1) for u in range(slots)]


def _low_product(a, b, R):
    """The Q**0..Q**R terms of a b, integer series listed low first, from
    one product at 2**K: each |c_u| <= (R + 1) max|a| max|b| < 2**(K-1) for
    K = bit_length(max|a|) + bit_length(max|b|) + bit_length(R + 1) + 1, so
    with 2**(K-1) added per slot the low R + 1 slots hold them exactly; the
    terms past Q**R add multiples of 2**(K (R + 1)), which _unpack skips."""
    a, b = a[:R + 1], b[:R + 1]
    K = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
         + (R + 1).bit_length() + 1)
    bias = ((1 << K * (R + 1)) - 1) // ((1 << K) - 1) << K - 1
    return _unpack(_pack(a, K) * _pack(b, K) + bias, K, R + 1)


def series_log(series):
    """Logarithm of a powersum-basis series S with constant term exactly 1:
    sum_m (-1)**(m+1) (S - 1)**m / m."""
    return _power_series(series, "series_log", 1, lambda m: m if m % 2 else -m)


def series_exp(series):
    """Exponential of a powersum-basis series L with zero constant term:
    sum_m L**m / m!."""
    return _power_series(series, "series_exp", 0, factorial)


def _switch_basis(series, src, dst, table):
    """Change both slots of a series from the basis src to dst.

    table(n)[(new, old)] is the weight-n transition coefficient, so the
    coefficient at (kappa, lambda) on the new side is the sum over old keys
    (mu, nu) of the matching weights of the two coefficients times the old
    value.
    """
    if series.basis != src:
        raise ValueError("series is not in the %s basis" % src)
    blocks = {}
    for (mu, nu), val in series.coeffs.items():
        blocks.setdefault((sum(mu), sum(nu)), {})[(mu, nu)] = val
    out = PairSeries(dst, series.max_weight)
    for (a, b), blk in blocks.items():
        ta, tb = table(a), table(b)
        for kap in partitions_of(a):
            for lam in partitions_of(b):
                tot = 0
                for (mu, nu), val in blk.items():
                    tot += ta[(kap, mu)] * tb[(lam, nu)] * val
                if tot != 0:
                    out.coeffs[(kap, lam)] = tot
    return out


def p_to_schur(series):
    """Change both slots from the powersum to the Schur basis.

    The coefficients are the characters, with no centralizer division in
    this direction.
    """
    return _switch_basis(series, POWERSUM, SCHUR, character_table)
