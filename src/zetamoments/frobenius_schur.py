"""Skew and complement dimensions through shifted-coordinate polynomials.

A partition nu is encoded by its modified diagonal coordinates, half-integers
x_i = nu_i - i + 1/2 and y_i = nu'_i - i + 1/2 down the diagonal.  Power sums
in these coordinates (with an alternating sign on the leg side) generate a
family of polynomials, one per partition mu, whose value at the point of nu is
proportional to the skew dimension dim(mu, nu).  The same polynomials accept
symbolic points: the k x k square and the complement of a fixed partition
inside it, with coefficients that are polynomials in k.  That turns the
dimension of a complement shape into an explicit polynomial identity, checked
here by two independent constructions.  The engine takes complement
dimensions from a determinant (partitions); dim_fs is their oracle.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import perm

from .characters import character_value
from .partitions import (
    _memo,
    centralizer_order,
    check_partition,
    complement,
    dim_complement,
    dim_hook,
    frobenius_coords,
    partitions_of,
    shifted_frobenius,
)
from .symseries import KPoly


class SuperPoint(tuple):
    """Concrete evaluation point: a pair of half-integer coordinate tuples."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, (tuple(x), tuple(y)))

    @property
    def x(self):
        return self[0]

    @property
    def y(self):
        return self[1]


def partition_point(nu):
    """The shifted-coordinate point attached to a partition."""
    x, y = shifted_frobenius(check_partition(nu))
    return SuperPoint(x, y)


@lru_cache(maxsize=None)
def _faulhaber_half(r):
    """Sum of (i + 1/2)**r for i below k, as an exact polynomial in k.

    Degree r + 1; recovered by interpolation at r + 2 integer arguments.
    """
    xs = list(range(r + 2))
    ys = []
    acc = Fraction(0)
    for k in xs:
        ys.append(acc)
        acc += (Fraction(2 * k + 1, 2)) ** r
    return _interpolate(xs, ys)


def _interpolate(xs, ys):
    """Exact Lagrange interpolation through (xs[i], ys[i]), as a KPoly."""
    assert len(xs) == len(ys) and len(set(xs)) == len(xs)
    total = KPoly()
    for i, xi in enumerate(xs):
        basis = KPoly.constant(Fraction(1))
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * KPoly((-xj, 1))
            denom *= xi - xj
        total = total + basis * (Fraction(ys[i]) / denom)
    return total


class SquarePoint:
    """Symbolic point of the k x k square; power sums are polynomials in k.

    Both coordinate tuples are (k - 1/2, ..., 1/2), so even power sums cancel
    and odd ones double.
    """

    __slots__ = ()

    def power_sum(self, r):
        if r % 2 == 0:
            return KPoly()
        return 2 * _faulhaber_half(r)

    def __repr__(self):
        return "SquarePoint()"


_SQUARE = SquarePoint()


def square_point():
    return _SQUARE


def _coordinate_diffs(kap, k):
    """Multiset deltas between the square point and the complement point at one k."""
    hat = complement(kap, k, k)
    sq = partition_point((k,) * k)
    pt = partition_point(hat)
    out = []
    for side in (0, 1):
        a = Counter(sq[side])
        b = Counter(pt[side])
        removed = tuple(sorted((a - b).elements()))
        added = tuple(sorted((b - a).elements()))
        out.append((removed, added))
    return tuple(out)


class ComplementPoint:
    """Symbolic point of the complement of a fixed partition in the k x k square.

    For k past a small witness the diagonal coordinates differ from the plain
    square by a fixed finite multiset exchange, so every power sum is the
    square power sum minus a constant.  The exchange is computed at the witness
    and revalidated one step higher; disagreement would mean the witness was
    too small and raises.
    """

    __slots__ = ("kap", "diffs")

    def __init__(self, kap):
        kap = check_partition(kap)
        self.kap = kap
        k0 = max(2, (kap[0] + len(kap) + 1) if kap else 2)
        d0 = _coordinate_diffs(kap, k0)
        d1 = _coordinate_diffs(kap, k0 + 1)
        if d0 != d1:
            raise RuntimeError(
                "coordinate exchange for %r still drifting at k=%d" % (kap, k0 + 1)
            )
        self.diffs = d0

    def power_sum(self, r):
        (rx, ax), (ry, ay) = self.diffs
        corr = sum(a ** r for a in rx) - sum(a ** r for a in ax)
        corr += (-1) ** (r - 1) * (sum(b ** r for b in ry) - sum(b ** r for b in ay))
        return _SQUARE.power_sum(r) - KPoly.constant(Fraction(corr))

    def __eq__(self, other):
        return isinstance(other, ComplementPoint) and self.kap == other.kap

    def __hash__(self):
        return hash(("complement-point", self.kap))

    def __repr__(self):
        return "ComplementPoint(%r)" % (self.kap,)


@_memo("partition", "a tuple of parts")
def complement_point(kap):
    return ComplementPoint(kap)


@lru_cache(maxsize=None)
def super_power_sum(r, point):
    """Power sum in shifted coordinates, legs entering with alternating sign."""
    if not isinstance(r, int) or r < 1:
        raise ValueError("power sum order must be a positive integer")
    if isinstance(point, SuperPoint):
        return sum(a ** r for a in point.x) + (-1) ** (r - 1) * sum(
            b ** r for b in point.y
        )
    return point.power_sum(r)


@lru_cache(maxsize=None)
def e_half_odds(r, m):
    """Elementary symmetric e_r of the first m half-odd integers 1/2, 3/2, ..."""
    if r < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if r > m:
        return Fraction(0)
    e = [Fraction(1)] + [Fraction(0)] * r
    for i in range(m):
        v = Fraction(2 * i + 1, 2)
        for j in range(min(r, i + 1), 0, -1):
            e[j] += v * e[j - 1]
    return e[r]


@lru_cache(maxsize=None)
def _hook_class_data(a, b):
    hook = (a + 1,) + (1,) * b
    n = a + b + 1
    return tuple(
        (rho, Fraction(character_value(hook, rho), centralizer_order(rho)))
        for rho in partitions_of(n)
    )


def _super_schur_hook(a, b, point):
    """One-hook Schur polynomial in the super power sums at the given point."""
    total = 0
    for rho, c in _hook_class_data(a, b):
        term = c
        for r in rho:
            term = term * super_power_sum(r, point)
        total = term + total
    return total


@lru_cache(maxsize=None)
def fs_hook(p, q, point):
    """Single-hook dimension polynomial at arm p, leg q.

    Expressed through the one-hook Schur values by a triangular transition
    whose coefficients are signed elementary symmetrics of half-odd integers,
    the count of points matching the outer index.
    """
    if p < 0 or q < 0:
        raise ValueError("hook coordinates must be nonnegative")
    total = 0
    for pp in range(p + 1):
        cp = (-1) ** (p - pp) * e_half_odds(p - pp, p)
        for qq in range(q + 1):
            cq = (-1) ** (q - qq) * e_half_odds(q - qq, q)
            total = (cp * cq) * _super_schur_hook(pp, qq, point) + total
    return total


def fs_schur(mu, point):
    """Dimension polynomial of mu at a point, as a hook determinant.

    Expands the diagram in Frobenius coordinates and takes the determinant of
    the matrix of single-hook values (Giambelli pattern).  The empty partition
    gives 1.
    """
    mu = check_partition(mu)
    fc = frobenius_coords(mu)
    d = len(fc.p)
    if d == 0:
        return Fraction(1)
    rows = [[fs_hook(fc.p[i], fc.q[j], point) for j in range(d)] for i in range(d)]
    return _laplace_det(rows)


def _laplace_det(rows):
    """First-row cofactor expansion; entries only need ring operations."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _laplace_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def dim_fs(mu, nu):
    """Skew dimension dim(mu, nu) from the dimension polynomial of mu.

    Exact rational identity: dim_hook(nu) * fs_schur(mu, point(nu)) divided by
    the falling factorial of weight(nu) through weight(mu) terms.  Requires
    weight(nu) >= weight(mu); below that the identity does not hold and the
    call is rejected.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    n, m = sum(nu), sum(mu)
    if n < m:
        raise ValueError("dim_fs needs weight(nu) >= weight(mu)")
    val = Fraction(dim_hook(nu)) * fs_schur(mu, partition_point(nu))
    return val / perm(n, m)


class SkewDimPoly(tuple):
    """Polynomial form of a complement dimension, with its pair weight."""

    __slots__ = ()

    def __new__(cls, B, depth):
        return super().__new__(cls, (B, depth))

    @property
    def B(self):
        return self[0]

    @property
    def depth(self):
        return self[1]


def dim_complement_poly(kap, lam):
    """The complement dimension as one polynomial identity in k.

    Returns SkewDimPoly(B, N) with N the combined weight, where for every k
    with the complement defined and k*k >= N,

        dim_complement(kap, lam, k) * falling(k*k, N) = B(k) * dim_hook(square).

    B is built twice: by exact interpolation of the left side at 2N+1
    consecutive valid k, and as the product of the two symbolic dimension
    polynomials (kap at the square point, lam at the complement point).  The
    constructions must agree coefficient for coefficient, and the degree never
    exceeds 2N.
    """
    kap = check_partition(kap)
    lam = check_partition(lam)
    N = sum(kap) + sum(lam)
    k0 = max(2, (kap[0] + len(kap) + 1) if kap else 2)
    while k0 * k0 < N:
        k0 += 1
    xs = list(range(k0, k0 + 2 * N + 1))
    ys = []
    for k in xs:
        g = dim_hook((k,) * k)
        val = Fraction(dim_complement(kap, lam, k) * perm(k * k, N), g)
        ys.append(val)
    B = _interpolate(xs, ys)
    direct = fs_schur(kap, square_point()) * fs_schur(lam, complement_point(kap))
    if not isinstance(direct, KPoly):
        direct = KPoly.constant(direct)
    if B != direct:
        raise RuntimeError(
            "complement dimension polynomial mismatch for %r, %r" % (kap, lam)
        )
    if B.degree > 2 * N:
        raise RuntimeError("degree bound violated for %r, %r" % (kap, lam))
    return SkewDimPoly(B, N)
