"""Integer partitions and skew dimensions.

A partition is a tuple of weakly decreasing positive integers, stored without
trailing zeros.  Padding to a fixed length ("vectorizing") happens at the call
sites that need it and is never part of the stored value.  Three independent
routes to the skew dimension dim(kappa, lambda) live here: exhaustive path
counting in the Young lattice, the hook length formula (for straight shapes),
and a determinant of reciprocal factorials in integers, the engine's route
(dim_complement).
"""

from fractions import Fraction
from functools import lru_cache, wraps
from math import factorial, perm, prod
from typing import NamedTuple


Partition = tuple


class _ZeroMarker:
    """Returned by sort_merge when two merged entries coincide.

    Distinct from an actual coefficient 0 so that callers can tell "the merged
    index exists and contributes 0" apart from "the merged index is this one".
    """

    __slots__ = ()

    def __repr__(self):
        return "ZERO_MARKER"


ZERO_MARKER = _ZeroMarker()


class FrobeniusCoordinates(NamedTuple):
    p: tuple  # arm lengths along the diagonal, strictly decreasing
    q: tuple  # leg lengths, strictly decreasing


def _check_index(value, name, low=0):
    """Reject anything but an int of at least low; booleans are not ints here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(
            "%s must be an integer >= %d, got %r" % (name, low, value)
        )


def _memo(name, kind):
    """lru_cache(typed=True) that refuses an unhashable argument, such as a
    list where a tuple is due, as malformed input: ValueError "<name> must
    be <kind>".  The test runs only once the cache's own lookup has raised,
    so a hit costs the lookup and one call; __wrapped__ is the cache."""

    def wrap(fn):
        cached = lru_cache(maxsize=None, typed=True)(fn)

        @wraps(cached)
        def call(*args):
            try:
                return cached(*args)
            except TypeError:
                for a in args:
                    try:
                        hash(a)
                    except TypeError:
                        raise ValueError("%s must be %s, got %r"
                                         % (name, kind, a)) from None
                raise

        return call

    return wrap


def check_partition(lam):
    """Validate and normalize a partition given as any iterable of parts."""
    try:
        parts = tuple(lam)
    except TypeError:
        raise ValueError("partition must be an iterable of parts, got %r"
                         % (lam,)) from None
    for i, x in enumerate(parts):
        if isinstance(x, bool) or not isinstance(x, int) or x < 1:
            raise ValueError("partition parts must be positive integers: %r" % (parts,))
        if i and parts[i - 1] < x:
            raise ValueError("partition parts must be weakly decreasing: %r" % (parts,))
    return parts


def weight(lam):
    return sum(lam)


@_memo("n", "an integer >= 0")
def partitions_of(n):
    """All partitions of n in reverse lexicographic order."""
    _check_index(n, "n")
    if n == 0:
        return ((),)
    out = []

    def rec(rem, maxp, acc):
        if rem == 0:
            out.append(tuple(acc))
            return
        for q in range(min(rem, maxp), 0, -1):
            acc.append(q)
            rec(rem - q, q, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


@_memo("partition", "a tuple of parts")
def conjugate(lam):
    """Transpose of the diagram."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for q in lam if q > i) for i in range(lam[0]))


def centralizer_order(lam):
    """z_lambda = prod_j j^{M_j} M_j! over part multiplicities M_j."""
    z = 1
    mult = {}
    for q in lam:
        mult[q] = mult.get(q, 0) + 1
    for q, m in mult.items():
        z *= q ** m * factorial(m)
    return z


def contains(lam, kap):
    """Diagram containment kappa subseteq lambda."""
    for i, q in enumerate(kap):
        if i >= len(lam) or lam[i] < q:
            return False
    return True


def frobenius_coords(lam):
    """Diagonal arm/leg coordinates (p | q)."""
    lam = check_partition(lam)
    lt = conjugate(lam)
    d = 0
    while d < len(lam) and lam[d] > d:
        d += 1
    p = tuple(lam[i] - i - 1 for i in range(d))
    q = tuple(lt[i] - i - 1 for i in range(d))
    return FrobeniusCoordinates(p, q)


def shifted_frobenius(lam):
    """Frobenius coordinates shifted by one half; the two sums add up to the weight."""
    fc = frobenius_coords(lam)
    half = Fraction(1, 2)
    x = tuple(a + half for a in fc.p)
    y = tuple(b + half for b in fc.q)
    return x, y


def complement(lam, K, L):
    """The complement of lam inside the K x L rectangle, or None if lam does not fit.

    The conjugate of the result lists the gaps (L - lam_K, ..., L - lam_1) of lam
    vectorized to K rows.  None is a "does not fit" signal, not an error; callers
    decide whether that means a zero contribution or bad input.
    """
    lam = check_partition(lam)
    _check_index(K, "K")
    _check_index(L, "L")
    if len(lam) > K or (lam and lam[0] > L):
        return None
    v = list(lam) + [0] * (K - len(lam))
    gaps = tuple(sorted((L - x for x in v), reverse=True))
    gaps = tuple(x for x in gaps if x > 0)
    return conjugate(gaps)


def sort_merge(kap, lam, K, L):
    """Merge kap + rho_K with lam + rho_L into a single staircase-adjusted index.

    Returns (mu, omega) where omega is the sign of the permutation sorting the
    concatenated entries into decreasing order, or ZERO_MARKER when two entries
    coincide.  Requires len(kap) <= K and len(lam) <= L.
    """
    if len(kap) > K or len(lam) > L:
        raise ValueError("partition does not fit the requested staircase length")
    a = [(kap[i] if i < len(kap) else 0) + (K - 1 - i) for i in range(K)]
    b = [(lam[i] if i < len(lam) else 0) + (L - 1 - i) for i in range(L)]
    entries = a + b
    if len(set(entries)) < len(entries):
        return ZERO_MARKER
    inversions = 0
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if entries[i] < entries[j]:
                inversions += 1
    omega = -1 if inversions % 2 else 1
    merged = sorted(entries, reverse=True)
    n = K + L
    mu = tuple(merged[i] - (n - 1 - i) for i in range(n))
    return tuple(x for x in mu if x > 0), omega


@_memo("partition", "a tuple of parts")
def dim_paths(kap, lam):
    """Number of weight(lam) - weight(kap) step paths from kap to lam in the Young lattice.

    Exhaustive corner-removal recursion with memoization; 0 when kap is not
    contained in lam.
    """
    if not contains(lam, kap):
        return 0
    if sum(lam) == sum(kap):
        return 1
    tot = 0
    ll = list(lam)
    for i in range(len(ll)):
        if ll[i] - 1 >= (ll[i + 1] if i + 1 < len(ll) else 0):
            if ll[i] - 1 >= (kap[i] if i < len(kap) else 0):
                nl = ll[:]
                nl[i] -= 1
                tot += dim_paths(kap, tuple(x for x in nl if x > 0))
    return tot


def dim_hook(lam):
    """Standard tableaux of straight shape lam by the hook length formula."""
    lam = check_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    lt = conjugate(lam)
    H = 1
    for i, li in enumerate(lam):
        for j in range(li):
            H *= li - j + lt[j] - i - 1
    return factorial(n) // H


def _det(rows):
    """Determinant by Bareiss' fraction-free elimination, largest pivot
    first; each division is exact, so integer entries stay integers."""
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    exact = all(isinstance(x, int) for r in m for x in r)
    for c in range(n - 1):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        if not m[piv][c]:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for j in range(c + 1, n):
                t = m[r][j] * m[c][c] - m[r][c] * m[c][j]
                m[r][j] = t // prev if exact else t / prev
        prev = m[c][c]
    return sign * m[-1][-1] if n else 1


def dim_skew_det(kap, lam):
    """Skew dimension by Aitken's determinant of reciprocal factorials.

    (weight(lam) - weight(kap))! * det[ 1/(lam_i - kap_j - i + j)! ] with 1/m! = 0
    for negative m; with A_i = lam_i - i + r and B_j = kap_j - j + r over r
    rows, row i times A_i! is the integer perm(A_i, B_j).  Independent of the
    path-count recursion; the two agree on everything (see the test suite).
    """
    nl = sum(lam)
    nk = sum(kap)
    if nl < nk:
        return 0
    r = max(len(lam), len(kap))
    A = [(lam[i] if i < len(lam) else 0) - i + r for i in range(r)]
    B = [(kap[j] if j < len(kap) else 0) - j + r for j in range(r)]
    det = _det([[perm(a, b) for b in B] for a in A])
    return factorial(nl - nk) * det // prod(map(factorial, A))


def dim_complement(kap, lam, k):
    """dim(lam, complement of kap in the k x k square) by dim_skew_det; 0 when
    kap does not fit or lam outweighs the complement."""
    kap = check_partition(kap)
    lam = check_partition(lam)
    _check_index(k, "k")
    hat = complement(kap, k, k)
    return 0 if hat is None else dim_skew_det(lam, hat)
