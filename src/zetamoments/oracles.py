"""Oracle routes no request imports, and the selftest battery that runs them
(cmd_selftest, which cli.main imports for that command alone): the d-table's
oracle d_table_symbolic, and schur_to_p; schur_eval and bump_gamburd_residual
for the split-alphabet lemma; prime_zeta_direct (with mobius_int), the
prime-zeta families'; the integer Euler-Maclaurin kernel (_em_fixed,
_log_zeta_em) with its Bernoulli table, the log zeta table's Borwein rows'
(_check_log_zeta_routes), which also serves zeta_taylor at any real point
(_em_mpf off the integers), bernoulli and the zeta constants only tests
read: zeta_derivative, stieltjes_gamma and stieltjes_cumulant."""

import itertools
import math
from fractions import Fraction
from itertools import combinations
from operator import add

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec, log_int_fixed

from ._golden import golden_entries
from .characters import character_table
from .frobenius_schur import dim_complement_poly, dim_fs
from .moments import (
    V_poly, W_coeff, _b_series, _gauss_square_poly, _head_logs, _prime_cutoff,
    _ratio_numerators, _truncation, _v_chunk, _v_series, _w_engine, a_factor,
    c_coeff, d_table, f_table, moment_polynomial)
from .partitions import (
    ZERO_MARKER, _check_index, _det, centralizer_order, check_partition,
    dim_complement, dim_hook, dim_paths, dim_skew_det, partitions_of,
    sort_merge)
from .symseries import (
    EMPTY_KEY, POWERSUM, SCHUR, PairSeries, _exp_log, _exp_log_fixed, _plan,
    _switch_basis, p_to_schur, series_exp, series_log)
from .zeta_numerics import (
    _crossover, _dirichlet_sums, _log_series, _log_zeta_table, head_power_sums,
    int_log, prime_zeta_beyond, prime_zeta_taylor, primes_upto)


class WPoly:
    """Polynomial with rational coefficients in formal per-key symbols.

    terms maps each monomial, a sorted tuple of (mu, nu) keys read as a
    multiset, to its coefficient.  The symbolic d-table uses these to keep
    the exact dependence of every Schur coefficient on the W values visible
    instead of substituting numbers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(sorted(mono))] = Fraction(c)

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def symbol(cls, mu, nu):
        return cls({((tuple(mu), tuple(nu)),): 1})

    def substitute(self, values):
        tot = 0
        for mono, c in self.terms.items():
            prod = c
            for key in mono:
                prod = prod * values[key]
            tot = prod + tot
        return tot

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, WPoly):
            return self.terms == other.terms
        if not self.terms:
            return other == 0
        only = self.terms.get(())
        return len(self.terms) == 1 and only is not None and only == other

    def __add__(self, other):
        if not isinstance(other, WPoly):
            other = WPoly.constant(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        ret = WPoly()
        ret.terms = out
        return ret

    __radd__ = __add__

    def __neg__(self):
        ret = WPoly()
        ret.terms = {m: -c for m, c in self.terms.items()}
        return ret

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, WPoly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(sorted(m1 + m2))
                    s = out.get(mono, 0) + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            ret = WPoly()
            ret.terms = out
            return ret
        if not other:
            return WPoly()
        ret = WPoly()
        ret.terms = {m: c * other for m, c in self.terms.items()}
        return ret

    __rmul__ = __mul__

    def __repr__(self):
        return "WPoly(%r)" % (self.terms,)


def d_table_symbolic(n_max):
    """Schur-basis coefficients as explicit polynomials in the W symbols.

    Runs the same exponential and basis change as d_table but with one
    formal symbol per nonempty key, so each entry comes back as a WPoly with
    rational coefficients.  The overall factor exp of the empty-key W is not
    polynomial and stays outside: numeric d equals that factor times the
    substituted entry.  Kept to small weights, where the expansion is
    readable; the numeric pipeline covers the rest.
    """
    _check_index(n_max, "n_max")
    if n_max > 3:
        raise ValueError("symbolic mode is limited to n_max <= 3")
    sym = {
        key: WPoly.symbol(*key)
        for key in _plan(n_max).keys[1:]
    }
    sser = p_to_schur(series_exp(PairSeries(POWERSUM, n_max, sym)))
    out = {}
    for kap, lam in _plan(n_max).keys:
        got = sser.get(kap, lam)
        out[(kap, lam)] = got if isinstance(got, WPoly) else WPoly.constant(got)
    return out


def schur_eval(lam, points):
    """Schur polynomial s_lam at a finite alphabet, by the ratio of alternants.

    Coincident points make the denominator vanish and are rejected; an alphabet
    shorter than the number of rows gives 0.
    """
    lam = check_partition(lam)
    points = tuple(points)
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            if points[i] == points[j]:
                raise ValueError("alphabet points must be pairwise distinct")
    if len(lam) > n:
        return 0
    if n == 0:
        return 1
    lamv = tuple(lam) + (0,) * (n - len(lam))
    num = _det([[x ** (lamv[j] + n - 1 - j) for j in range(n)] for x in points])
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            den *= points[i] - points[j]
    return num / den


def schur_to_p(series):
    """Inverse transition; divides by both centralizer orders."""
    return _switch_basis(series, SCHUR, POWERSUM, lambda n: {
        (mu, kap): Fraction(v, centralizer_order(mu))
        for (kap, mu), v in character_table(n).items()
    })


def bump_gamburd_residual(kap, lam, points):
    """Residual of the split-alphabet identity for one pair and one alphabet.

    The left side merges the two indices into a single Schur value on the full
    alphabet (zero when the merge collides); the right side sums over balanced
    splits of the alphabet, dividing by the full cross-difference product.
    Expects an even alphabet with both indices at most half its size; returns
    the absolute difference at the current working precision.
    """
    kap = check_partition(kap)
    lam = check_partition(lam)
    points = tuple(points)
    if len(points) % 2:
        raise ValueError("alphabet must have even size")
    k = len(points) // 2
    if len(kap) > k or len(lam) > k:
        raise ValueError("indices must have at most half the alphabet in rows")
    res = sort_merge(kap, lam, k, k)
    if res is ZERO_MARKER:
        lhs = mp.mpf(0)
    else:
        mu, omega = res
        lhs = omega * schur_eval(mu, points)
    rhs = mp.mpf(0)
    idx = range(2 * k)
    for chosen in combinations(idx, k):
        inA = set(chosen)
        A = tuple(points[i] for i in chosen)
        B = tuple(points[i] for i in idx if i not in inA)
        den = 1
        for a in A:
            for b in B:
                den *= a - b
        rhs += schur_eval(kap, A) * schur_eval(lam, B) / den
    return abs(lhs - rhs)


def _round_out(values, digits):
    with mp.workdps(digits + 5):
        return tuple(+v for v in values)


def mobius_int(m):
    """Moebius function of a positive integer, by trial division."""
    _check_index(m, "Moebius argument", 1)
    mu = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def prime_zeta_direct(r, nmax, digits=30, prime_cutoff=10000):
    """Independent evaluation of the r >= 2 family for cross-checking.

    Sums the sieved primes up to the cutoff outright, then closes with
    Moebius inversion of log zeta restricted to the remaining primes, taking
    zeta derivatives from mpmath itself.  With prime_zeta_taylor it shares
    only the prime sieve (tested against trial division).
    """
    _check_index(r, "direct route order r", 2)
    _check_index(nmax, "nmax")
    _check_index(digits, "digits", 1)
    X = int(prime_cutoff)
    if X < 10:
        raise ValueError("prime cutoff too small to be useful")
    ps = primes_upto(X)
    with mp.workdps(digits + 15):
        thresh = mp.mpf(10) ** (-(digits + 10))
        tiny = mp.mpf(10) ** (-(digits + 14))
        out = [mp.mpf(0)] * (nmax + 1)
        for p in ps:
            Lp = -mp.log(p)
            t = mp.mpf(p) ** (-r)
            out[0] += t
            for n in range(1, nmax + 1):
                t = t * Lp / n
                out[n] += t
        m = 1
        while True:
            x0 = m * r
            bound = 4 * mp.mpf(m) ** nmax * mp.mpf(X) ** (1 - x0)
            if bound < thresh:
                break
            mu = mobius_int(m)
            if mu:
                lz = [
                    mpmath.zeta(mp.mpf(x0), derivative=a) / mp.factorial(a)
                    for a in range(nmax + 1)
                ]
                z0 = lz[0]
                s = [mp.mpf(1)] + [v / z0 for v in lz[1:]]
                lo = _series_log_list(s)
                lo[0] = mp.log(z0)
                for p in ps:
                    lp = mp.log(p)
                    t = mp.mpf(p) ** (-x0)
                    if t < tiny:
                        break
                    j = 1
                    pj = t
                    while pj / j > tiny:
                        base = pj / j
                        lo[0] -= base
                        v = base
                        for a in range(1, nmax + 1):
                            v = v * (-j * lp) / a
                            lo[a] -= v
                        j += 1
                        pj *= t
                scale = mp.mpf(1)
                for n in range(nmax + 1):
                    out[n] += Fraction(mu, m) * scale * lo[n]
                    scale *= m
            m += 1
    return _round_out(out, digits)


def _em_head_length(x, nmax, digits):
    """Euler-Maclaurin head length M for zeta_taylor at real x > 1.

    Correction i adds B_2i/(2i)! * M**(1-x-2i) * sum_u E_u * P_i[a-u] to
    coefficient a, where E_u = (-log M)**u/u! and P_i is the u-polynomial
    (x+u)(x+1+u)...(x+2i-2+u).  Bounding |E_u| by (1+log M)**nmax and the
    coefficients of P_i by P_i at u = 1:
      correction 1 <= (x+1)/12 * M**(-x-1) * (1+log M)**nmax <= B,
          B = (x+nmax+2) * M**(-x-1) * (1+log M)**nmax,
      correction 2 <= (x+1)(x+2)(x+3)/720 * M**(-x-3) * (1+log M)**nmax
                   <= B * ((x+3)/M)**2 / 720.
    For t**-x the derivatives alternate in sign, so the remainder after a
    correction is below the next one (for a >= 1 the tests check against
    mpmath).  The head is the smallest M >= 3 that puts B times max(1,
    ((x+3)/M)**2/720) two digits below the stop threshold 10**-(digits+10)
    * max(1, |zeta(x)|): the loop then stops after correction 1, with the
    remainder under 10**-(digits+12).  Large x needs few terms (x = 460 at
    131 digits takes M = 3); M is capped at max(20, digits).
    """
    cap = max(20, digits)
    goal = -(digits + 12) * math.log(10)
    lead, l720 = math.log(x + nmax + 2), math.log(720)
    for M in range(3, cap):
        lm = math.log(M)
        first = lead - (x + 1) * lm + nmax * math.log1p(lm)
        if first + max(0.0, 2 * math.log((x + 3) / M) - l720) < goal:
            return M
    return cap


_bernoulli_ratios = [None]  # B_2i / (2i)! at i >= 1, see _bernoulli_ratio


def _bernoulli_ratio(i):
    """B_2i / (2i)! as an exact fraction, i >= 1.

    Read from one table, rebuilt at least twice its old size (or to i, or
    40) when i passes its end.  The tangent numbers T_1..T_n come from
    Brent and Harvey's integer recurrence ("Fast computation of Bernoulli,
    tangent and secant numbers", 2011), and B_2k = (-1)**(k-1) * 2k * T_k /
    (4**k * (4**k - 1)), so B_2k/(2k)! = (-1)**(k-1) * T_k / (4**k * (4**k
    - 1) * (2k-1)!).
    """
    global _bernoulli_ratios
    if i >= len(_bernoulli_ratios):
        n = max(i, 2 * len(_bernoulli_ratios) - 2, 40)
        T = [0, 1] + [0] * (n - 1)
        for k in range(2, n + 1):
            T[k] = (k - 1) * T[k - 1]
        for k in range(2, n + 1):
            for j in range(k, n + 1):
                T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
        out, fact = [None], 1
        for k in range(1, n + 1):
            fact *= max(1, 2 * k - 2) * (2 * k - 1)
            q = 4 ** k
            out.append(Fraction(T[k] if k % 2 else -T[k], q * (q - 1) * fact))
        _bernoulli_ratios = out
    return _bernoulli_ratios[i]


def _em_fixed(ys, nmax, M, digits):
    """Euler-Maclaurin sums for zeta^(a)(y)/a!, a <= nmax, at each integer y
    >= 2 of the range ys (step 1), and for a < nmax of zeta(1+u) - 1/u at
    the pole y = 1, in one pass sharing M, B and the Bernoulli ratios; each
    y has its own stop test and divergence check.  Returns (rows, B), rows[i]
    ys[i]'s coefficients in units of 2**-B.

    With l = log M, c = y - 1 and e_u = l**u/u! (E_u = (-1)**u * e_u),
    coefficient a is (-1)**a times
      head_a = sum_{j<M} j**-y * (log j)**a / a!        (_dirichlet_sums),
      main_a = sum_u e_u * c**u / (c**(a+1) * M**c)   (from M**(1-s)/(s-1)),
      half_a = e_a / (2 * M**y)                         (from M**-s / 2),
    (at the pole main_a = -e_{a+1}) plus the corrections F_i = q_i *
    M**(1-y-2i) * E * P_i, q_i = B_2i/(2i)!, P_i = (y+u)(y+1+u)...(y+2i-2+u):
    F_1 = floor(E * (y+u) / (12 M**(y+1))), F_{i+1} = floor(F_i * Q_i * R_i
    / 2**S), Q_i = (y+2i-1+u)(y+2i+u), R_i = floor(2**S * q_{i+1} / (q_i
    M**2)), one integer per step for every y.  They stop at the first i
    whose largest term mag_i is below thresh = 10**-(digits+10) * max(1,
    |coefficient 0|), and raise RuntimeError once they grow after i = 3 or
    reach i = I = 4M (the terms are smallest near 2i = 2*pi*M).  A step is
    one list per coefficient over the ys still live, each y's arithmetic
    that of a pass over it alone.

    Error in units, with 2 + l < 2**g, g = bit_length(int(l) + 3), K =
    bit_length(4M): the head is off by under 2**(K + nmax*g + 2); e_0 = 2**B
    and e_u = floor(e_{u-1} * L / 2**B / u), L = int_log(M, B), by d_u <=
    d_{u-1}*l/u + 2*(1+l)**(u-1) + 2 < 4*(2+l)**u <= D = 2**(2 + nmax*g), so
    main_a and half_a by (nmax+2) D.  With T_i = |q_i| P_i(1) M**(1-y-2i),
    |F_i[a]| <= 2**B T_i (1+l)**a and |F_i[0]| >= 2**B T_i / (2i).  F_1 is
    off by under 1 + D T_1; a step scales the error by T_{i+1}/T_i (times
    under 1 + 2**-B) and adds under 2, its floor and R_i's (|F_i * Q_i|
    2**-S <= (top+8M+1)**2 mag_i 2**-S < 1), so F_i is off by eps_i < (D +
    2i) G, G >= T_i/T_j for j <= i.  While eps_i <= thresh/4 <= mag_j/4 (j
    before the stop), mag_i <= mag_j for 3 <= j <= i gives T_i/T_j <= 4i
    (1+l)**nmax; T_2/T_1 = (y+2)(y+3)/(60 M**2) and T_3/T_2 = (y+4)(y+5)/(42
    M**2) are at most X = max(1, (top+5)**2/(42 M**2)) <= 2**x.  So G = 4I
    2**(nmax*g) X**2, and the corrections are off by under 2**(5 + 2*nmax*g
    + 3K + 2x).  Each part is under 2**(s-2), s = 2*nmax*g + 3K + 2x + 7, so
    B = p0 + s + 10, p0 = max(prec, (digits+10) log2 10), puts the sum within
    2**-(prec+10) of the truncated sum and thresh >= 2**(s+10) above 4
    eps_i.  At nmax = 0 no log is taken.
    """
    top, K, g = ys[-1], (4 * M).bit_length(), (int(math.log(M)) + 3).bit_length()
    x = max(0, math.ceil(math.log2((top + 5) ** 2 / (42 * M * M))))
    s = 2 * nmax * g + 3 * K + 2 * x + 7
    B = max(mp.prec, math.ceil((digits + 10) * math.log2(10))) + s + 10
    one, S = 1 << B, B + s + 2 * (top + 8 * M + 1).bit_length()
    heads = _dirichlet_sums(
        [(j, one, int_log(j, B) if nmax else 0) for j in range(1, M)], ys, nmax, B)
    e, L = [one], int_log(M, B) if nmax else 0
    for u in range(1, nmax + 1):
        e.append(((e[-1] * L) >> B) // u)
    E = [-v if u % 2 else v for u, v in enumerate(e)]
    rows, F, thresh = [], [], []
    for y, head in zip(ys, heads):
        c, A, Mc = y - 1, nmax + (y > 1), M ** (y - 1)  # the pole holds a < nmax
        out = []
        for a in range(A):
            main = -e[a + 1] if not c else (
                sum(e[u] * c ** u for u in range(a + 1)) // (c ** (a + 1) * Mc))
            t = head[a] + main + e[a] // (2 * Mc * M)
            out.append(-t if a % 2 else t)
        thresh.append(max(one, abs(out[0]) if A else 0) // 10 ** (digits + 10))
        # the pole's slot nmax stays 0: it is no coefficient, and a slot
        # never feeds the ones below it
        F.append([(y * v + lo) // (12 * Mc * M * M)
                  for v, lo in zip(E[:A], [0] + E)] + [0] * (y == 1))
        rows.append(out + [0] * (y == 1))
    live, prev = list(range(len(ys))), [0] * len(ys)
    F, out = [list(col) for col in zip(*F)], [list(col) for col in zip(*rows)]
    for i in itertools.count(1):
        out = [list(map(add, o, f)) for o, f in zip(out, F)]
        keep = []
        for pos, j, col in zip(itertools.count(), live, zip(*F)):
            mag = max(map(abs, col))
            if mag < thresh[j]:
                rows[j] = [o[pos] for o in out][: nmax + (ys[j] > 1)]
                continue
            if i > 3 and (mag > prev[j] or i >= 4 * M):
                raise RuntimeError("Euler-Maclaurin tail diverged before "
                                   "reaching %d digits" % digits)
            prev[j] = mag
            keep.append(pos)
        if not keep:
            return rows, B
        if len(keep) < len(live):
            live = [live[p] for p in keep]
            F, out = ([[v[p] for p in keep] for v in cols] for cols in (F, out))
        rho = _bernoulli_ratio(i + 1) / _bernoulli_ratio(i)
        Ri = (rho.numerator << S) // (rho.denominator * M * M)
        c0 = [(ys[j] + 2 * i - 1) * (ys[j] + 2 * i) for j in live]
        c1 = [2 * (ys[j] + 2 * i) - 1 for j in live]
        zero = [0] * len(live)
        F = [[(a0 * f + a1 * f1 + f2) * Ri >> S
              for a0, a1, f, f1, f2 in zip(c0, c1, F[a], F[a - 1] if a else zero,
                                           F[a - 2] if a > 1 else zero)]
             for a in range(nmax + 1)]
        if ys[live[0]] == 1:
            F[nmax][0] = 0


def _log_zeta_em(ys, nmax, b):
    """Coefficients of log zeta(y + u) in u at each integer y >= 2 of the
    range ys, and of the regular log(u * zeta(1 + u)) at the pole y = 1, as
    tuples of integers in units of 2**-b, each within 2**(2*nmax + 6) units:
    the series log (zeta_numerics._log_series) of one Euler-Maclaurin pass
    (_em_fixed), the route _check_log_zeta_routes holds the table's Borwein
    rows to.  At b bits and d = ceil(b*log10 2) - 9 digits the kernel is
    within 2**-(b+10) of the truncated sum, whose last correction, under
    10**-(d+10) * max(1, zeta(y)), bounds the remainder by 2*10**-(d+10) <=
    2**-b / 5.  Shifted to b bits, each coefficient is off by under 2 units.
    """
    d = math.ceil(b * math.log10(2)) - 9
    with mp.workprec(b):
        rows, B = _em_fixed(ys, nmax, _em_head_length(ys[0], nmax, d), d)
    return _log_series(ys, [[x >> (B - b) for x in ints] for ints in rows], nmax, b)


def bernoulli(n):
    """Exact Bernoulli number; the n = 1 value is -1/2."""
    _check_index(n, "Bernoulli index")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 or not n:
        return Fraction(int(not n))
    return _bernoulli_ratio(n // 2) * math.factorial(n)


def _series_log_list(s):
    """log of a scalar power series with s[0] = 1, same truncation order."""
    n = len(s) - 1
    out = [mp.mpf(0)] * (n + 1)
    for w in range(1, n + 1):
        acc = s[w]
        for j in range(1, w):
            acc -= Fraction(j, w) * out[j] * s[w - j]
        out[w] = acc
    return out


def _em_mpf(x, nmax, M, digits):
    """The same Euler-Maclaurin sum in mpf arithmetic, for any real x > 1."""
    out = [mp.mpf(0)] * (nmax + 1)
    for j in range(1, M):
        t = mp.mpf(j) ** (-x)
        Lj = -mp.log(j)
        out[0] += t
        for a in range(1, nmax + 1):
            t = t * Lj / a
            out[a] += t
    L = mp.log(M) if nmax else 0
    E = [mp.mpf(1)]
    for u in range(1, nmax + 1):
        E.append(E[-1] * (-L) / u)
    Mpow = mp.mpf(M) ** (1 - x)
    C = [(-1) ** v / (x - 1) ** (v + 1) for v in range(nmax + 1)]
    for a in range(nmax + 1):
        out[a] += Mpow * (sum(E[u] * C[a - u] for u in range(a + 1)) + E[a] / (2 * M))
    thresh = mp.mpf(10) ** (-(digits + 10)) * max(1, abs(out[0]))
    E = [x * p + lo for p, lo in zip(E, [0] + E)]
    i = 1
    prev_mag = mp.inf
    mfac = Mpow / (M * M)
    while True:
        q = _bernoulli_ratio(i)
        coef = mp.mpf(q.numerator) / q.denominator * mfac
        terms = [coef * v for v in E]
        out = list(map(add, out, terms))
        mag = max(map(abs, terms))
        if mag < thresh:
            break
        if mag > prev_mag and i > 3:
            raise RuntimeError(
                "Euler-Maclaurin tail diverged before reaching %d digits" % digits
            )
        prev_mag = mag
        i += 1
        for shift in (x + 2 * i - 3, x + 2 * i - 2):
            E = [shift * p + lo for p, lo in zip(E, [0] + E)]
        mfac /= M * M
    return out


def zeta_taylor(x0, nmax, digits=50):
    """Taylor coefficients of zeta around x0: zeta^(a)(x0)/a! for a <= nmax.

    Euler-Maclaurin with the head length sized to the argument and the digit
    request (see _em_head_length); only x0 > 1.001 is supported, so the
    pole distance cannot eat the whole working precision silently.  The
    Bernoulli corrections run until the largest term of a step drops below
    10**-(digits+10) * max(1, |zeta(x0)|), and raise RuntimeError if they
    grow again first.  An integer x0 takes the B-bit integer kernel
    (_em_fixed), within 2**-(prec+10) of the truncated sum and with no log
    at nmax = 0; any other real x0 (oracles.zeta_derivative at 1 + s) sums it
    in mpf arithmetic.
    """
    _check_index(nmax, "nmax")
    _check_index(digits, "digits", 1)
    xf = float(mp.mpf(1) * x0)
    if not xf > 1 + 1e-3:
        raise ValueError("zeta_taylor needs x0 > 1.001, got %r" % (x0,))
    M = _em_head_length(xf, nmax, digits)
    extra = int((nmax + 1) * max(0.0, -math.log10(xf - 1))) + 15
    with mp.workdps(digits + extra):
        x = mp.mpf(1) * x0
        if mp.isint(x):
            (ints,), B = _em_fixed(range(int(x), int(x) + 1), nmax, M, digits)
            out = [mp.ldexp(mp.mpf(v), -B) for v in ints]
        else:
            out = _em_mpf(x, nmax, M, digits)
    return _round_out(out, digits)


def zeta_derivative(a, x, digits=50):
    """a-th derivative of zeta at real x > 1.001."""
    _check_index(a, "derivative order")
    coeffs = zeta_taylor(x, a, digits)
    with mp.workdps(digits + 5):
        return +(coeffs[a] * mp.factorial(a))


def stieltjes_gamma(n, digits=50):
    """n-th Stieltjes constant gamma_n = (-1)**n * n! * R_n, R_n coefficient n
    of zeta(1+u) - 1/u from the integer kernel at the pole (_em_fixed at 1).
    At d = digits + 5 + len(str(n!)) digits R_n is within 10**-(d+3) (the
    kernel's 2**-(prec+10) and dropped remainder), so gamma_n is within
    10**-(digits+8)."""
    _check_index(n, "Stieltjes index")
    _check_index(digits, "digits", 1)
    f = math.factorial(n)
    d = digits + 5 + len(str(f))
    with mp.workdps(d):
        (ints,), B = _em_fixed(range(1, 2), n + 1, _em_head_length(1, n, d), d)
    with mp.workdps(digits + 5):
        return mp.ldexp(mp.mpf((-1) ** n * f * ints[n]), -B)


def stieltjes_cumulant(n, digits=50):
    """Cumulant-style recombination of the Stieltjes constants.

    Coefficient n of the logarithm of s*zeta(1+s), rescaled by n! and an
    alternating sign; the n = 0 value is exactly 0.  It is read from
    _log_zeta_em at y = 1, whose b carries its 2**(2n+6) units through n!.
    """
    _check_index(n, "cumulant index")
    _check_index(digits, "digits", 1)
    f = math.factorial(n)
    b = dps_to_prec(digits + 5) + 2 * n + 10 + f.bit_length()
    with mp.workdps(digits + 5):
        (lz,) = _log_zeta_em(range(1, 2), n, b)
        return mp.ldexp(mp.mpf((-1) ** (n + 1) * f * lz[n]), -b)


def _check_golden_tables():
    ft = f_table(6)
    for size in range(1, 7):
        for (ka, la), want in golden_entries(size):
            if ft.entries.get((ka, la), 0) != want:
                raise AssertionError("entry %r %r" % (ka, la))


def _check_characters():
    for n in range(7):
        table = character_table(n)
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                dot = sum(
                    table[(lam, nu)] * table[(mu, nu)]
                    * Fraction(1, centralizer_order(nu))
                    for nu in parts
                )
                if dot != (1 if lam == mu else 0):
                    raise AssertionError("rows %r %r" % (lam, mu))
        for lam in parts:
            if table[(lam, (1,) * n)] != dim_hook(lam):
                raise AssertionError("dimension of %r" % (lam,))


def _check_dim_triple():
    for b in range(7):
        for nu in partitions_of(b):
            for a in range(min(b, 3) + 1):
                for mu in partitions_of(a):
                    got = dim_paths(mu, nu)
                    if dim_skew_det(mu, nu) != got:
                        raise AssertionError("det route at %r %r" % (mu, nu))
                    if dim_fs(mu, nu) != got:
                        raise AssertionError("poly route at %r %r" % (mu, nu))


def _check_exp_log_closure():
    ft = f_table(3)
    back = series_exp(PairSeries(POWERSUM, 6, dict(ft.entries)))
    for a in range(1, 4):
        for ka in partitions_of(a):
            for la in partitions_of(a):
                want = Fraction(1, centralizer_order(ka) * centralizer_order(la))
                if back.get(ka, la) != want:
                    raise AssertionError("pair %r %r" % (ka, la))


def _check_v_identities():
    for r in range(1, 7):
        for mu in [(), (1,), (2,), (1, 1)]:
            for nu in [(), (1,), (2, 1)]:
                if V_poly(r, mu, nu) != V_poly(r, nu, mu):
                    raise AssertionError("asymmetry at r=%d" % r)
    for k in (2, 3):
        for r in range(1, 7):
            if V_poly(r, (), ())(k) != _b_series(k, 6)[r]:
                raise AssertionError("local log mismatch k=%d r=%d" % (k, r))
        # the engine's tail route against the f-table contraction
        tail = _v_series(k, 4, 6)[0]
        for r in range(1, 7):
            for mu, nu in _plan(4).keys:
                if V_poly(r, mu, nu)(k) != tail[r].get((mu, nu), 0):
                    raise AssertionError(
                        "tail route at k=%d r=%d %r %r" % (k, r, mu, nu)
                    )


def _check_dimpoly_identity():
    for kap, lam in [((), ()), ((1,), ()), ((1,), (1,)), ((2,), (1, 1))]:
        poly = dim_complement_poly(kap, lam)
        for k in range(2, 6):
            lhs = dim_complement(kap, lam, k) * math.perm(k * k, poly.depth)
            if lhs != poly.B(k) * dim_hook((k,) * k):
                raise AssertionError("identity at %r %r k=%d" % (kap, lam, k))


def _check_euler_product():
    with mp.workdps(30):
        want = 6 / mp.pi**2
        got = a_factor(2, digits=20)
        if abs(got - want) > mp.mpf("1e-19"):
            raise AssertionError("second moment arithmetic factor off")


def _check_first_moment():
    got = c_coeff(1, 1, digits=20)
    with mp.workdps(30):
        if abs(got.value - 2 * mp.euler) > mp.mpf("1e-18"):
            raise AssertionError("twice Euler gamma not reproduced")


def _check_split_alphabet():
    with mp.workdps(40):
        for seed in range(5):
            points = [mp.mpf(1) / (3 * i + seed + 2) for i in range(4)]
            for kap in [(), (1,), (2,)]:
                for lam in [(), (1,)]:
                    res = bump_gamburd_residual(kap, lam, points)
                    if res > mp.mpf("1e-25"):
                        raise AssertionError(
                            "residual %s at %r %r" % (res, kap, lam)
                        )


def _check_constant_tables():
    # the log table past mpmath's 2,000-entry log cache, and the Bernoulli
    # table through two rebuilds, against mpmath's own routines
    for B in (53, 300):
        for j in range(1, 4000, 3):
            if abs(int_log(j, B) - log_int_fixed(j, B)) > 2:
                raise AssertionError("log %d at %d bits" % (j, B))
    for n in range(121):
        if bernoulli(n) != Fraction(*map(int, mp.bernfrac(n))):
            raise AssertionError("Bernoulli number %d" % n)


def _check_fixed_exp_log(seed=0):
    # both directions against the Fraction recurrence on a seeded symmetric
    # dyadic series, each weight's summed error under the docstring's bound
    plan, wmax, B = _plan(6), 6, 80
    at = [range(plan.starts[w], plan.starts[w + 1]) for w in range(wmax + 1)]
    x = [Fraction((min(i, t) * 7919 + seed * 104729) % 2**21 - 2**20,
                  2 ** (18 + (min(i, t) + seed) % 6)) for i, t in enumerate(plan.twin)]
    g = [sum(abs(x[i]) for i in at[w]) for w in range(wmax + 1)]
    for log in (False, True):
        x[0] = int(log)
        want = _exp_log(PairSeries(POWERSUM, wmax, dict(zip(plan.keys, x))), log)
        got, E = _exp_log_fixed(plan, [int(v * 2**B) for v in x], B, log), [0]
        for w in range(1, wmax + 1):
            E.append(len(at[w]) + sum(Fraction(j, w) * (
                E[j] * g[w - j] if log else g[j] * E[w - j]) for j in range(1, w)))
            if sum(abs(got[i] - want.get(*plan.keys[i]) * 2**B) for i in at[w]) >= E[w]:
                raise AssertionError("%s at weight %d" % ("log" if log else "exp", w))


def _check_log_zeta_routes():
    # the log zeta table's Borwein rows, y = 1..y_eta, against the
    # Euler-Maclaurin kernel's, within the sum of the two kernels' bounds,
    # 2**(2*nmax + 6) units each: c0's table (0, 75), lead5's (4, 37), the
    # widest order (9, 60) and a short one (2, 15)
    for nmax, digits in ((0, 75), (4, 37), (9, 60), (2, 15)):
        rows, _, b = _log_zeta_table(nmax, digits)
        ys = range(1, min(_crossover(nmax, b)[0], len(rows) - 1) + 1)
        for y, want in zip(ys, _log_zeta_em(ys, nmax, b)):
            if any(abs(u - v) >= 2 ** (2 * nmax + 7) for u, v in zip(rows[y], want)):
                raise AssertionError("log zeta routes differ at y=%d, nmax=%d, "
                                     "%d digits" % (y, nmax, digits))


def _check_prime_zeta_routes():
    # log zeta(m*r) takes Borwein's series up to x = 29..42 (the table's
    # y_eta) and the Euler product past it, so every row reads both; r = 2
    # at 80 digits runs the longest Moebius sum and Borwein series, and r =
    # 3 at nmax = 9 the m**(n-1) amplification of the integer Moebius pass
    for r, nmax, digits, tol in (
        (2, 4, 25, "1e-20"),
        (3, 4, 25, "1e-20"),
        (4, 4, 25, "1e-20"),
        (9, 4, 25, "1e-20"),
        (2, 0, 80, "1e-75"),
        (3, 9, 40, "1e-35"),
        (12, 4, 40, "1e-35"),
        (30, 4, 40, "1e-35"),
    ):
        a = prime_zeta_taylor(r, nmax, digits)
        b = prime_zeta_direct(r, nmax, digits)
        with mp.workdps(digits + 10):
            for n in range(nmax + 1):
                if abs(a.coeffs[n] - b[n]) > mp.mpf(tol):
                    raise AssertionError(
                        "routes differ at r=%d n=%d, %d digits" % (r, n, digits)
                    )


def _check_head_power_sums(pcut=3200, nmax=4, digits=30):
    # one table for r = 2..18 at the absolute digits that carry `digits`
    # relative ones to r = 18, within its stated 10**-(digits+13) of the
    # power sums; the oracle is an mpf loop, 30 digits up
    primes = primes_upto(pcut)
    d = digits + int(18 * math.log10(pcut / 2.0)) + 8
    B, rows = head_power_sums(primes, 2, 18, nmax, d)
    with mp.workdps(d + 30):
        for r, row in enumerate(rows, 2):
            want = [mp.mpf(0)] * (nmax + 1)
            for p in primes:
                lp, t = mp.log(p), mp.mpf(p) ** -r
                want[0] += t
                for n in range(1, nmax + 1):
                    t = t * lp / n
                    want[n] += t
            for n in range(nmax + 1):
                if abs(mp.ldexp(row[n], -B) - want[n]) > mp.mpf(10) ** -(d + 13):
                    raise AssertionError("r=%d n=%d" % (r, n))


def _head_log_oracle(k, wmax, p):
    """One head prime's part of every key's W by the mpf pair-series log at
    the working precision, the route moments._head_logs replaced: the log
    of 1 + X with each X_{mu nu}(1/p) scaled by (-log p)**n / nd, less the
    leading 1/p part of the keys whose partitions have at most one part."""
    A = 0
    for c in _gauss_square_poly(k):
        A = A * p + c
    lp = -mp.log(p)
    numer = _ratio_numerators(k, wmax)
    keys = _plan(wmax).keys
    x = {EMPTY_KEY: 1}
    for m, nu in keys[1:]:
        n, N, nd = numer[(m, nu) if m <= nu else (nu, m)]
        t = 0
        for c in N:
            t = t * p + c
        x[(m, nu)] = mp.mpf(t) / (p ** (k - 1) * A * (p - 1) ** n * nd) * lp**n
    out = series_log(PairSeries(POWERSUM, wmax, x)).coeffs
    out[EMPTY_KEY] = (
        mp.log(mp.mpf(A * p**k) / (p - 1) ** (2 * k - 1)) - mp.mpf(k * k) / p
    )
    for m, nu in keys[1:]:
        if len(m) <= 1 and len(nu) <= 1:
            n1 = mp.mpf(k ** (2 - len(m) - len(nu))) / (
                math.factorial(sum(m)) * math.factorial(sum(nu))
            )
            out[(m, nu)] = out.get((m, nu), 0) - n1 * lp ** (sum(m) + sum(nu)) / p
    return out


def _check_head_log(k=3, wmax=4, digits=15):
    # one prime at a time, so each key's bound is 2**-(prec+10); p = 2 and
    # 3 have the largest ratios, the last head prime the largest log powers
    primes = primes_upto(_prime_cutoff(k, digits, 10.0**-digits))
    for p in (2, 3, primes[-1]):
        with mp.workdps(digits + 15):
            got = _head_logs(k, wmax, [p])
            tol = mp.ldexp(1, -(mp.prec + 10))
        with mp.workdps(digits + 30):
            want = _head_log_oracle(k, wmax, p)
            for key, v in got.items():
                if abs(v - want.get(key, 0)) > tol:
                    raise AssertionError("p=%d at %r" % (p, key))


def _check_w_tail(k=2, wmax=4, digits=10):
    # the mpf sum the integer tail replaced, at digits + 20 over the engine's
    # r_max_used: head + V_1 P(1) + sum_r V_r P_beyond(r) at its chunk's digits
    got, _, meta = _w_engine(k, wmax, digits, 10.0**-digits)
    with mp.workdps(digits + 20):
        # the engine's tables: _truncation's R, then 4 orders at a time
        pcut, R = _truncation(k, wmax, digits, 10.0**-digits)
        primes = primes_upto(pcut)
        want = _head_logs(k, wmax, primes)
        v_tab, _, fam_digits, *_ = _v_chunk(k, wmax, 1, R, digits, primes)
        for r in range(1, meta["r_max_used"] + 1):
            if r > R:
                R += 4
                v_tab, _, fam_digits, *_ = _v_chunk(k, wmax, r, R, digits, primes)
            fam = (prime_zeta_beyond(r, wmax, primes, fam_digits) if r > 1
                   else prime_zeta_taylor(1, wmax, fam_digits).coeffs)
            for (m, nu), fv in v_tab[r].items():
                want[(m, nu)] += (mp.mpf(fv.numerator) / fv.denominator
                                  * fam[sum(m) + sum(nu)])
        for key, v in want.items():
            if abs(got[key] - v) > mp.mpf(10) ** -(digits + 8) * (1 + abs(v)):
                raise AssertionError("W differs at %r" % (key,))


def _check_w_symmetry():
    a = W_coeff((1,), (2,), 2, digits=12)
    b = W_coeff((2,), (1,), 2, digits=12)
    if abs(a.value - b.value) > a.error + b.error:
        raise AssertionError("W symmetry broken")
    dt = d_table(2, 3, digits=12)
    for (kap, lam), got in dt.items():
        other = dt[(lam, kap)]
        if abs(got.value - other.value) > got.error + other.error:
            raise AssertionError("d symmetry broken at %r %r" % (kap, lam))


def _check_assembly_routes(k=3, digits=15):
    # the Schur route the engine replaced: the d-table's entries against the
    # complement dimensions; each c_N within the oracle's error, its own at
    # most 8 ulps above (rounded up; the bars are equal reals at N = 0, 1)
    poly = moment_polynomial(k, digits)
    dt = d_table(k, k * k, digits)
    with mp.workdps(digits + 10):
        slack = 1 + mp.ldexp(1, 3 - mp.prec)
        for N, value, err in poly.coefficients:
            want = bar = 0
            for (kap, lam), dv in dt.items():
                if sum(kap) + sum(lam) == N:
                    dm = dim_complement(kap, lam, k)
                    want, bar = want + dv.value * dm, bar + dv.error * dm
            fct = mp.factorial(k * k - N)
            if abs(value - want / fct) > bar / fct or err > bar / fct * slack:
                raise AssertionError("c_%d off the Schur route" % N)


FAST_CHECKS = [
    ("coupling table reference grids, sizes 1..6", "exact", _check_golden_tables),
    ("character orthogonality and dimensions, n <= 6", "exact", _check_characters),
    ("skew dimension triple agreement, weight <= 6", "exact", _check_dim_triple),
    ("exp then log closure, weight <= 6", "exact", _check_exp_log_closure),
    ("V symmetry and scalar identity, r <= 6", "exact", _check_v_identities),
    ("dimension polynomial identity, k = 2..5", "exact", _check_dimpoly_identity),
    ("integer log and Bernoulli tables vs mpmath", "oracle",
     _check_constant_tables),
    ("fixed-point exp and log vs Fraction, weight <= 6", "exact",
     _check_fixed_exp_log),
]

FULL_CHECKS = [
    ("arithmetic factor at k=2 vs closed form", "oracle", _check_euler_product),
    ("first moment linear term vs Euler gamma", "oracle", _check_first_moment),
    ("split alphabet residuals, weight <= 3", "oracle", _check_split_alphabet),
    (
        "prime zeta two-route agreement, r = 2..4, 9, 12, 30, r = 2 at 80"
        " digits and r = 3 at nmax 9",
        "identity",
        _check_prime_zeta_routes,
    ),
    (
        "log zeta table's Borwein rows vs Euler-Maclaurin, (nmax, digits) ="
        " (0, 75), (4, 37), (9, 60), (2, 15)",
        "oracle",
        _check_log_zeta_routes,
    ),
    ("W and d symmetry at k=2", "identity", _check_w_symmetry),
    (
        "head-prime integer log vs mpf series_log, k = 3, weight 4",
        "oracle",
        _check_head_log,
    ),
    ("W tail integer sum vs mpf re-summation, k = 2, weight 4", "oracle",
     _check_w_tail),
    ("c_N power-sum route vs Schur d_table route, k = 3, 15 digits", "oracle",
     _check_assembly_routes),
    (
        "head-prime power sums vs mpf loop, r = 2..18 below 3200, nmax 4",
        "oracle",
        _check_head_power_sums,
    ),
]


def cmd_selftest(level="fast"):
    """Run the check battery; returns (report text, failure count)."""
    if level not in ("fast", "full"):
        raise ValueError("level must be fast or full")
    checks = list(FAST_CHECKS)
    if level == "full":
        checks += FULL_CHECKS
    lines = []
    failures = 0
    for label, kind, fn in checks:
        try:
            fn()
        except Exception as exc:
            failures += 1
            lines.append("FAIL [%-8s] %s: %s" % (kind, label, exc))
        else:
            lines.append("PASS [%-8s] %s" % (kind, label))
    lines.append(
        "%d/%d checks passed (%s level)"
        % (len(checks) - failures, len(checks), level)
    )
    return "\n".join(lines) + "\n", failures
