"""Oracle routes no request imports, and the selftest battery that runs them
(cmd_selftest, which cli.main imports for that command alone): V's,
V_poly (with f_table, monomial_eval and multinomial); the d-table's
oracle d_table_symbolic, and schur_to_p; schur_eval and bump_gamburd_residual
for the split-alphabet lemma; prime_zeta_direct (with mobius_int), the
prime-zeta families'; and one zeta route, zeta_taylor, the mpf
Euler-Maclaurin sum (_em_mpf) at any real point, whose log (_log_zeta_mpf,
with mpmath's Stieltjes constants at the pole) is the log zeta table's
reference (_check_log_zeta_routes, with _small_prime_logs), sharing none
of the table's kernels."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from operator import add
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import log_int_fixed

from ._golden import golden_entries
from .characters import character_table
from .frobenius_schur import dim_complement_poly, dim_fs
from .moments import (
    W_coeff, _b_series, _gauss_square_poly, _head_logs, _head_polys,
    _prime_cutoff, _ratio_numerators, _truncation, _v_chunk, _v_series,
    _w_engine, a_factor, c_coeff, d_table, moment_polynomial)
from .partitions import (
    ZERO_MARKER, _check_index, _det, centralizer_order, check_partition,
    dim_complement, dim_hook, dim_paths, dim_skew_det, partitions_of,
    sort_merge)
from .symseries import (
    EMPTY_KEY, POWERSUM, SCHUR, KPoly, PairSeries, _exp_fixed, _log_l1,
    _packed_log, _plan, _switch_basis, _unpack, p_to_schur, pair_keys,
    series_exp, series_log)
from .zeta_numerics import (
    SMALL_PRIMES, _log_zeta_table, head_power_sums, int_log, prime_zeta_beyond,
    prime_zeta_taylor, primes_upto)


def multinomial(n, parts):
    """n! / prod(parts!), requiring the parts to sum to n."""
    parts = tuple(parts)
    if any((not isinstance(x, int)) or x < 0 for x in parts):
        raise ValueError("multinomial parts must be nonnegative integers")
    if sum(parts) != n:
        raise ValueError("multinomial parts sum to %d, expected %d" % (sum(parts), n))
    out = factorial(n)
    for x in parts:
        out //= factorial(x)
    return out


@lru_cache(maxsize=None)
def monomial_eval(mu, xs):
    """Monomial symmetric polynomial m_mu at the points xs (exact).

    Recursion on the last variable: its exponent is either zero or consumes
    one distinct part value of mu.
    """
    if not mu:
        return 1
    if not xs:
        return 0
    head, last = xs[:-1], xs[-1]
    total = monomial_eval(mu, head)
    seen = set()
    for i, r in enumerate(mu):
        if r in seen:
            continue
        seen.add(r)
        rest = mu[:i] + mu[i + 1 :]
        total += last ** r * monomial_eval(rest, head)
    return total


class FTable(NamedTuple):
    """Exact rational log-series table over equal-weight partition pairs."""

    max_weight: int
    entries: dict


_f_store = {"built": None}


def _f_entries(n_max):
    built = _f_store["built"]
    if built is None or built.max_weight < n_max:
        coeffs = {EMPTY_KEY: 1}
        for a in range(1, n_max + 1):
            for ka in partitions_of(a):
                za = centralizer_order(ka)
                for la in partitions_of(a):
                    coeffs[(ka, la)] = Fraction(1, za * centralizer_order(la))
        series = PairSeries(POWERSUM, 2 * n_max, coeffs)
        built = FTable(n_max, dict(series_log(series).coeffs))
        _f_store["built"] = built
    return built.entries


def f_table(n_max):
    """Exact coupling table: log coefficients of the diagonal pair series.

    The series sums p_kappa (x) p_lambda over equal-weight pairs, each term
    divided by both centralizer orders; entry (kappa, lambda) of the table is
    the matching coefficient of its formal logarithm.  Entries exist exactly
    for 1 <= |kappa| = |lambda| <= n_max.
    """
    _check_index(n_max, "n_max", 1)
    entries = _f_entries(n_max)
    picked = {key: v for key, v in entries.items() if sum(key[0]) <= n_max}
    return FTable(n_max, picked)


def V_poly(r, mu, nu):
    """The weight-r mixing polynomial in k attached to the key (mu, nu).

    Exact: a multinomial prefactor times the f-table at size r contracted
    against monomial symmetric evaluations at the parts of each size-r
    partition, with k carrying the length difference as its exponent.  The
    degree never exceeds 2r - len(mu) - len(nu).
    """
    _check_index(r, "r", 1)
    mu = check_partition(mu)
    nu = check_partition(nu)
    ft = _f_entries(r)
    scale = multinomial(sum(mu) + sum(nu), mu + nu)
    by_exp = {}
    for ka in partitions_of(r):
        ma = monomial_eval(mu, ka)
        if not ma:
            continue
        for la in partitions_of(r):
            fv = ft.get((ka, la))
            if not fv:
                continue
            mb = monomial_eval(nu, la)
            if not mb:
                continue
            e = len(ka) + len(la) - len(mu) - len(nu)
            by_exp[e] = by_exp.get(e, Fraction(0)) + fv * ma * mb
    if not by_exp:
        return KPoly()
    top = max(by_exp)
    return KPoly([scale * by_exp.get(e, Fraction(0)) for e in range(top + 1)])


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
    sym = {key: WPoly.symbol(*key) for key in pair_keys(n_max)[1:]}
    sser = p_to_schur(series_exp(PairSeries(POWERSUM, n_max, sym)))
    out = {}
    for kap, lam in pair_keys(n_max):
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


def _small_prime_logs(ys, nmax, b):
    """[u**a] sum_{p < 11} log(1 - p**-(y+u)), a <= nmax, at each integer y
    >= 1 of ys in units of 2**-b, each within a unit: mpf series logs at b +
    20 bits, rounded.  log zeta(y + u) plus these is log zeta_11(y + u), what
    the log zeta table holds (at y = 1 with log(u * zeta(1 + u)))."""
    out = []
    with mp.workprec(b + 20):
        for y in ys:
            acc = [mp.mpf(0)] * (nmax + 1)
            for p in SMALL_PRIMES:
                L, q = mp.log(p), mp.mpf(p) ** -y
                f = [1 - q] + [-q * (-L) ** j / mp.factorial(j) for j in range(1, nmax + 1)]
                lz = _series_log_list([v / f[0] for v in f])
                lz[0] = mp.log(f[0])
                acc = list(map(add, acc, lz))
            out.append([int(mp.nint(mp.ldexp(v, b))) for v in acc])
    return out


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
    """Euler-Maclaurin sums for zeta^(a)(x)/a!, a <= nmax, at real x > 1 in
    mpf arithmetic at the working precision: the head sum_{j<M} j**-x (-log
    j)**a / a!, then M**(1-x)/(x-1) + M**-x / 2 expanded in u, then the
    corrections of _em_head_length, B_2i/(2i)! from mp.bernfrac, until the
    largest term of a step drops below 10**-(digits+10) * max(1, |zeta(x)|);
    RuntimeError if they grow again after i = 3.  No log at nmax = 0."""
    out = [mp.mpf(0)] * (nmax + 1)
    for j in range(1, M):
        t = mp.mpf(j) ** (-x)
        Lj = -mp.log(j) if nmax else 0
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
        num, den = mp.bernfrac(2 * i)
        coef = mp.mpf(num) / (den * math.factorial(2 * i)) * mfac
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

    The mpf Euler-Maclaurin sum (_em_mpf) with the head length sized to the
    argument and the digit request (see _em_head_length); only x0 > 1.001
    is supported, so the pole distance cannot eat the whole working
    precision silently.  The Bernoulli corrections run until the largest
    term of a step drops below 10**-(digits+10) * max(1, |zeta(x0)|), and
    raise RuntimeError if they grow again first.
    """
    _check_index(nmax, "nmax")
    _check_index(digits, "digits", 1)
    xf = float(mp.mpf(1) * x0)
    if not xf > 1 + 1e-3:
        raise ValueError("zeta_taylor needs x0 > 1.001, got %r" % (x0,))
    M = _em_head_length(xf, nmax, digits)
    extra = int((nmax + 1) * max(0.0, -math.log10(xf - 1))) + 15
    with mp.workdps(digits + extra):
        out = _em_mpf(mp.mpf(1) * x0, nmax, M, digits)
    return _round_out(out, digits)


@lru_cache(maxsize=None)
def _log_zeta_mpf(ys, nmax, b):
    """Coefficients of log zeta(y + u) in u at each integer y >= 2 of ys,
    and of the regular log(u * zeta(1 + u)) at the pole y = 1, a <= nmax,
    in units of 2**-b, each within a unit: mpf series logs at b + 20 bits
    of zeta_taylor's coefficients at ceil(b log10 2) + 5 digits, at the pole
    of 1 + sum_n (-1)**n gamma_n u**(n+1) / n! from mpmath.stieltjes,
    rounded.  The log zeta table's reference (_check_log_zeta_routes): it
    shares no kernel, integer log or series log with the table, and is
    memoized, as it reads nothing the table's code can change."""
    d, out = math.ceil(b * math.log10(2)) + 5, []
    with mp.workprec(b + 20):
        for y in ys:
            if y == 1:
                lz = _series_log_list([mp.mpf(1)] + [
                    (-1) ** n * mpmath.stieltjes(n) / math.factorial(n)
                    for n in range(nmax)])
            else:
                z = zeta_taylor(y, nmax, d)
                lz = _series_log_list([mp.mpf(1)] + [v / z[0] for v in z[1:]])
                lz[0] = mp.log(z[0])
            out.append(tuple(int(mp.nint(mp.ldexp(v, b))) for v in lz))
    return tuple(out)


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
        # the engine's route from the head's packed log against the f-table
        # contraction
        tail = _v_series(k, 4, 6, _head_polys(k, 4))[0]
        for r in range(1, 7):
            for mu, nu in pair_keys(4):
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
    # the log table past mpmath's 2,000-entry log cache, against mpmath's own
    # routine
    for B in (53, 300):
        for j in range(1, 4000, 3):
            if abs(int_log(j, B) - log_int_fixed(j, B)) > 2:
                raise AssertionError("log %d at %d bits" % (j, B))


def _check_fixed_exp_log(seed=0):
    # on a seeded symmetric dyadic series, the engine's recurrence against
    # the defining power series in Fractions: _exp_fixed, each weight's
    # summed error under its docstring bound, and _packed_log of integers
    # S = n! X, exactly n! times the Fraction log
    plan, wmax, B = _plan(6), 6, 80
    at = [range(plan.starts[w], plan.starts[w + 1]) for w in range(wmax + 1)]
    x = [Fraction((min(i, t) * 7919 + seed * 104729) % 2**21 - 2**20,
                  2 ** (18 + (min(i, t) + seed) % 6)) for i, t in enumerate(plan.twin)]
    g = [sum(abs(x[i]) for i in at[w]) for w in range(wmax + 1)]
    x[0] = 0
    want = series_exp(PairSeries(POWERSUM, wmax, dict(zip(plan.keys, x))))
    got, E = _exp_fixed(plan, [int(v * 2**B) for v in x], B), [0]
    for w in range(1, wmax + 1):
        E.append(len(at[w]) + sum(Fraction(j, w) * g[j] * E[w - j]
                                  for j in range(1, w)))
        if sum(abs(got[i] - want.get(*plan.keys[i]) * 2**B) for i in at[w]) >= E[w]:
            raise AssertionError("exp at weight %d" % w)
    S = [v.numerator for v in x]
    n = [sum(m) + sum(nu) for m, nu in plan.keys]
    want = series_log(PairSeries(POWERSUM, wmax, {EMPTY_KEY: 1, **{
        key: Fraction(s, math.factorial(w)) for key, s, w in zip(plan.keys, S, n)
        if w}}))
    t = [sum(abs(S[i]) for i in at[w]) for w in range(wmax + 1)]
    K = max(_log_l1(t)).bit_length() + 1
    for i, v in enumerate(_packed_log(plan, S, K, 1)[1:], 1):
        if _unpack(v, K, 1) != [want.get(*plan.keys[i]) * math.factorial(n[i])]:
            raise AssertionError("log at %r" % (plan.keys[i],))


def _check_log_zeta_routes():
    # every row of the log zeta_11 table, Borwein's to y_eta and the Euler
    # product's beyond, against the mpf reference's log zeta plus the small
    # primes' factor logs, within the table's 2**(2*nmax + 6) units and the
    # two mpf units: under 2**(2*nmax + 7); c0's table (0, 75), lead5's (4,
    # 37), the widest order (9, 60) and a short one (2, 15)
    for nmax, digits in ((0, 75), (4, 37), (9, 60), (2, 15)):
        rows, _, b = _log_zeta_table(nmax, digits)
        ys = range(1, len(rows))
        for y, want, fac in zip(ys, _log_zeta_mpf(ys, nmax, b),
                                _small_prime_logs(ys, nmax, b)):
            if any(abs(u - v - f) >= 2 ** (2 * nmax + 7)
                   for u, v, f in zip(rows[y], want, fac)):
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


def _power_sums_mpf(primes, r, nmax):
    """[sum over the primes of p**-r (log p)**n / n!, n <= nmax], an mpf
    loop at the working precision: head_power_sums' oracle."""
    out = [mp.mpf(0)] * (nmax + 1)
    for p in primes:
        lp, t = mp.log(p), mp.mpf(p) ** -r
        out[0] += t
        for n in range(1, nmax + 1):
            t = t * lp / n
            out[n] += t
    return out


def _check_head_power_sums(nmax=4):
    # each table within its stated 10**-(d+13) of the power sums, the oracle
    # an mpf loop 30 digits up: r = 2..18 below 3200 at the absolute digits
    # that carry 30 relative ones to r = 18, and r = 2..40 below 1000 at 20,
    # where all but the first few primes' terms reach 0 and the kernel cuts
    # their columns
    for pcut, r1, d in ((3200, 18, 30 + int(18 * math.log10(1600)) + 8),
                        (1000, 40, 20)):
        primes = primes_upto(pcut)
        B, rows = head_power_sums(primes, 2, r1, nmax, d)
        with mp.workdps(d + 30):
            for r, row in enumerate(rows, 2):
                want = _power_sums_mpf(primes, r, nmax)
                for n in range(nmax + 1):
                    if abs(mp.ldexp(row[n], -B) - want[n]) > mp.mpf(10) ** -(d + 13):
                        raise AssertionError("p <= %d, r=%d n=%d" % (pcut, r, n))


def _head_log_oracle(k, wmax, p):
    """One head prime's part of every key's W by the mpf pair-series log at
    the working precision, the route moments._head_logs replaced: the log
    of 1 + X with each X_{mu nu}(1/p) scaled by (-log p)**n / nd, and the
    empty key's log z_0(1/p): the prime's whole local log."""
    A = 0
    for c in _gauss_square_poly(k):
        A = A * p + c
    lp = -mp.log(p)
    numer = _ratio_numerators(k, wmax)
    keys = pair_keys(wmax)
    x = {EMPTY_KEY: 1}
    for m, nu in keys[1:]:
        n, N, nd = numer[(m, nu) if m <= nu else (nu, m)]
        t = 0
        for c in N:
            t = t * p + c
        x[(m, nu)] = mp.mpf(t) / (p ** (k - 1) * A * (p - 1) ** n * nd) * lp**n
    out = series_log(PairSeries(POWERSUM, wmax, x)).coeffs
    out[EMPTY_KEY] = mp.log(mp.mpf(A * p**k) / (p - 1) ** (2 * k - 1))
    return out


def _check_head_log(*points):
    # one prime at a time, so each key's bound is 2**-(prec+10); p = 2 and
    # 3 have the largest ratios, the last head prime the largest log powers;
    # k = 1 has D = p - 1, so every key's log is a polynomial in p over
    # (p - 1)**n alone
    for k, wmax, digits in points or ((3, 4, 15), (1, 1, 15), (1, 2, 15),
                                      (1, 3, 15), (4, 6, 15)):
        primes = primes_upto(_prime_cutoff(k, digits, 10.0**-digits))
        polys = _head_polys(k, wmax)
        for p in (2, 3, primes[-1]):
            with mp.workdps(digits + 15):
                got = _head_logs(k, wmax, [p], polys)
                tol = mp.ldexp(1, -(mp.prec + 10))
            with mp.workdps(digits + 30):
                want = _head_log_oracle(k, wmax, p)
                for key, v in got.items():
                    if abs(v - want.get(key, 0)) > tol:
                        raise AssertionError("k=%d p=%d at %r" % (k, p, key))


def _check_w_tail(k=2, wmax=4, digits=10):
    # the mpf sum the integer tail replaced, at digits + 20 over the engine's
    # r_max_used: head + sum_r V_r P_beyond(r) at its chunk's digits, where
    # P_beyond(1) is the regularized family less the mpf head power sums
    got, _, meta = _w_engine(k, wmax, digits, 10.0**-digits)
    with mp.workdps(digits + 20):
        # the engine's tables: _truncation's R, then 4 orders at a time
        pcut, R = _truncation(k, wmax, digits, 10.0**-digits)
        primes = primes_upto(pcut)
        polys = _head_polys(k, wmax)
        want = _head_logs(k, wmax, primes, polys)
        v_tab, _, fam_digits, *_ = _v_chunk(k, wmax, 1, R, digits, primes, polys)
        for r in range(1, meta["r_max_used"] + 1):
            if r > R:
                R += 4
                v_tab, _, fam_digits, *_ = _v_chunk(k, wmax, r, R, digits, primes,
                                                    polys)
            fam = (prime_zeta_beyond(r, wmax, primes, fam_digits) if r > 1
                   else [c - (-1) ** n * h for n, (c, h) in enumerate(zip(
                       prime_zeta_taylor(1, wmax, fam_digits).coeffs,
                       _power_sums_mpf(primes, 1, wmax)))])
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
    ("integer log table vs mpmath", "oracle", _check_constant_tables),
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
        "log zeta table, every row, vs mpf Euler-Maclaurin and mpmath's"
        " Stieltjes constants, (nmax, digits) = (0, 75), (4, 37), (9, 60),"
        " (2, 15)",
        "oracle",
        _check_log_zeta_routes,
    ),
    ("W and d symmetry at k=2", "identity", _check_w_symmetry),
    (
        "head-prime integer log vs mpf series_log, k = 3 at weight 4, k = 1"
        " at weights 1..3, k = 4 at weight 6",
        "oracle",
        _check_head_log,
    ),
    ("W tail integer sum vs mpf re-summation, k = 2, weight 4", "oracle",
     _check_w_tail),
    ("c_N power-sum route vs Schur d_table route, k = 3, 15 digits", "oracle",
     _check_assembly_routes),
    (
        "head-prime power sums vs mpf loop, nmax 4, r = 2..18 below 3200"
        " and r = 2..40 below 1000, where the column cut fires",
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
