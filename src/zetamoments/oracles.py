"""Oracle routes no request imports: d_table_symbolic, the d-table's oracle,
and prime_zeta_direct, the prime-zeta families' (with mobius_int)."""

from fractions import Fraction

import mpmath
from mpmath import mp

from .partitions import _check_index
from .symseries import POWERSUM, PairSeries, _plan, p_to_schur, series_exp
from .zeta_numerics import _round_out, _series_log_list, primes_upto


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
    only primes_upto's sieve (tested against trial division), mobius_int
    and the final rounding.
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
