"""High precision constants from the zeta function and the primes.

Everything here returns mpmath floats computed at an elevated internal
precision and rounded to a few digits beyond the request, so callers can do
further arithmetic at their own working precision.  The central objects are
Taylor coefficient families: of zeta itself around a real point, of the
Stieltjes expansion around the pole, and of prime power sums

    sum over primes of p**(-r) * (-log p)**n / n!

for integer r.  The r = 1 family is regularized by removing the logarithmic
singularity before expanding.  Two construction routes are kept deliberately
separate: the default route goes through an in-house Euler-Maclaurin engine
(which at integer arguments sums the whole series, head and Bernoulli tail,
in fixed-point integers with exact Bernoulli fractions) and the Moebius
inversion of log zeta, while prime_zeta_direct sums sieved primes in
plain mpf arithmetic and closes the tail with mpmath's own zeta
derivatives, sharing no zeta code with the default route.  It must stay
that way: prime_zeta_direct is the oracle the default route is checked
against.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import log_int_fixed


def _check_index(value, name, low=0):
    """Reject anything but an int of at least low; booleans are not ints here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(
            "%s must be an integer >= %d, got %r" % (name, low, value)
        )


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


def primes_upto(x):
    """All primes p <= x, ascending (sieve of Eratosthenes)."""
    n = int(x)
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


def bernoulli(n):
    """Exact Bernoulli number; the n = 1 value is -1/2."""
    _check_index(n, "Bernoulli index")
    p, q = mp.bernfrac(n)
    return Fraction(int(p), int(q))


def _round_out(values, digits):
    with mp.workdps(digits + 5):
        return tuple(+v for v in values)


def _poly_mul(a, b, size):
    """Product of two coefficient lists, truncated to its first size terms."""
    out = [mp.mpf(0)] * min(size, len(a) + len(b) - 1)
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
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
    correction is below the next one (for a >= 1 the tests check the
    result against mpmath).  The head is the smallest M >= 3 that
    puts B times max(1, ((x+3)/M)**2/720) two digits below the tail loop's
    stop threshold 10**-(digits+10) * max(1, |zeta(x)|) (compared in units of
    2**-B on the integer route): the loop then stops after correction 1 and
    the dropped remainder stays under 10**-(digits+12).  Large x needs only a
    few terms (x = 460 at 131 digits takes M = 3).  The length is capped at
    max(20, digits), the fixed head that small x needs anyway.
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


@lru_cache(maxsize=None)
def _bernoulli_ratio(i):
    """B_2i / (2i)! as an exact fraction."""
    return bernoulli(2 * i) / math.factorial(2 * i)


def _em_fixed(n, nmax, M, digits):
    """Euler-Maclaurin sum for zeta^(a)(n)/a!, a <= nmax, at an integer n >= 2.

    Everything is an integer in units of 2**-B; only log M and log j are
    not exact rationals.  With l = log M, c = n - 1 and the magnitudes
    e_u = l**u/u! (E_u = (-1)**u * e_u), coefficient a is (-1)**a times
      head_a = sum_{j<M} j**-n * (log j)**a / a!,
      main_a = sum_u e_u * c**u / (c**(a+1) * M**c)   (from M**(1-s)/(s-1)),
      half_a = e_a / (2 * M**n)                         (from M**-s / 2),
    plus correction i, with B_2i/(2i)! = N_i/D_i exactly and
    P_i = (n+u)(n+1+u)...(n+2i-2+u) an integer polynomial in u:
      floor(N_i * sum_u E_u * P_i[a-u] / (D_i * M**(n+2i-1))).
    The corrections stop at the first i whose largest term is below
    10**-(digits+10) * max(1, |coefficient 0|), and raise RuntimeError once
    they grow again after i = 3 or reach i = 4M (the terms are smallest
    near 2i = 2*pi*M, where every supported call has long stopped).

    Error, in units, with g = bit_length(int(l) + 3), so 2 + l < 2**g:
    - head: under 2**(bit_length(M) + nmax*g + 2), as in prime_zeta_beyond
      (t_0 = floor(2**B / j**n), t_a = floor(t_{a-1} * L_j / 2**B / a));
    - e_u: e_0 = 2**B exactly and e_u = floor(e_{u-1} * L / 2**B / u), L
      from log_int_fixed(M, B) (under 2 units off), so the error d_u obeys
      d_u <= d_{u-1}*l/u + 2*(1+l)**(u-1) + 2, hence d_u < 4*(2+l)**u
      <= D = 2**(2 + nmax*g);
    - main_a and half_a: one floor each after dividing by at least M >= 3,
      under (nmax + 2) * D together;
    - correction i: one floor plus D * T_i, T_i = |N_i/D_i| * P_i(1) *
      M**(1-n-2i), which bounds the coefficient sum of P_i.  Since e_0 is
      exact, the a = 0 term is T_i * n/(n+2i-1) to a unit, so T_i is under
      2i times the step's largest term (plus a unit).  T_i < 1 for i <= 3
      (|B_2i|/(2i)! < 4/(2*pi)**2i, n >= 2, M >= 3), so those terms are
      below (1+l)**nmax < 2**(nmax*g); later ones are no larger, or the
      loop has raised.  Over I <= 4M steps the corrections are off by under
      I + 2 * D * 2**(nmax*g) * I*(I+1) < 2**(3 + 2*nmax*g + 2*bit_length(4M)).
    Each part is under 2**(s-2) with s = 2*nmax*g + 2*bit_length(4M) + 5,
    so B = prec + s + 10 keeps the sum within 2**-(prec+10) of the exact
    truncated Euler-Maclaurin sum.  With nmax = 0 no log is taken.
    """
    g = (int(math.log(M)) + 3).bit_length()
    B = mp.prec + 2 * nmax * g + 2 * (4 * M).bit_length() + 15
    one = 1 << B
    head = [one] + [0] * nmax
    for j in range(2, M):
        t = one // j ** n
        head[0] += t
        if nmax:
            L = log_int_fixed(j, B)
            for a in range(1, nmax + 1):
                t = ((t * L) >> B) // a
                head[a] += t
    e = [one]
    if nmax:
        L = log_int_fixed(M, B)
        for u in range(1, nmax + 1):
            e.append(((e[-1] * L) >> B) // u)
    c = n - 1
    Mc = M ** c
    out = []
    for a in range(nmax + 1):
        main = sum(e[u] * c ** u for u in range(a + 1)) // (c ** (a + 1) * Mc)
        v = head[a] + main + e[a] // (2 * Mc * M)
        out.append(-v if a % 2 else v)
    E = [-v if u % 2 else v for u, v in enumerate(e)]
    thresh = max(one, abs(out[0])) // 10 ** (digits + 10)
    poly = ([n, 1] + [0] * nmax)[: nmax + 1]
    den = M ** (n + 1)
    i = 1
    while True:
        q = _bernoulli_ratio(i)
        d = q.denominator * den
        mag = 0
        for a in range(nmax + 1):
            s = sum(E[u] * poly[a - u] for u in range(a + 1))
            term = q.numerator * s // d
            out[a] += term
            mag = max(mag, abs(term))
        if mag < thresh:
            break
        if i > 3 and (mag > prev or i >= 4 * M):
            raise RuntimeError(
                "Euler-Maclaurin tail diverged before reaching %d digits" % digits
            )
        prev = mag
        i += 1
        for shift in (n + 2 * i - 3, n + 2 * i - 2):
            poly = [shift * p + lo for p, lo in zip(poly, [0] + poly)]
        den *= M * M
    return [mp.ldexp(mp.mpf(v), -B) for v in out]


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
    c = x - 1
    E = [mp.mpf(1)]
    for u in range(1, nmax + 1):
        E.append(E[-1] * (-L) / u)
    Mpow = mp.mpf(M) ** (1 - x)
    cpow = 1 / c
    C = []
    for v in range(nmax + 1):
        C.append(cpow)
        cpow = -cpow / c
    for a in range(nmax + 1):
        s = mp.mpf(0)
        for u in range(a + 1):
            s += E[u] * C[a - u]
        out[a] += Mpow * s
    half = Mpow / M / 2
    for a in range(nmax + 1):
        out[a] += half * E[a]
    thresh = mp.mpf(10) ** (-(digits + 10)) * max(1, abs(out[0]))
    poly = [x, mp.mpf(1)]
    i = 1
    prev_mag = mp.inf
    mfac = Mpow / (M * M)
    while True:
        coef = mp.bernoulli(2 * i) / mp.factorial(2 * i) * mfac
        mag = mp.mpf(0)
        for a in range(nmax + 1):
            s = mp.mpf(0)
            for u in range(a + 1):
                if a - u < len(poly):
                    s += E[u] * poly[a - u]
            term = coef * s
            out[a] += term
            mag = max(mag, abs(term))
        if mag < thresh:
            break
        if mag > prev_mag and i > 3:
            raise RuntimeError(
                "Euler-Maclaurin tail diverged before reaching %d digits" % digits
            )
        prev_mag = mag
        i += 1
        poly = _poly_mul(poly, [x + 2 * i - 3, mp.mpf(1)], nmax + 1)
        poly = _poly_mul(poly, [x + 2 * i - 2, mp.mpf(1)], nmax + 1)
        mfac /= M * M
    return out


def zeta_taylor(x0, nmax, digits=50):
    """Taylor coefficients of zeta around x0: zeta^(a)(x0)/a! for a <= nmax.

    Euler-Maclaurin with the head length sized to the argument and the digit
    request (see _em_head_length), so large x0 sums only a few terms; only
    the region strictly right of the pole is supported, with a small buffer
    so the pole distance cannot eat the whole working precision silently.
    The Bernoulli corrections run until the largest term of a step drops
    below 10**-(digits+10) * max(1, |zeta(x0)|), and raise RuntimeError if
    they grow again first.  At an integer x0 (every call the Moebius loops
    make) the whole sum, head and tail, is one computation in B-bit
    integers with exact Bernoulli fractions (_em_fixed), within
    2**-(prec+10) of the exact truncated sum at the working precision, and
    it takes no log at all when nmax = 0.  Any other real x0
    (zeta_derivative at 1 + s, say) sums it in mpf arithmetic.
    """
    _check_index(nmax, "nmax")
    xf = float(mp.mpf(1) * x0)
    if not xf > 1 + 1e-3:
        raise ValueError("zeta_taylor needs x0 > 1.001, got %r" % (x0,))
    M = _em_head_length(xf, nmax, digits)
    extra = int((nmax + 1) * max(0.0, -math.log10(xf - 1))) + 15
    with mp.workdps(digits + extra):
        x = mp.mpf(1) * x0
        if mp.isint(x):
            out = _em_fixed(int(x), nmax, M, digits)
        else:
            out = _em_mpf(x, nmax, M, digits)
    return _round_out(out, digits)


def zeta_derivative(a, x, digits=50):
    """a-th derivative of zeta at real x > 1.001."""
    _check_index(a, "derivative order")
    coeffs = zeta_taylor(x, a, digits)
    with mp.workdps(digits + 5):
        return +(coeffs[a] * mp.factorial(a))


def _derive_log_family(fam):
    """One d/dt step on a combination of (log t)**a * t**-c basis terms."""
    out = {}
    for (a, c), coef in fam.items():
        if a > 0:
            key = (a - 1, c + 1)
            out[key] = out.get(key, Fraction(0)) + a * coef
        key = (a, c + 1)
        out[key] = out.get(key, Fraction(0)) - c * coef
    return out


def stieltjes_gamma(n, digits=50):
    """n-th Stieltjes constant, by Euler-Maclaurin on (log t)**n / t.

    The odd-order derivatives at the cut point are carried as exact rational
    combinations of the log-power basis, so the correction terms cost no
    precision beyond the final evaluation.
    """
    _check_index(n, "Stieltjes index")
    M = max(20, digits)
    wp = digits + 20 + n
    with mp.workdps(wp):
        L = mp.log(M)
        acc = mp.mpf(1) if n == 0 else mp.mpf(0)
        for j in range(2, M):
            acc += mp.log(j) ** n / j
        acc -= L ** (n + 1) / (n + 1)
        acc += L ** n / (2 * M)
        thresh = mp.mpf(10) ** (-(digits + 10))
        fam = {(n, 1): Fraction(1)}
        i = 1
        prev_mag = mp.inf
        while True:
            steps = 1 if i == 1 else 2
            for _ in range(steps):
                fam = _derive_log_family(fam)
            val = mp.mpf(0)
            for (a, c), coef in fam.items():
                val += mp.mpf(coef.numerator) / coef.denominator * L ** a * mp.mpf(M) ** (-c)
            b2i = mp.bernoulli(2 * i) / mp.factorial(2 * i)
            term = b2i * val
            acc -= term
            mag = abs(term)
            if mag < thresh:
                break
            if mag > prev_mag and i > 3:
                raise RuntimeError(
                    "Euler-Maclaurin tail diverged before reaching %d digits" % digits
                )
            prev_mag = mag
            i += 1
    with mp.workdps(digits + 5):
        return +acc


def stieltjes_cumulant(n, digits=50):
    """Cumulant-style recombination of the Stieltjes constants.

    Coefficient n of the logarithm of s*zeta(1+s), rescaled by n! and an
    alternating sign; the n = 0 value is exactly 0.
    """
    _check_index(n, "cumulant index")
    if n == 0:
        return mp.mpf(0)
    with mp.workdps(digits + 15):
        s = [mp.mpf(1)]
        for m in range(1, n + 1):
            g = stieltjes_gamma(m - 1, digits + 8)
            s.append((-1) ** (m - 1) * g / mp.factorial(m - 1))
        lo = _series_log_list(s)
        val = -((-1) ** n) * lo[n] * mp.factorial(n)
    with mp.workdps(digits + 5):
        return +val


def _log_zeta_taylor(x0, nmax, digits):
    """Coefficients of log zeta(x0 + u) in u, through the in-house engine."""
    zt = zeta_taylor(x0, nmax, digits)
    with mp.workdps(digits + 10):
        z0 = zt[0]
        s = [mp.mpf(1)] + [zt[a] / z0 for a in range(1, nmax + 1)]
        lo = _series_log_list(s)
        lo[0] = mp.log(z0)
        return _round_out(lo, digits)


class PrimeZetaCoeffs(NamedTuple):
    """Taylor family of a prime power sum: coeffs[n] pairs with (-log p)**n/n!.

    tail_bounds[n] is an upper estimate on the numerical error of coeffs[n],
    combining the certified truncation of the Moebius sum with the rounding
    floor of the working precision.
    """

    r: int
    coeffs: tuple
    digits: int
    tail_bounds: tuple = ()


_installed_pzeta = {}


def install_prime_zeta(r, entry):
    """Register (or with None, drop) a precomputed coefficient family for r."""
    if entry is None:
        _installed_pzeta.pop(r, None)
    else:
        _installed_pzeta[r] = entry


def prime_zeta_taylor(r, nmax, digits=50):
    """Coefficient family for sum_p p**(-r): index n carries (-log p)**n / n!.

    For r >= 2 this is Moebius inversion of log zeta along the arithmetic
    progression of arguments m*r.  For r = 1 the family is the regularized
    one: the logarithmic blowup is removed before expanding, which shifts the
    n = 0 value to about -0.3157.  An installed cache entry is returned as is
    when it covers the requested order and digits.
    """
    _check_index(r, "prime zeta order", 1)
    _check_index(nmax, "nmax")
    entry = _installed_pzeta.get(r)
    if entry is not None and entry.digits >= digits and len(entry.coeffs) > nmax:
        return entry
    return _compute_prime_zeta(r, nmax, digits)


@lru_cache(maxsize=None)
def _compute_prime_zeta(r, nmax, digits):
    with mp.workdps(digits + 15):
        thresh = mp.mpf(10) ** (-(digits + 10))
        if r == 1:
            gam = [stieltjes_gamma(j, digits + 8) for j in range(nmax)]
            s = [mp.mpf(1)]
            for m in range(1, nmax + 1):
                s.append((-1) ** (m - 1) * gam[m - 1] / mp.factorial(m - 1))
            out = _series_log_list(s)
            m = 2
        else:
            out = [mp.mpf(0)] * (nmax + 1)
            m = 1
        while True:
            bound = 4 * mp.mpf(m) ** nmax * mp.mpf(2) ** (-m * r)
            if bound < thresh:
                break
            mu = mobius_int(m)
            if mu:
                lz = _log_zeta_taylor(m * r, nmax, digits + 5)
                scale = mp.mpf(1)
                for n in range(nmax + 1):
                    out[n] += Fraction(mu, m) * scale * lz[n]
                    scale *= m
            m += 1
        floor = mp.mpf(10) ** (-(digits + 2 if r == 1 else digits + 4))
        tb = _round_out([4 * bound + floor] * (nmax + 1), digits)
    return PrimeZetaCoeffs(r, _round_out(out, digits), digits, tb)


def prime_zeta_beyond(r, nmax, primes, digits=50):
    """The same family with the listed primes' contribution removed.

    The full family and the head are both tiny multiples of what cancels, so
    the subtraction runs at wp = digits + 10 + extra digits, with extra about
    the cancelled ratio r*log10(max(primes)/2) + 8; the returned values are
    good to about `digits` digits relative to their own size.  The head is
    summed in B-bit integers (see below), with an error under 10**-(wp+2)
    absolutely, so it adds nothing to the error of the base family.
    """
    primes = sorted(int(p) for p in primes)
    if primes and primes[-1] >= 2:
        extra = int(r * math.log10(max(primes[-1], 4) / 2.0)) + 8
    else:
        extra = 0
    base = prime_zeta_taylor(r, nmax, digits + extra)
    with mp.workdps(digits + 10 + extra):
        out = list(base.coeffs[: nmax + 1])
        if not primes:
            return _round_out(out, digits)
        # Head terms p**-r * l**n / n!, l = log p, as integers in units of
        # 2**-B: t_0 = floor(2**B / p**r), L = floor(2**B * l) (from a log
        # at B + 20 bits, so off by under 1 + 2**-16) and
        # t_n = floor(t_{n-1} * L / 2**B / n).  t_0 is off by under 1 unit.
        # Each later step scales the error carried in by L/2**B/n < (1+l)/n
        # and adds under 3: its floor, plus L's error times
        # p**-r * l**(n-1)/(n-1)! <= p**(1-r) <= 1.  So term n of one prime
        # is off by under 3 * sum_{j<=n} (1+l)**j/j! <= 3 * (2+l)**n units,
        # below 2**(2 + n*g) with g = bit_length(int(log max p) + 3), and a
        # sum over the primes by under 2**(s - B) units of 1, where
        # s = len.bit_length() + nmax*g + 2.  B = prec + s + 10 makes that
        # 2**-(prec+10) < 10**-(wp+3).
        g = (int(math.log(max(primes[-1], 2))) + 3).bit_length()
        B = mp.prec + len(primes).bit_length() + nmax * g + 12
        logs = []
        if nmax:
            with mp.workprec(B + 20):
                logs = [int(mp.ldexp(mp.log(p), B)) for p in primes]
        sums = [0] * (nmax + 1)
        for i, p in enumerate(primes):
            t = (1 << B) // p ** r
            sums[0] += t
            for n in range(1, nmax + 1):
                t = ((t * logs[i]) >> B) // n
                sums[n] += t
        for n in range(nmax + 1):
            head = mp.ldexp(mp.mpf(sums[n]), -B)
            out[n] += head if n % 2 else -head
    return _round_out(out, digits)


def envelope_bound(r, n, M, digits=15):
    """Certified upper bound on sum over primes p > M of p**-r (log p)**n / n!.

    Integers above M dominate the primes; the stretch where the integrand may
    still rise is summed explicitly and the rest is the exact incomplete
    integral, a finite sum after integrating by parts.
    """
    _check_index(r, "envelope order r", 2)
    _check_index(n, "envelope index n")
    if M < 2:
        raise ValueError("M must be at least 2")
    with mp.workdps(digits + 10):
        mprime = max(int(M), int(math.exp(n / r)) + 1)
        total = mp.mpf(0)
        for j in range(int(M) + 1, mprime + 1):
            total += mp.mpf(j) ** (-r) * mp.log(j) ** n
        L = mp.log(mprime)
        integral = mp.mpf(0)
        for j in range(n + 1):
            integral += (
                mp.factorial(n)
                / mp.factorial(j)
                * L ** j
                / mp.mpf(r - 1) ** (n + 1 - j)
            )
        integral *= mp.mpf(mprime) ** (1 - r)
        return +((total + integral) / mp.factorial(n))


def prime_zeta_direct(r, nmax, digits=30, prime_cutoff=10000):
    """Independent evaluation of the r >= 2 family for cross-checking.

    Sums the sieved primes up to the cutoff outright, then closes with
    Moebius inversion of log zeta restricted to the remaining primes, taking
    zeta derivatives from mpmath itself.  No code is shared with
    prime_zeta_taylor beyond the final rounding.
    """
    _check_index(r, "direct route order r", 2)
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
