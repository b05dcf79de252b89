"""High precision constants from the zeta function and the primes.

Everything here returns mpmath floats computed at an elevated internal
precision and rounded to a few digits beyond the request, so callers can do
further arithmetic at their own working precision.  The central objects are
Taylor coefficient families: of zeta itself around a real point, of the
Stieltjes expansion around the pole, and of prime power sums

    sum over primes of p**(-r) * (-log p)**n / n!

for integer r; the r = 1 family drops the logarithmic singularity.  The
default route is the Moebius inversion of log zeta in one B-bit integer pass
per family (_moebius_fixed), whose log zeta at each argument, cached and
shared by families, comes from one integer kernel (_log_zeta_fixed): an
Euler-Maclaurin sum with exact Bernoulli fractions from the pole x = 1 (where
it also gives the Stieltjes constants) to moderate x, and the Euler product
over the primes beyond; integer logs come from one table (int_log), the
Bernoulli fractions from the tangent numbers.  prime_zeta_direct sums sieved
primes in plain mpf arithmetic and closes the tail with mpmath's own zeta
derivatives; it shares only primes_upto's sieve (tested against trial
division), mobius_int and the final rounding with the default route, and
must stay so: it is the oracle the default route is checked against.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, floordiv, lt, mul, rshift
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_log, to_fixed

from .partitions import _check_index


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


def _prime_flags(n):
    """Sieve of Eratosthenes: a bytearray whose entry j <= n is 1 iff j is
    prime; n >= 1."""
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return sieve


def primes_upto(x):
    """All primes p <= x, ascending (sieve of Eratosthenes)."""
    n = int(x)
    if n < 2:
        return []
    return list(itertools.compress(range(n + 1), _prime_flags(n)))


def bernoulli(n):
    """Exact Bernoulli number; the n = 1 value is -1/2."""
    _check_index(n, "Bernoulli index")
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 or not n:
        return Fraction(int(not n))
    return _bernoulli_ratio(n // 2) * math.factorial(n)


def _round_out(values, digits):
    with mp.workdps(digits + 5):
        return tuple(+v for v in values)


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


# (table, W, Bt): table[j] is 2**W log j less under 2**(W - Bt), j >= 1
_logs = ([0, 0], 0, 0)


def int_log(j, B):
    """floor(2**B * log j) or one less, for integers j >= 1 and 0 <= B, read
    from one table that grows on demand (_grow_logs): within 2 units of
    2**B log j, never above it."""
    tab, W, Bt = _logs
    if j >= len(tab) or B > Bt:
        tab, W, Bt = _grow_logs(j, B)
    return tab[j] >> (W - B)


def _grow_logs(j, B):
    """Extend the log table to cover j and B; returns the new (table, W, Bt).

    The size at least doubles (or reaches j + 1, or 256) and the precision
    Bt rises by at least half (or to B, or 256), so a request that steps
    through many (j, B) builds the table a few times.  In W = Bt + g bit
    integers, log 2 = 2 atanh(1/3) and each prime p >= 3 takes log p =
    log(p - 1) + 2 atanh(1/(2p - 1)); a composite adds two factors' entries.
    2 atanh(1/m) = 2 sum_k m**-(2k+1)/(2k+1) sums floor(2**W / m**(2k+1)),
    each exact to a floor (floor(floor(x)/m) = floor(x/m)), divided by 2k+1:
    under K <= W/(2 log2 3) + 1/2 terms, each under a unit low, and the
    dropped tail under 9/(8(2K+1)) units, so a leaf is under 2(W/3 + 2)
    units low.  Entry j sums N(j) <= 2 log2 j - 1 leaves: N(2) = 1, N(3) =
    2, N(ab) = N(a) + N(b), and a prime p >= 5 has N(p) = 2 + N((p-1)/2) <=
    2 log2 (p-1) - 1; so it is under 4 bit_length(j) (W + 6) / 3 <= 2**g
    units low, a unit of 2**-Bt.  Shifted down to B <= Bt bits it is then
    floor(2**B log j) or one less.
    """
    global _logs
    tab, W, Bt = _logs
    n = max(j + 1, 2 * len(tab) if j >= len(tab) else len(tab), 256)
    if B > Bt:
        Bt = max(B, Bt + Bt // 2, 256)
    nb, g = n.bit_length(), 1
    while 4 * nb * (Bt + g + 6) > 3 << g:
        g += 1
    if Bt + g != W:
        tab, W = [0, 0], Bt + g
    one = 1 << W
    fac = [0] * n
    for p in range(2, math.isqrt(n - 1) + 1):
        if not fac[p]:
            fac[p * p :: p] = [p] * len(range(p * p, n, p))
    for i in range(len(tab), n):
        f = fac[i]
        if f:
            tab.append(tab[f] + tab[i // f])
            continue
        m = 2 * i - 1
        t, s, d, m2 = one // m, 0, 1, m * m
        while t:
            s += t // d
            t //= m2
            d += 2
        tab.append(tab[i - 1] + 2 * s)
    _logs = tab, W, Bt
    return _logs


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


def _em_fixed(n, nmax, M, digits):
    """Euler-Maclaurin sum for zeta^(a)(n)/a!, a <= nmax, at an integer n >= 2;
    at the pole n = 1, the same for the regular part zeta(1+u) - 1/u.

    Everything is an integer in units of 2**-B; only log M and log j are
    not exact rationals.  With l = log M, c = n - 1 and the magnitudes
    e_u = l**u/u! (E_u = (-1)**u * e_u), coefficient a is (-1)**a times
      head_a = sum_{j<M} j**-n * (log j)**a / a!,
      main_a = sum_u e_u * c**u / (c**(a+1) * M**c)   (from M**(1-s)/(s-1)),
      half_a = e_a / (2 * M**n)                         (from M**-s / 2),
    plus correction i, with B_2i/(2i)! = N_i/D_i exactly and
    P_i = (n+u)(n+1+u)...(n+2i-2+u) an integer polynomial in u:
      floor(N_i * (E * P_i)[a] / (D_i * M**(n+2i-1))),
    the truncated product E * P_i carried from step to step.  At n = 1 the
    main term's regular part (M**-u - 1)/u gives main_a = -e_{a+1}.  The
    corrections stop at the first i whose largest term is below
    10**-(digits+10) * max(1, |coefficient 0|), and raise RuntimeError once
    they grow again after i = 3 or reach i = 4M (the terms are smallest
    near 2i = 2*pi*M, where every supported call has long stopped).

    Error, in units, with g = bit_length(int(l) + 3), so 2 + l < 2**g, and
    nu = nmax, or nmax + 1 at n = 1 (the highest e_u used):
    - head: under 2**(bit_length(M) + nmax*g + 2), as in prime_zeta_beyond
      (t_0 = floor(2**B / j**n), t_a = floor(t_{a-1} * L_j / 2**B / a));
    - e_u: e_0 = 2**B exactly and e_u = floor(e_{u-1} * L / 2**B / u), L
      from int_log(M, B) (the log table: under 2 units off, as is each log j
      of the head), so the error d_u obeys d_u <= d_{u-1}*l/u +
      2*(1+l)**(u-1) + 2, hence d_u < 4*(2+l)**u <= D = 2**(2 + nu*g);
    - main_a and half_a: under (nmax + 2) * D together (a floor each);
    - correction i: one floor plus D * T_i, T_i = |N_i/D_i| * P_i(1) *
      M**(1-n-2i), which bounds the coefficient sum of P_i.  Since e_0 is
      exact, the a = 0 term is T_i * n/(n+2i-1) to a unit, so T_i is under
      2i times the step's largest term (plus a unit).  T_i < 1 for i <= 3
      (|B_2i|/(2i)! < 4/(2*pi)**2i, n >= 1, M >= 3), so those terms are
      below (1+l)**nmax < 2**(nu*g); later ones are no larger, or the loop
      has raised.  Over I <= 4M steps the corrections are off by under
      I + 2 * D * 2**(nu*g) * I*(I+1) < 2**(3 + 2*nu*g + 2*bit_length(4M)).
    Each part is under 2**(s-2) with s = 2*nu*g + 2*bit_length(4M) + 5,
    so B = prec + s + 10 keeps the sum within 2**-(prec+10) of the exact
    truncated Euler-Maclaurin sum.  With nmax = 0 and n >= 2 no log is
    taken.  Returns the coefficients as integers in units of 2**-B, with B.
    """
    g = (int(math.log(M)) + 3).bit_length()
    nu = nmax + (n == 1)
    B = mp.prec + 2 * nu * g + 2 * (4 * M).bit_length() + 15
    one = 1 << B
    head = [one] + [0] * nmax
    for j in range(2, M):
        t = one // j ** n
        head[0] += t
        L = int_log(j, B) if nmax else 0
        for a in range(1, nmax + 1):
            t = ((t * L) >> B) // a
            head[a] += t
    e, L = [one], int_log(M, B) if nu else 0
    for u in range(1, nu + 1):
        e.append(((e[-1] * L) >> B) // u)
    c = n - 1
    Mc = M ** c
    out = []
    for a in range(nmax + 1):
        main = -e[a + 1] if not c else (
            sum(e[u] * c ** u for u in range(a + 1)) // (c ** (a + 1) * Mc))
        t = head[a] + main + e[a] // (2 * Mc * M)
        out.append(-t if a % 2 else t)
    E = [-v if u % 2 else v for u, v in enumerate(e[: nmax + 1])]
    thresh = max(one, abs(out[0])) // 10 ** (digits + 10)
    den = M ** (n + 1)
    E = [n * p + lo for p, lo in zip(E, [0] + E)]
    i = 1
    while True:
        q = _bernoulli_ratio(i)
        d = q.denominator * den
        terms = [q.numerator * v // d for v in E]
        out = list(map(add, out, terms))
        mag = max(map(abs, terms))
        if mag < thresh:
            break
        if i > 3 and (mag > prev or i >= 4 * M):
            raise RuntimeError(
                "Euler-Maclaurin tail diverged before reaching %d digits" % digits
            )
        prev = mag
        i += 1
        for shift in (n + 2 * i - 3, n + 2 * i - 2):
            E = [shift * p + lo for p, lo in zip(E, [0] + E)]
        den *= M * M
    return out, B


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
    at nmax = 0; any other real x0 (zeta_derivative at 1 + s, say) sums it
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
            ints, B = _em_fixed(int(x), nmax, M, digits)
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
        ints, B = _em_fixed(1, n, _em_head_length(1, n, d), d)
    with mp.workdps(digits + 5):
        return mp.ldexp(mp.mpf((-1) ** n * f * ints[n]), -B)


def stieltjes_cumulant(n, digits=50):
    """Cumulant-style recombination of the Stieltjes constants.

    Coefficient n of the logarithm of s*zeta(1+s), rescaled by n! and an
    alternating sign; the n = 0 value is exactly 0.  It is read from
    _log_zeta_fixed(1, n, b), whose b carries its 2**(2n+6) units through n!.
    """
    _check_index(n, "cumulant index")
    _check_index(digits, "digits", 1)
    f = math.factorial(n)
    b = dps_to_prec(digits + 5) + 2 * n + 10 + f.bit_length()
    with mp.workdps(digits + 5):
        return mp.ldexp(mp.mpf((-1) ** (n + 1) * f * _log_zeta_fixed(1, n, b)[n]), -b)


@lru_cache(maxsize=None)
def _euler_primes(t):
    """The primes below 2**t, t >= 2, from primes_upto's sieve."""
    return tuple(itertools.compress(range(1 << t), _prime_flags((1 << t) - 1)))


def _euler_bits(x, nmax, b):
    """t if log zeta(x + u) at b bits takes the Euler product over the primes
    below P = 2**t, P**(x-1) >= 2**(b + 4*nmax + 4), else None: that needs
    x > max(nmax, 1), t <= 13 and at most twice as many primes as the longest
    Euler-Maclaurin head, max(20, d) terms at d = ceil(b*log10 2) - 9.  So
    timed at x = 10..79, nmax 0, 4, 9, b = 150..450, it costs 0.1-0.7 of the
    Euler-Maclaurin kernel (0.6-1.2 at 2.4-2.6 times as many primes); M(x)
    for max(20, d) picks alike at x < 500, nmax <= 16, b <= 1200."""
    t = max(2, -(-(b + 4 * nmax + 4) // (x - 1))) if x > max(nmax, 1) else 14
    pi = (0, 1, 2, 4, 6, 11, 18, 31, 54, 97, 172, 309, 564, 1028)  # below 2**t
    cap = max(20, math.ceil(b * math.log10(2)) - 9)
    return t if t <= 13 and pi[t] <= 2 * cap else None


def _log_zeta_euler(x, nmax, b, t):
    """Coefficients of log zeta(x + u) = sum over prime powers q = p**k of
    q**-(x+u) / k, summed over q < P = 2**t, in units of 2**-b.

    Term a of q, q**-x * (-log q)**a / (k * a!), is in units of 2**-B, B = b
    + 4*nmax + t + 6: t_0 = floor(2**B / (k * q**x)), t_a = floor(t_{a-1} *
    k * L / 2**s / a), L = int_log(p, s), the log table's entry, under 2
    units off at s = bit_length(floor(2**B / p**x) * p) + 4.  L's error
    adds under 2**(B+1-s) * q**(1-x) <= 1/4 unit to a step, which floors
    once and scales the error carried in by (1 + log q)/a, so term a is
    off by under 3 * (2 + log q)**a < 2**(2 + 4a) (log q < 9.1), over the
    under 2**t q (those whose t_0 is 0, and every q after them, add only
    zeros) under 2**-(b+4).  For x >
    nmax and P >= 4, y**-x * (log y)**a falls on y >= P, so the integers
    past P add under its value at P plus its integral from P, at most
    2 * P**(1-x) * (1 + log P)**a <= 2**-(b+3).  With the final shift each
    coefficient is within 2 units of 2**-b."""
    B = b + 4 * nmax + t + 6
    one, P = 1 << B, 1 << t
    out = [0] * (nmax + 1)
    for p in _euler_primes(t):
        px = p ** x
        if px > one:
            break
        s = (one // px * p).bit_length() + 4
        L = int_log(p, s) if nmax else 0
        k, q, qx = 1, p, px
        while q < P and k * qx <= one:
            v = one // (k * qx)
            out[0] += v
            for a in range(1, nmax + 1):
                v = ((v * k * L) >> s) // a
                out[a] += -v if a % 2 else v
            k, q, qx = k + 1, q * p, qx * px
    return tuple(v >> (B - b) for v in out)


@lru_cache(maxsize=None)
def _log_zeta_fixed(x0, nmax, b):
    """Coefficients of log zeta(x0 + u) in u at an integer x0 >= 2, and of
    the regular log(u * zeta(1 + u)) at the pole x0 = 1, as a tuple of
    integers in units of 2**-b, each within 2**(2*nmax + 6) units.

    _euler_bits picks the route from (x0, nmax, b) alone: the Euler product
    (_log_zeta_euler), or the Euler-Maclaurin kernel and its series log.
    Write z_a = zeta^(a)(x0)/a!, so 1 < z_0 < 2.  For a >= 1, |z_a| and the
    log coefficients are at most 2, and so is |z_a / z_0|: each is a sum
    over j >= 2 of at most j**-2 * (log j)**a / a!, whose integral over
    t >= 1 is 1 and whose largest term is below 1.  At the pole the series
    is 1 + sum_a R_a u**(a+1), R_a the kernel's coefficients; on |u| = 2,
    |zeta(1+u) - 1/u| < 0.71 and |log(u * zeta(1+u))| < 1.8 (sampled), so
    by Cauchy both kinds are under 1.
    - The kernel runs at working precision b with d = ceil(b*log10 2) - 9
      digits: its integers are within 2**-(b+10) of the truncated sum, whose
      last correction, under 10**-(d+10) * max(1, zeta(x0)), bounds the
      dropped remainder by 2*10**-(d+10) <= 2**-b / 5.  Shifted down to b
      bits (one floor), v_a is off by under 2 units; so is v_0 after it is
      raised to at least 2**b, which only moves it toward 2**b * zeta(x0).
    - s_a = floor(v_a * 2**b / v_0) is off by under 2*(1 + 2) + 1 = 7 units
      (at the pole s_a = v_{a-1}, under 2).
    - lz_0 = log(v_0 * 2**-b) at b + 10 bits is off by under 4 (0 at the pole).
    - lz_w = s_w - floor(sum_{j<w} j * lz_j * s_{w-j} / (w * 2**b)) is off
      by e_w <= 1 + 7*(2w - 1) + 2.01 * sum_{j<w} e_j, with e_1 = 7, so
      e_w <= 56 * 4**w < 2**(2w + 6).
    """
    if t := _euler_bits(x0, nmax, b):
        return _log_zeta_euler(x0, nmax, b, t)
    pole = x0 == 1
    if pole and not nmax:
        return (0,)
    d = math.ceil(b * math.log10(2)) - 9
    with mp.workprec(b):
        ints, B = _em_fixed(x0, nmax - pole, _em_head_length(x0, nmax, d), d)
    one = 1 << b
    v = [x >> (B - b) for x in ints]
    if pole:
        s, lz = [one] + v, [0]
    else:
        v0 = max(v[0], one)
        s = [one] + [(x << b) // v0 for x in v[1:]]
        lz = [to_fixed(mpf_log(from_man_exp(v0, -b), b + 10), b)]
    for w in range(1, nmax + 1):
        acc = sum(j * lz[j] * s[w - j] for j in range(1, w))
        lz.append(s[w] - acc // (w << b))
    return tuple(lz)


def _moebius_fixed(r, nmax, digits, stop):
    """sum over 1 <= m < stop of mu(m)/m * log zeta(m*r + m*u), by
    coefficient of u, as integers in units of 2**-B; returns (sums, B).  At
    r = 1 the m = 1 term is the regular log(u * zeta(1 + u)).

    Coefficient n of the m term is mu(m) * m**(n-1) * lz_n(m*r), so slot 0
    takes floor(mu * lz_0 / m) and slot n >= 1 takes mu * m**(n-1) * lz_n.
    x = m*r works at b(x) = c + (a+2)*bit_length(x) bits, a = max(nmax-1, 0),
    c = T + 2*nmax + 8, 2**-T <= 10**-(digits+12): set by (x, nmax, digits)
    alone, so families share their common (cached) _log_zeta_fixed calls; a
    left shift carries each exactly to B = b(stop*r).  lz_n is within
    2**(2*nmax + 6) units of 2**-b and m**(n-1) <= 2**(a*bit_length(x)), so
    the m term adds under 2**(2*nmax + 6 - c) / x**2 <= 2**(2*nmax + 6 - c)
    / m**2 to a slot, under 2**(2*nmax + 7 - c) over all m, and slot 0's
    floors a unit of 2**-B < 2**-c / stop**2 each, under 2**-c: every slot
    is within 2**-T of the exact sum.
    """
    T = math.ceil((digits + 12) * math.log2(10))
    c = T + 2 * nmax + 8
    a = max(nmax - 1, 0)
    B = c + (a + 2) * (stop * r).bit_length()
    sums = [0] * (nmax + 1)
    for m in range(1, stop):
        mu = mobius_int(m)
        if not mu:
            continue
        b = c + (a + 2) * (m * r).bit_length()
        lz = _log_zeta_fixed(m * r, nmax, b)
        f = mu << (B - b)
        sums[0] += f * lz[0] // m
        for n in range(1, nmax + 1):
            sums[n] += f * lz[n]
            f *= m
    return sums, B


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

    Moebius inversion of log zeta along the arguments m*r, summed in B-bit
    integers (_compute_prime_zeta).  For r = 1 the family is the regularized
    one: the logarithmic blowup is removed before expanding, which shifts the
    n = 0 value to about -0.3157.  An installed cache entry is returned as
    is when it covers the requested order and digits.
    """
    _check_index(r, "prime zeta order", 1)
    _check_index(nmax, "nmax")
    _check_index(digits, "digits", 1)
    entry = _installed_pzeta.get(r)
    if entry is not None and entry.digits >= digits and len(entry.coeffs) > nmax:
        return entry
    return _compute_prime_zeta(r, nmax, digits)


@lru_cache(maxsize=None)
def _compute_prime_zeta(r, nmax, digits):
    """The family by Moebius inversion of log zeta, rounded to digits.

    One integer pass over squarefree m (_moebius_fixed; at r = 1 its m = 1
    term is the regular log(u * zeta(1 + u))), within 10**-(digits+12) of
    the truncated sum, which stops at the first m with 4 * m**nmax *
    2**(-m*r) < 10**-(digits+10), compared exactly in integers.
    """
    with mp.workdps(digits + 15):
        stop, lhs = 1, 4 * 10 ** (digits + 10)
        while lhs * stop ** nmax >= 1 << (stop * r):
            stop += 1
        sums, B = _moebius_fixed(r, nmax, digits, stop)
        out = [mp.ldexp(mp.mpf(v), -B) for v in sums]
        bound = 4 * mp.mpf(stop) ** nmax * mp.mpf(2) ** (-stop * r)
        floor = mp.mpf(10) ** (-(digits + 2 if r == 1 else digits + 4))
        tb = _round_out([4 * bound + floor] * (nmax + 1), digits)
    return PrimeZetaCoeffs(r, _round_out(out, digits), digits, tb)


class HeadPrimes:
    """The primes a beyond-cutoff family leaves out, with their power sums
    for one chunk of `span` consecutive orders r at a time.

    The primes are validated and sorted once: each must be an int (not a
    bool), prime, at most MAX_PRIME (checked before the validating sieve
    runs) and listed once, or ValueError is raised.  sums(r, nmax,
    digits) serves every r of the current chunk, its B set by the absolute
    digits alone; any other r, nmax or digits starts a new chunk at that r.
    Only the chunk's span * (nmax + 1) sums are kept, never an integer per
    prime, so the object stays small however many primes it holds.
    """

    BLOCK = 256  # primes per C-level map pass: short lists keep memory flat
    MAX_PRIME = 2_000_000  # the largest head prime, and prime cutoff, accepted

    def __init__(self, primes, span=16):
        _check_index(span, "chunk span", 1)
        ps = list(primes)
        if not set(map(type, ps)) <= {int}:
            bad = next(p for p in ps if type(p) is not int)
            raise ValueError("head primes must be ints, got %r" % (bad,))
        ps.sort()
        if ps and not 2 <= ps[0] <= ps[-1] <= self.MAX_PRIME:
            raise ValueError("head primes must lie in [2, %d]" % self.MAX_PRIME)
        if not all(map(lt, ps, itertools.islice(ps, 1, None))):
            raise ValueError("head primes must be distinct")
        if ps:
            flags = _prime_flags(ps[-1])
            if not all(map(flags.__getitem__, ps)):
                bad = next(p for p in ps if not flags[p])
                raise ValueError("head prime %d is not a prime" % bad)
        self.primes = ps
        self.span = span
        # the current chunk: its first r, its (nmax, digits), its B and
        # its sums at r0, r0 + 1, ...
        self._r0 = self._key = self._B = self._sums = None

    def sums(self, r, nmax, digits):
        """(sums, B): sums[n] is the head's power sum at r, index n, as an
        integer in units of 2**-B (see prime_zeta_beyond)."""
        if self._key != (nmax, digits) or not 0 <= r - self._r0 < self.span:
            self._B, self._sums = self._pass(r, nmax, digits)
            self._r0, self._key = r, (nmax, digits)
        return self._sums[r - self._r0], self._B

    def _pass(self, r0, nmax, digits):
        """One integer pass per prime over r0 .. r0 + span - 1; (B, sums)."""
        ps = self.primes
        g = (int(math.log(ps[-1])) + 3).bit_length()
        B = dps_to_prec(digits + 10) + len(ps).bit_length() + nmax * g + 12
        one = 1 << B
        sums = [[0] * (nmax + 1) for _ in range(self.span)]
        for i in range(0, len(ps), self.BLOCK):
            block = ps[i : i + self.BLOCK]
            t = [one // p ** r0 for p in block]
            logs = [int_log(p, B) for p in block] if nmax else ()
            for j, row in enumerate(sums):
                if j:
                    t = list(map(floordiv, t, block))
                row[0] += sum(t)
                u = t
                for n in range(1, nmax + 1):
                    u = map(rshift, map(mul, u, logs), itertools.repeat(B))
                    u = list(map(floordiv, u, itertools.repeat(n)))
                    row[n] += sum(u)
        return B, sums


def prime_zeta_beyond(r, nmax, primes, digits=50):
    """The same family with the head primes' contribution removed, each
    value within 10**-(digits+3) of the exact one: digits is an absolute
    accuracy, what a caller adding V_r times the family to O(1) values
    needs (the family is about max(primes)**(1-r)).

    r must be at least 2 (ValueError): the r = 1 family is the regularized
    one, and less the head sums it is no beyond-cutoff sum.  primes is a
    HeadPrimes, or any iterable of primes, which is validated and summed as
    a one-r chunk; a caller stepping through r passes one HeadPrimes to
    every call, so each prime takes one integer pass per chunk of r.  The
    full family, prime_zeta_taylor at digits, is within its tail_bounds,
    under 1.1 * 10**-(digits+4); the head, the subtraction at digits + 10
    and the rounding add under 10**-(digits+5).

    Head terms p**-r * l**n / n!, l = log p, are integers in units of
    2**-B: t_0 = floor(2**B / p**r), under a unit off (a chunk starts at
    floor(2**B / p**r0) and steps r by t_0 //= p, which keeps the floor
    exact: floor(floor(x)/p) = floor(x/p) for an integer p); L =
    int_log(p, B), from the log table, under 2 units off 2**B * l; and t_n =
    floor(t_{n-1} * L / 2**B / n).  Each step n scales the error carried in
    by L/2**B/n < (1+l)/n and adds under 3: its floor, plus L's error,
    under 2, times p**-r * l**(n-1)/(n-1)!/n <= p**(1-r) <= 1.  So term n
    of one prime is off by under 3 * sum_{j<=n} (1+l)**j/j! <= 3 * (2+l)**n
    units, below 2**(2 + n*g) with g = bit_length(int(log max p) + 3), and
    a sum over the primes by under 2**(s - B) units of 1, where s =
    len.bit_length() + nmax*g + 2.  B = prec + s + 10, prec the working
    precision of digits + 10, makes it 2**-(prec+10) < 10**-(digits+13).
    """
    _check_index(r, "beyond-cutoff order r", 2)
    head = primes if isinstance(primes, HeadPrimes) else HeadPrimes(primes, 1)
    base = prime_zeta_taylor(r, nmax, digits)
    with mp.workdps(digits + 10):
        out = list(base.coeffs[: nmax + 1])
        if head.primes:
            sums, B = head.sums(r, nmax, digits)
            for n, v in enumerate(sums):
                out[n] += mp.ldexp(mp.mpf(v if n % 2 else -v), -B)
    return _round_out(out, digits)


def envelope_bound(r, n, M, digits=15):
    """Certified upper bound on sum over primes p > M of p**-r (log p)**n / n!.

    Integers above M dominate the primes; the stretch where the integrand may
    still rise is summed explicitly and the rest is the exact incomplete
    integral, a finite sum after integrating by parts.
    """
    _check_index(r, "envelope order r", 2)
    _check_index(n, "envelope index n")
    _check_index(digits, "digits", 1)
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
