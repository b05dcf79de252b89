"""High precision constants from the zeta function and the primes.

Everything here returns mpmath floats computed at an elevated internal
precision and rounded to a few digits beyond the request, so callers can do
further arithmetic at their own working precision.  The central objects are
Taylor coefficient families: of zeta itself around a real point, of the
Stieltjes expansion around the pole, and of prime power sums

    sum over primes of p**(-r) * (-log p)**n / n!

for integer r; the r = 1 family drops the logarithmic singularity.  The
default route is the Moebius inversion of log zeta, one b-bit integer sum
per family over one table of log zeta(y + u) per (nmax, digits) that every
family reads (_log_zeta_table): one Euler-Maclaurin pass stepping every y
from the pole y = 1 at once (_em_fixed, which also serves zeta_taylor at
integer points and the Stieltjes constants), no mpf log, one Euler-product
pass beyond, and mu from one sieve.  The W engine reads each family less
the head primes' power sums as integers (prime_zeta_fixed), and
prime_zeta_taylor and prime_zeta_beyond are mpf views of that route.
Integer logs come from one table (int_log), the Bernoulli fractions from
the tangent numbers.  oracles.prime_zeta_direct sums sieved primes in plain
mpf arithmetic and closes the tail with mpmath's own zeta derivatives; it
shares only the prime sieve (tested against trial division) and the final
rounding with the default route, and must stay so: it is the oracle the
default route is checked against.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, floordiv, lt, mul, rshift
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, to_fixed

from .partitions import _check_index


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
    return [2, *itertools.compress(range(3, n + 1, 2), _prime_flags(n)[3::2])]


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
        [(j, 1, int_log(j, B) if nmax else 0) for j in range(1, M)], ys, nmax, B)
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


def _log_zeta_em(ys, nmax, b):
    """Coefficients of log zeta(y + u) in u at each integer y >= 2 of the
    range ys, and of the regular log(u * zeta(1 + u)) at the pole y = 1, as
    tuples of integers in units of 2**-b, each within 2**(2*nmax + 6) units:
    the series log of one Euler-Maclaurin pass (_em_fixed).

    Write z_a = zeta^(a)(y)/a!, so 1 < z_0 < 2.  For a >= 1, |z_a|, |z_a /
    z_0| and the log coefficients are at most 2: each is a sum over j >= 2
    of at most j**-2 * (log j)**a / a!, whose integral over t >= 1 is 1 and
    largest term below 1.  At the pole the series is 1 + sum_a R_a
    u**(a+1); on |u| = 2, |zeta(1+u) - 1/u| < 0.71 and |log(u * zeta(1+u))|
    < 1.8 (sampled), so by Cauchy both kinds are under 1.
    - At b bits and d = ceil(b*log10 2) - 9 digits the kernel is within
      2**-(b+10) of the truncated sum, whose last correction, under
      10**-(d+10) * max(1, zeta(y)), bounds the remainder by 2*10**-(d+10)
      <= 2**-b / 5.  Shifted to b bits, v_a is off by under 2 units; so is
      v_0 raised to at least 2**b, which moves it toward 2**b * zeta(y).
    - s_a = floor(v_a * 2**b / v_0) is off by under 2*(1 + 2) + 1 = 7 units
      (at the pole s_a = v_{a-1}, under 2).
    - lz_0 = log(v_0 2**-b) = 2 atanh(t), t = (v_0 - 2**b)/(v_0 + 2**b) <
      1/4, sums floor(t_k/(2k+1)) at W = b + bit_length(b) + 2 bits, t_k =
      floor(t_{k-1} t2 / 2**W), t2 = floor(t_0**2 / 2**W): under 3W/4 + 5
      units of 2**-W in all, 1.5 at b, and v_0's error adds 2 (no mpf log).
    - lz_w = s_w - floor(sum_{j<w} j * lz_j * s_{w-j} / (w * 2**b)) is off
      by e_w <= 1 + 7*(2w - 1) + 2.01 * sum_{j<w} e_j, with e_1 = 7, so
      e_w <= 56 * 4**w < 2**(2w + 6).
    """
    d = math.ceil(b * math.log10(2)) - 9
    with mp.workprec(b):
        rows, B = _em_fixed(ys, nmax, _em_head_length(ys[0], nmax, d), d)
    one, out, W = 1 << b, [], b + b.bit_length() + 2
    for y, ints in zip(ys, rows):
        v = [x >> (B - b) for x in ints]
        if y == 1:
            s, lz = [one] + v, [0]
        else:
            v0 = max(v[0], one)
            s = [one] + [(x << b) // v0 for x in v[1:]]
            # log z_0 = 2 atanh(t) = 2 sum t**(2k+1)/(2k+1), t < 1/4
            t = ((v0 - one) << W) // (v0 + one)
            t2, acc, k = t * t >> W, 0, 1
            while t:
                acc, t, k = acc + t // k, t * t2 >> W, k + 2
            lz = [acc >> (W - b - 1)]
        for w in range(1, nmax + 1):
            lz.append(s[w] - sum(j * lz[j] * s[w - j] for j in range(1, w)) // (w << b))
        out.append(tuple(lz))
    return out


def _dirichlet_sums(cols, ys, nmax, B):
    """[sum over the columns (q, k, L) of floor(w_a / q**y), a <= nmax] at
    each y of the range ys, in units of 2**-B; q ascends, L is within 2k
    units below 2**B log q.  w_a = floor(w_{a-1} * L / 2**B / a), w_0 =
    floor(2**B / k), is under 3 * (1 + log q)**a below 2**B (log q)**a / (k
    a!), and each y's term, the last floor-divided by q (floor(floor(x)/q) =
    floor(x/q)), under 4 * (1 + log q)**a.  Columns whose terms are all 0
    are cut from the end."""
    qs, terms = [q for q, _, _ in cols], []
    for q, k, L in cols:
        w = [(1 << B) // k]
        for a in range(1, nmax + 1):
            w.append((w[-1] * L >> B) // a)
        terms.append([v // q ** ys[0] for v in w])
    terms, out = [list(col) for col in zip(*terms)], []
    for y in ys:
        if y > ys[0]:
            terms = [list(map(floordiv, col, qs)) for col in terms]
        while qs and not any(col[-1] for col in terms):
            for col in (qs, *terms):
                col.pop()
        out.append([sum(col) for col in terms])
    return out


def _log_zeta_euler(ys, nmax, b, t):
    """Coefficients of log zeta(y + u) = sum over prime powers q = p**k < P
    = 2**t of q**-(y+u) / k at each integer y of the range ys, in units of
    2**-b, each within 2 units; needs y > nmax, P**(y-1) >= 2**(b + 4*nmax
    + 4) and 2 <= t <= 13.  At B = b + 4*nmax + t + 6 bits each q is a
    column (q, k, k * int_log(p, B)) of _dirichlet_sums, off by under 4 * (1
    + log q)**a < 2**(2 + 4a) units, under 2**-(b+4) over the under 2**t q.
    For y > nmax and P >= 4, s**-y (log s)**a falls on s >= P, so the
    integers past P add under its value at P plus its integral from P, 2 *
    P**(1-y) * (1 + log P)**a <= 2**-(b+3).  The final shift floors.
    """
    B, P, cols = b + 4 * nmax + t + 6, 1 << t, []
    for p in itertools.compress(range(P), _prime_flags(P - 1)):
        L = int_log(p, B) if nmax else 0
        k, q = 1, p
        while q < P:
            cols.append((q, k, k * L))
            k, q = k + 1, q * p
    return [tuple((-v if a % 2 else v) >> (B - b) for a, v in enumerate(row))
            for row in _dirichlet_sums(sorted(cols), ys, nmax, B)]


def _crossover(nmax, b):
    """(y_em, t): a table at b bits takes Euler-Maclaurin up to y_em and the
    Euler product over the primes below 2**t beyond; t is the largest with
    at most M (the pole's head length) primes below 2**t, so both start
    with about as many columns, and y_em = max(nmax, ceil((b + 4*nmax + 4)
    / t)).  Timed (median of 11 builds) at (nmax, digits) = (4, 37), (0,
    68), (9, 60), (2, 15): 5.5, 3.2, 24 and 1.8 ms; t one lower or higher
    moves each by under 6 %."""
    M = _em_head_length(1, nmax, math.ceil(b * math.log10(2)) - 9)
    pi = (0, 1, 2, 4, 6, 11, 18, 31, 54, 97, 172, 309, 564, 1028)  # below 2**t
    t = max(t for t in range(2, 14) if pi[t] <= M)
    return max(nmax, -(-(b + 4 * nmax + 4) // t)), t


def _moebius_stop(r, nmax, digits):
    """The first m >= 1 with 4 * m**nmax * 2**(-m*r) < 10**-(digits+10)."""
    stop, lhs = 1, 4 * 10 ** (digits + 10)
    while lhs * stop ** nmax >= 1 << (stop * r):
        stop += 1
    return stop


@lru_cache(maxsize=None)
def _log_zeta_table(nmax, digits):
    """(rows, mu, b) for the families at (nmax, digits): rows[y] holds log
    zeta(y + u) (at y = 1 the regular log(u * zeta(1 + u))) in units of
    2**-b, within 2**(2*nmax + 6), and mu[m] the Moebius function.  A family
    reads y = m*r, m below its stop, so 4 * 10**(digits+10) * y**nmax >=
    2**y, true only below Y = _moebius_stop(1, nmax, digits) (y log 2 -
    nmax log y is convex).  b = c + (a+2) * bit_length(Y - 1), a = max(nmax
    - 1, 0), c = T + 2*nmax + 8, 2**-T <= 10**-(digits+12), meets
    _compute_prime_zeta's bound at its largest y."""
    top = _moebius_stop(1, nmax, digits) - 1
    T = math.ceil((digits + 12) * math.log2(10))
    b = T + 2 * nmax + 8 + (max(nmax - 1, 0) + 2) * top.bit_length()
    y_em, t = _crossover(nmax, b)
    rows = _log_zeta_em(range(1, min(y_em, top) + 1), nmax, b)
    if top > y_em:
        rows += _log_zeta_euler(range(y_em + 1, top + 1), nmax, b, t)
    return (None, *rows), _mobius_sieve(top), b


def _mobius_sieve(n):
    """[0, mu(1), ..., mu(n)], n >= 1, from one sieve of primes."""
    mu = [0] + [1] * n
    for p in itertools.compress(range(n + 1), _prime_flags(n)):
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * len(range(p * p, n + 1, p * p))
    return mu


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


def _installed(r, nmax, digits):
    """The installed entry for r if it covers nmax and digits, else None."""
    entry = _installed_pzeta.get(r)
    if entry is not None and entry.digits >= digits and len(entry.coeffs) > nmax:
        return entry


def prime_zeta_taylor(r, nmax, digits=50):
    """Coefficient family for sum_p p**(-r): index n carries (-log p)**n / n!.

    Moebius inversion of log zeta along the arguments m*r in B-bit integers
    (_compute_prime_zeta), from the one log zeta table per (nmax, digits)
    that every family reads, rounded to digits with its tail bounds.  For
    r = 1 the family is the regularized one: the logarithmic blowup is
    removed before expanding, which shifts the n = 0 value to about
    -0.3157.  An installed cache entry is returned as is when it covers the
    requested order and digits.
    """
    _check_index(r, "prime zeta order", 1)
    _check_index(nmax, "nmax")
    _check_index(digits, "digits", 1)
    entry = _installed(r, nmax, digits)
    if entry is not None:
        return entry
    stop = _moebius_stop(r, nmax, digits)
    with mp.workdps(digits + 15):
        bound = 4 * mp.mpf(stop) ** nmax * mp.mpf(2) ** (-stop * r)
        floor = mp.mpf(10) ** (-(digits + 2 if r == 1 else digits + 4))
        tb = _round_out([4 * bound + floor] * (nmax + 1), digits)
    coeffs = _round_out(_compute_prime_zeta(r, nmax, digits).coeffs, digits)
    return PrimeZetaCoeffs(r, coeffs, digits, tb)


@lru_cache(maxsize=None)
def _compute_prime_zeta(r, nmax, digits):
    """The family by Moebius inversion of log zeta, as the exact values of
    its b-bit integer sums (no tail bounds: prime_zeta_taylor adds them).

    sum_{m < stop} mu(m)/m * log zeta(m*r + m*u), stop = _moebius_stop(r,
    nmax, digits), from the table at (nmax, digits) (b, c, a and T as
    there): the m term puts mu(m) * m**(n-1) * lz_n(m*r) in slot n >= 1 and
    floor(mu * lz_0 / m) in slot 0 (at r = 1 the m = 1 term is the regular
    log(u * zeta(1 + u))).  lz_n is within 2**(2*nmax + 6) units of 2**-b
    and m**(n-1) <= 2**(a * bit_length(m*r)), so the term adds under
    2**(2*nmax + 6 - c) / m**2 to a slot; slot 0's floors, a unit of 2**-b
    < 2**-c / (stop-1)**2 each, add under 2**-c: every slot is within 2**-T
    <= 10**-(digits+12) of the truncated sum.
    """
    stop, sums = _moebius_stop(r, nmax, digits), [0] * (nmax + 1)
    rows, mu, b = _log_zeta_table(nmax, digits)
    for m in range(1, stop):
        lz, f = rows[m * r], mu[m]
        sums[0] += f * lz[0] // m
        for n in range(1, nmax + 1):
            sums[n] += f * lz[n]
            f *= m
    return PrimeZetaCoeffs(
        r, tuple(mp.make_mpf(from_man_exp(v, -b)) for v in sums), digits)


def prime_zeta_fixed(r, nmax, head, digits, B, upto=None, coeffs=None):
    """The family at r less the head's power sums (all of it at r = 1),
    [n <= nmax] in units of 2**-B, under 2 units off coeffs less the exact
    sums: coeffs (by default the installed entry or _compute_prime_zeta's
    exact sums; prime_zeta_beyond passes prime_zeta_taylor's, whose
    tail_bounds its accuracy rests on) to floor(2**B c), each
    head.sums(r, nmax, digits, upto) value v at B_h bits to
    floor(v 2**(B - B_h))."""
    if coeffs is None:
        entry = _installed(r, nmax, digits) or _compute_prime_zeta(r, nmax, digits)
        coeffs = entry.coeffs
    out = [to_fixed(c._mpf_, B) for c in coeffs[: nmax + 1]]
    if r > 1 and head.primes:
        sums, Bh = head.sums(r, nmax, digits, upto)
        out = [f + ((v if n % 2 else -v) << B >> Bh)
               for n, (f, v) in enumerate(zip(out, sums))]
    return out


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

    @classmethod
    def upto(cls, x):
        """The primes p <= x from one sieve, taken without a second check."""
        if x > cls.MAX_PRIME:
            raise ValueError("head primes must lie in [2, %d]" % cls.MAX_PRIME)
        head = cls(())
        head.primes = primes_upto(x)
        return head

    def sums(self, r, nmax, digits, upto=None):
        """(sums, B): sums[n] is the head's power sum at r, index n, as an
        integer in units of 2**-B (see prime_zeta_beyond); all 0 for no
        primes.  A new chunk stops at r + span - 1 or at upto, the last r
        its caller reads."""
        if self._key != (nmax, digits) or not 0 <= r - self._r0 < len(self._sums):
            rows = self.span if upto is None else min(self.span, upto + 1 - r)
            self._B, self._sums = self._pass(r, rows, nmax, digits)
            self._r0, self._key = r, (nmax, digits)
        return self._sums[r - self._r0], self._B

    def _pass(self, r0, rows, nmax, digits):
        """One integer pass per prime over r0 .. r0 + rows - 1; (B, sums)."""
        ps = self.primes
        g = (int(math.log(ps[-1])) + 3).bit_length() if ps else 0
        B = dps_to_prec(digits + 10) + len(ps).bit_length() + nmax * g + 12
        one = 1 << B
        sums = [[0] * (nmax + 1) for _ in range(rows)]
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
    under 1.1 * 10**-(digits+4); the head, the subtraction in units of
    2**-prec(digits + 13) (prime_zeta_fixed, the W engine's route, under 2)
    and the rounding add under 10**-(digits+5).

    Head terms p**-r * l**n / n!, l = log p, are integers in units of
    2**-B (HeadPrimes' own B): t_0 = floor(2**B / p**r), under a unit off (a chunk starts at
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
    base, B = prime_zeta_taylor(r, nmax, digits), dps_to_prec(digits + 13)
    out = prime_zeta_fixed(r, nmax, head, digits, B, coeffs=base.coeffs)
    with mp.workdps(digits + 5):
        return tuple(mp.ldexp(v, -B) for v in out)


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
