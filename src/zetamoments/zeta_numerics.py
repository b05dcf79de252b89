"""High precision constants from the zeta function and the primes.

The central objects are Taylor coefficient families of prime power sums

    sum over primes of p**(-r) * (-log p)**n / n!

for integer r; the r = 1 family drops the logarithmic singularity.  The
one route is the Moebius inversion of log zeta_11, zeta with the primes
below 11 divided out (Cohen, "High precision computation of Hardy-Littlewood
constants", 1998): sum_p p**-s = sum_{p < 11} p**-s + sum_m mu(m)/m log
zeta_11(m s), zeta_11(s) = zeta(s) prod_{p < 11} (1 - p**-s), whose log
decays like 11**-s.  That is one b-bit integer sum per family, plus the
four small primes' power sums, over one table of log zeta_11(y + u) per
(nmax, digits) that every family reads (_log_zeta_table): zeta(y + u) from
one pass of Borwein's alternating series for eta over every y from the
pole y = 1 up (_zeta_borwein), divided by 1 - 2**(1-y-u) and multiplied by
the four factors, its series log (_log_series, no mpf log), at the pole
the factors' logs added (_pole_factor_logs), one Euler-product pass over
the primes from 11 beyond, and mu from one sieve.  Each
family is served, as the exact values of those sums, by one lookup
(prime_zeta_taylor) to the W engine, which reads it less the head primes'
power sums as integers (prime_zeta_fixed), to prime_zeta_beyond, an mpf
view of that route, and to the cache.  One integer power-sum kernel
(_dirichlet_sums) sums Borwein's series, the Euler product and the head
primes' power sums over a run of orders r (head_power_sums), each prime a
column, on a list the engine sieves (primes_upto) and outside input passes
through checked_primes.  Integer logs come from one table (int_log).
oracles._check_log_zeta_routes holds the table's Borwein rows to the
integer Euler-Maclaurin route's log zeta plus mpf logs of the four
factors; that route shares the kernel, int_log and the series log with
them and also serves the oracles' zeta_taylor and Stieltjes constants.
oracles.prime_zeta_direct, which sums sieved primes in plain mpf arithmetic
and closes the tail with mpmath's own zeta derivatives, shares only the
prime sieve (tested against trial division) with the default route, and
must stay so: it is the oracle the default route is checked against.
"""

import itertools
import math
import numbers
from functools import lru_cache
from operator import add, floordiv, itemgetter, lt, mul, rshift, sub
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import (
    dps_to_prec, from_int, from_man_exp, from_rational, mpf_log, to_fixed)

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


SMALL_PRIMES = (2, 3, 5, 7)  # divided out of zeta in the log zeta table

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
        tab.append(tab[i - 1] + 2 * _atanh_inv(2 * i - 1, W))
    _logs = tab, W, Bt
    return _logs


def _atanh_inv(m, W):
    """sum_k floor(floor(2**W / m**(2k+1)) / (2k+1)), m >= 3: under 2**W
    atanh(1/m), each of its K <= W/(2 log2 m) + 1 terms under a unit low and
    the dropped tail under 9/(8(2K+1)) units."""
    t, s, d, m2 = (1 << W) // m, 0, 1, m * m
    while t:
        s += t // d
        t //= m2
        d += 2
    return s


def _dirichlet_sums(cols, ys, nmax, B):
    """[sum over the columns (q, w, L) of floor(w_a / q**y), a <= nmax] at
    each y of the range ys, in units of 2**-B: the one integer power-sum
    kernel, one C-level pass over all columns per order and per y.  With w
    under a unit below 2**B c for some 0 < c <= 1 and L under 2/c units
    below 2**B log q, w_a = floor(w_{a-1} * L / 2**B / a), w_0 = w, is under
    3 * (1 + log q)**a below 2**B c (log q)**a / a!, and each y's term, the
    last floor-divided by q (floor(floor(x)/q) = floor(x/q)), under 4 * (1 +
    log q)**a.  Columns whose terms are all 0 are cut from the end: a term
    at 0 stays 0, so the cut is exact in any column order, and ascending q
    lets it fire early."""
    qs, w, L = [*map(list, zip(*cols))] or ([], [], [])
    terms, last = [w], itemgetter(-1)
    for a in range(1, nmax + 1):
        wL = map(rshift, map(mul, terms[-1], L), itertools.repeat(B))
        terms.append(list(map(floordiv, wL, itertools.repeat(a))))
    out = []
    for y in ys:
        div = qs if out else list(map(pow, qs, itertools.repeat(y)))
        terms = [list(map(floordiv, col, div)) for col in terms]
        while qs and not any(map(last, terms)):
            for col in (qs, *terms):
                col.pop()
        out.append(list(map(sum, terms)))
    return out


def _borwein_size(nmax, b):
    """(n, B): the length n of Borwein's series and the working bits B = b +
    s of _zeta_borwein at b bits, n = ceil((B + nmax + 4) / 2.543) (2.543 <
    log2(3 + sqrt 8)) and s = bit_length(n) + nmax*g + bit_length(nmax + 2)
    + 7, 1 + log n < 2**g; s grows with n and n with s, so both are stepped
    to the fixed point, a few steps."""
    s = 0
    while True:
        n = -(-(b + s + nmax + 4) * 1000 // 2543)
        g = (int(math.log(n)) + 2).bit_length()
        need = n.bit_length() + nmax * g + (nmax + 2).bit_length() + 7
        if need <= s:
            return n, b + s
        s = need


def _zeta_borwein(ys, nmax, b):
    """Coefficients zeta_11^(a)(y)/a!, a <= nmax, at each integer y >= 2 of
    the range ys, zeta_11(s) = zeta(s) prod_{p < 11} (1 - p**-s), and at the
    pole y = 1 those of zeta(1 + u) - 1/u, a < nmax, in units of 2**-b, each
    under 2 units off: eta from Borwein's alternating series ("An efficient
    algorithm for the Riemann zeta function", 2000, Algorithm 2), one pass
    over every y, then one series division per y, then the four factors,
    one prime at a time over every row y >= 2.

    With (n, B) = _borwein_size(nmax, b), the integers d_k = n sum_{i<=k}
    (n+i-1)! 4**i / ((n-i)! (2i)!), d_0 = 1, and c_k = (-1)**k (d_n - d_k) /
    d_n, so |c_k| <= 1,
      eta_n(s) = sum_{k<n} c_k (k+1)**-s,
      |eta(s) - eta_n(s)| <= 3 (1 + 2|t|) e**(pi|t|/2) / (3 + sqrt 8)**n
    for sigma >= 1/2.  On |u| = 1/2 about y >= 1 that is under 14 (3 +
    sqrt 8)**-n, so by Cauchy coefficient a of eta - eta_n at y + u is under
    2**(a+4) (3 + sqrt 8)**-n <= 2**-B.  Then, l_j = (log 2)**j / j!,
      zeta(y + u) = eta(y + u) / D(u), D = 1 - 2**(1-y-u),
          D_0 = 1 - 2**(1-y) >= 1/2, D_j = (-1)**(j+1) 2**(1-y) l_j  (y >= 2),
      u zeta(1 + u) = eta(1 + u) / E(u), E = (1 - 2**-u)/u,
          E_0 = log 2, E_j = (-1)**j l_{j+1},
    so the pole needs no Bernoulli numbers.  Error in units of 2**-B, with n
    < 2**nb and 1 + log n < 2**g:
    - eta: the columns (k + 1, floor(2**B |c_k|), int_log(k + 1, B)) of each
      parity of k are one _dirichlet_sums pass, the odd sum subtracted: each
      column is under 4 * (1 + log n)**a off, so with the truncation eta_a is
      off by under 1 + 4n 2**(a*g) <= eps = 2**(3 + nb + nmax*g).
    - l_j: f_0 = 2**B and f_j = floor(f_{j-1} * int_log(2, B) / 2**B / j) are
      under 3 * (1 + log 2)**j < 3 * 2**j low.  D_0 = 2**B - 2**(B+1-y) is
      exact; D_j = +-floor(f_j / 2**(y-1)) is under 2**(j+1) off and no
      larger than the exact value.  E_j = +-f_{j+1}.
    - y >= 2: z_a = floor((2**B eta_a - sum_{1<=j<=a} D_j z_{a-j}) / D_0).
      With |z_a| <= 2 (see _log_series) and sum_{j>=1} |D_j| / D_0 <=
      sum_{j>=1} l_j = 1, z_a is off by e_a <= 1 + 2 eps + sum_{j<=a}
      2**(j+3) + max_{j<a} e_j, so e_a <= (a + 1) (1 + 2 eps) + 2**(a+5).
    - the pole: p_0 = 2**B exactly, p_a likewise over E_0 = int_log(2, B) >=
      0.69 * 2**B, and |p_a| <= 1 (see _log_series): sum_{j>=1} |E_j| / E_0
      < 0.45, and the E_j's errors, under 3 * 2**(j+1) (2 for E_0), add under
      2**(a+5), so e_a <= 1 + 2 eps + 0.45 max_{j<a} e_j + 2**(a+5) <= 2 (1 +
      2 eps) + 2**(a+6).
    - the factors, p = 2, 3, 5, 7 in turn: z_a -= floor(sum_{j<=a} E_j
      z_{a-j} / (2**B p**y)), E_j = (-1)**j g_j, g_j the chain of (log
      p)**j / j! like f_j, under 3 (1 + log p)**j < 3**(j+1) low.  Each
      partial product is zeta(y + u) over the integers prime to the primes
      done, so |z_a| <= 2 throughout; with sum_j (log p)**j / j! = p and p**y
      >= 4 a factor scales the error carried in by under 1 + p**(1-y) <= 1 +
      1/p and adds under 1 + 3**(a+2) / 3.  The four scale by under 2.75 and
      add under 3**(a+4).
    The pole is under 2 (1 + 2 eps) + 2**(nmax+6), the rows y >= 2 under
    2.75 ((nmax + 2) (1 + 2 eps) + 2**(nmax+6)) + 3**(nmax+4); as n >= 16
    (so nb >= 5 and g >= 2) and (nmax + 2) (1 + 2 eps) < 2**bit_length(nmax
    + 2) + 2**(s-3), both are under 2**(s-1), s = B - b, so each coefficient
    floored to b bits is under 1/2 + 1 units of 2**-b off.  At nmax = 0 no
    log is taken.
    """
    n, B = _borwein_size(nmax, b)
    d, term = [1], 1
    for i in range(1, n + 1):
        term = term * 4 * (n + i - 1) * (n - i + 1) // (2 * i * (2 * i - 1))
        d.append(d[-1] + term)
    one, dn = 1 << B, d[n]
    cols = [(k + 1, ((dn - d[k]) << B) // dn, int_log(k + 1, B) if nmax else 0)
            for k in range(n)]
    even, odd = (_dirichlet_sums(cols[i::2], ys, nmax, B) for i in (0, 1))
    L2, f = int_log(2, B) if nmax else 0, [one]
    for j in range(1, nmax + 2):
        f.append((f[-1] * L2 >> B) // j)
    rows = []
    for y, pos, neg in zip(ys, even, odd):
        eta = [v - w if a % 2 == 0 else w - v for a, (v, w) in enumerate(zip(pos, neg))]
        if y == 1:
            den, z = [(-1) ** j * v for j, v in enumerate(f[1:])], [one]
        else:
            c = y - 1
            den = [one - (one >> c)] + [(-1) ** (j + 1) * (v >> c)
                                       for j, v in enumerate(f[1:-1], 1)]
            z = []
        for a in range(len(z), nmax + 1):
            z.append(((eta[a] << B) - sum(den[j] * z[a - j] for j in range(1, a + 1)))
                     // den[0])
        rows.append(z)
    # zeta_11: each row y >= 2 times 1 - p**-(y+u), one prime over every row
    pole = ys[0] == 1
    cols, pows = [list(col) for col in zip(*rows[pole:])], ys[pole:]
    for p in SMALL_PRIMES if pows else ():
        L, e = int_log(p, B) if nmax else 0, [one]
        for j in range(1, nmax + 1):
            e.append((e[-1] * L >> B) // j)
        e = [-v if j % 2 else v for j, v in enumerate(e)]
        den = [p ** y << B for y in pows]
        for a in range(nmax, -1, -1):
            acc = [v << B for v in cols[a]]
            for j in range(1, a + 1):
                acc = list(map(add, acc, map(mul, cols[a - j], itertools.repeat(e[j]))))
            cols[a] = list(map(sub, cols[a], map(floordiv, acc, den)))
    rows[pole:] = zip(*cols)
    if pole:
        rows[0] = rows[0][1:]
    return [[v >> (B - b) for v in z] for z in rows]


def _log_series(ys, rows, nmax, b):
    """Coefficients of log Z(y + u) in u at each integer y >= 2 of the range
    ys, Z = zeta or zeta_11, and of the regular log(u * zeta(1 + u)) at the
    pole y = 1, as tuples of integers in units of 2**-b, each within 56 *
    4**a < 2**(2*nmax + 6) units: the series log of rows, rows[i] the
    coefficients of Z(ys[i] + u), a <= nmax (at the pole those of zeta(1 + u)
    - 1/u, a < nmax), in units of 2**-b, each under 2 units off
    (_zeta_borwein's zeta_11; oracles._log_zeta_em's zeta).

    Write z_a = Z^(a)(y)/a!, so 1 < z_0 < 2 (Z is an Euler product).  For a
    >= 1, |z_a|, |z_a / z_0| and the log coefficients are at most 2: each is
    a sum over j >= 2 (zeta_11 keeps only some j) of at most j**-2 * (log
    j)**a / a!, whose integral over t >= 1 is 1 and largest term below 1.
    At the pole the series is 1 + sum_a R_a u**(a+1); on |u| = 2, |zeta(1+u) - 1/u| < 0.71 and |log(u * zeta(1+u))|
    < 1.8 (sampled), so by Cauchy both kinds are under 1.
    - v_a, row entry a, is off by under 2 units; so is v_0 raised to at
      least 2**b, which moves it toward 2**b * zeta(y).
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
    one, out, W = 1 << b, [], b + b.bit_length() + 2
    for y, v in zip(ys, rows):
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


def _log_zeta_euler(ys, nmax, b, t):
    """Coefficients of log zeta_11(y + u) = sum over prime powers q = p**k <
    P = 2**t, p >= 11, of q**-(y+u) / k at each integer y of the range ys,
    in units of 2**-b, each within 2 units; needs y > nmax, P**(y-1) >=
    2**(b + 4*nmax + 4) and 2 <= t <= 13.  At B = b + 4*nmax + t + 6 bits each q is a
    column (q, floor(2**B / k), k * int_log(p, B)) of _dirichlet_sums, off
    by under 4 * (1 + log q)**a < 2**(2 + 4a) units, under 2**-(b+4) over
    the under 2**t q.
    For y > nmax and P >= 4, s**-y (log s)**a falls on s >= P, so the
    integers past P add under its value at P plus its integral from P, 2 *
    P**(1-y) * (1 + log P)**a <= 2**-(b+3).  The final shift floors.
    """
    B, P, cols = b + 4 * nmax + t + 6, 1 << t, []
    for p in itertools.compress(range(11, P), _prime_flags(P - 1)[11:]):
        L = int_log(p, B) if nmax else 0
        k, q = 1, p
        while q < P:
            cols.append((q, (1 << B) // k, k * L))
            k, q = k + 1, q * p
    return [tuple((-v if a % 2 else v) >> (B - b) for a, v in enumerate(row))
            for row in _dirichlet_sums(sorted(cols), ys, nmax, B)]


def _crossover(nmax, b):
    """(y_eta, t): a table at b bits takes Borwein's series up to y_eta and
    the Euler product over the primes below 2**t beyond; t is the largest
    with at most n/2 primes below 2**t, n Borwein's length (_borwein_size),
    so the product, which skips the four below 11, starts with under as many
    columns as each parity of the series, and y_eta = max(nmax, ceil((b +
    4*nmax + 4) / t)).  Timed (median of 11 builds, 2-core x86 host,
    pure-Python mpmath) at (nmax, digits) = (0, 75), (4, 37), (9, 60), (2,
    15): 1.5, 3.4, 16.5 and 1.0 ms, against 2.0, 4.0, 18.7 and 1.4 ms for the
    log zeta table before the small primes came out; t one lower or higher
    is within noise to 12 % slower."""
    n, _ = _borwein_size(nmax, b)
    pi = (0, 1, 2, 4, 6, 11, 18, 31, 54, 97, 172, 309, 564, 1028)  # below 2**t
    t = max(t for t in range(2, 14) if 2 * pi[t] <= n)
    return max(nmax, -(-(b + 4 * nmax + 4) // t)), t


def _moebius_stop(r, nmax, digits):
    """The first m >= 1 with 4 * m**nmax * 11**(-m*r) < 10**-(digits+10).

    log zeta_11's coefficient n at y is a sum over the prime powers q = p**k,
    p >= 11, of q**-y (k log p)**n / (n! k), led by 11**-y (log 11)**n / n!
    <= 2.88 * 11**-y; so the terms m >= stop of a family add about m**(n-1)
    times that to slot n, and 4 covers the next primes and m (the tests sum
    the dropped terms in mpf against it)."""
    stop, lhs = 1, 4 * 10 ** (digits + 10)
    while lhs * stop ** nmax >= 11 ** (stop * r):
        stop += 1
    return stop


def _pole_factor_logs(nmax, b):
    """Coefficients of sum_{p < 11} log(1 - p**-(1+u)), a <= nmax, in units
    of 2**-b, each within 5 units: what turns the pole's log(u * zeta(1 + u))
    into log(u * zeta_11(1 + u)).

    The constant is -sum_p 2 atanh(1/(2p - 1)) (log(1 - 1/p) = -log(p/(p -
    1))), four _atanh_inv sums at W = b + bit_length(b) + 2 bits, under 0.83 W
    + 4 < 2**(W - b - 1) units low in all, so within 2 units once floored:
    no log table is built.  Coefficient a >= 1 of one prime is
      -sum_k p**-k (-k l)**a / (a! k) = -(-l)**a / a! * T_{a-1} / (p-1)**a,
    l = log p, T_n = (p-1)**(n+1) sum_k k**n p**-k, the integers T_0 = 1,
    T_n = p sum_{i<n} C(n, i) (1-p)**(n-1-i) T_i (from (1 - 1/p) S_n =
    sum_{k} (k**n - (k-1)**n) p**-k).  It is at most 2**a sum_k p**(-k/2) /
    k < 1.23 * 2**a ((k l)**a / a! <= 2**a p**(k/2)); l is taken as int_log(p,
    B) / 2**B, B = b + 2*nmax + 8, under 2 units low, so the power is under
    2a / (0.69 * 2**B) low relative: under 3.6 a 2**(a-2*nmax-8) < 1/8 units
    of 2**-b, and the floor adds one, under 1.2 per prime."""
    W = b + b.bit_length() + 2
    out = [-sum(_atanh_inv(2 * p - 1, W) for p in SMALL_PRIMES) >> (W - b - 1)]
    out += [0] * nmax
    B = b + 2 * nmax + 8
    for p in SMALL_PRIMES if nmax else ():
        L, T = int_log(p, B), [1]
        for a in range(1, nmax + 1):
            n = a - 1
            if n:
                T.append(p * sum(math.comb(n, i) * (1 - p) ** (n - 1 - i) * T[i]
                                 for i in range(n)))
            v, den = L ** a * T[n], (p - 1) ** a * math.factorial(a) << (a * B - b)
            out[a] += (v if a % 2 else -v) // den
    return out


@lru_cache(maxsize=None)
def _log_zeta_table(nmax, digits):
    """(rows, mu, b) for the families at (nmax, digits): rows[y] holds log
    zeta_11(y + u) (at y = 1 the regular log(u * zeta_11(1 + u))) in units
    of 2**-b, within 2**(2*nmax + 6) (the pole's 56 * 4**a plus 5), and mu[m]
    the Moebius function.  A family reads y = m*r, m below its stop, so 4 *
    10**(digits+10) * y**nmax >= 11**y, true only below Y =
    _moebius_stop(1, nmax, digits) (y log 11 - nmax log y is convex): 75 rows
    at (nmax, digits) = (0, 68), c0's, and 45 at (4, 30), lead5's.  b = c +
    (a+2) * bit_length(Y - 1), a = max(nmax - 1, 0), c = T + 2*nmax + 8,
    2**-T <= 10**-(digits+12), meets _compute_prime_zeta's bound at its
    largest y."""
    top = _moebius_stop(1, nmax, digits) - 1
    T = math.ceil((digits + 12) * math.log2(10))
    b = T + 2 * nmax + 8 + (max(nmax - 1, 0) + 2) * top.bit_length()
    y_eta, t = _crossover(nmax, b)
    ys = range(1, min(y_eta, top) + 1)
    rows = _log_series(ys, _zeta_borwein(ys, nmax, b), nmax, b)
    rows[0] = tuple(map(add, rows[0], _pole_factor_logs(nmax, b)))
    if top > y_eta:
        rows += _log_zeta_euler(range(y_eta + 1, top + 1), nmax, b, t)
    return (None, *rows), _mobius_sieve(top), b


def _mobius_sieve(n):
    """[0, mu(1), ..., mu(n)], n >= 1, from one sieve of primes."""
    mu = [0] + [1] * n
    for p in itertools.compress(range(n + 1), _prime_flags(n)):
        mu[p::p] = [-v for v in mu[p::p]]
        mu[p * p :: p * p] = [0] * len(range(p * p, n + 1, p * p))
    return mu


class PrimeZetaCoeffs(NamedTuple):
    """Taylor family of a prime power sum: coeffs[n] pairs with (-log p)**n/n!,
    to the accuracy prime_zeta_taylor states for digits."""

    r: int
    coeffs: tuple
    digits: int


_installed_pzeta = {}


def install_prime_zeta(r, entry):
    """Register (or with None, drop) a precomputed coefficient family for r."""
    if entry is None:
        _installed_pzeta.pop(r, None)
    else:
        _installed_pzeta[r] = entry


def prime_zeta_taylor(r, nmax, digits=50):
    """Coefficient family for sum_p p**(-r): index n carries (-log p)**n / n!.

    The one lookup of a family: an installed cache entry is returned as is
    when it covers the requested order and digits, else the memoized exact
    values of the Moebius inversion of log zeta_11 in b-bit integers plus
    the primes below 11 (_compute_prime_zeta), from the one log zeta_11
    table per (nmax, digits) that every family reads.  For r = 1 the family
    is the regularized one: the logarithmic blowup is removed before
    expanding, which shifts the n = 0 value to about -0.3157.

    Each value is within 4 * T + 10**-(digits+12) of the full family, under
    4.01 * 10**-(digits+10), with T = 4 * stop**nmax * 11**(-stop*r) and
    stop = _moebius_stop(r, nmax, digits): the integer sums are within
    10**-(digits+12) of the Moebius sum truncated before stop plus the small
    primes' sums (_compute_prime_zeta), and T estimates the terms m >= stop
    it drops, term m adding about m**(n-1) * 11**(-m*r) * (log 11)**n / n!
    to slot n; the tests sum those terms in mpf over the primes from 11 and
    check the families against an mpf reference.
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
    """The family by Moebius inversion of log zeta_11, as the exact values
    of its b-bit integer sums.

    sum_{p < 11} p**-(r+u) + sum_{m < stop} mu(m)/m * log zeta_11(m*r +
    m*u), stop = _moebius_stop(r, nmax, digits), from the table at (nmax,
    digits) (b, c, a and T as there): the m term puts mu(m) * m**(n-1) *
    lz_n(m*r) in slot n >= 1 and floor(mu * lz_0 / m) in slot 0 (at r = 1
    the m = 1 term is the regular log(u * zeta_11(1 + u))), each slot one
    C-level pass over the squarefree m.  lz_n is within 2**(2*nmax + 6)
    units of 2**-b and m**(n-1) <= 2**(a * bit_length(m*r)), so the term
    adds under 2**(2*nmax + 6 - c) / m**2 to a slot, under 0.42 * 2**-T over
    every m; slot 0's floors add under 2**-c.  The small primes' sums
    (head_power_sums, within 10**-(digits+13)) are added with their signs
    (-1)**n, each floored to b bits.  Every slot is within 0.42 * 2**-T +
    10**-(digits+13) + 2**(1-c) < 10**-(digits+12) of the truncated sum.
    """
    rows, mu, b = _log_zeta_table(nmax, digits)
    ms = [m for m in range(1, _moebius_stop(r, nmax, digits)) if mu[m]]
    f = [mu[m] for m in ms]
    lz = list(zip(*[rows[m * r] for m in ms])) or [()] * (nmax + 1)
    sums = [sum(map(floordiv, map(mul, f, lz[0]), ms))]
    for n in range(1, nmax + 1):
        sums.append(sum(map(mul, f, lz[n])))
        f = list(map(mul, f, ms))
    Bh, (head,) = head_power_sums(list(SMALL_PRIMES), r, r, nmax, digits)
    sums = [v + ((-w if n % 2 else w) << b >> Bh)
            for n, (v, w) in enumerate(zip(sums, head))]
    return PrimeZetaCoeffs(
        r, tuple(mp.make_mpf(from_man_exp(v, -b)) for v in sums), digits)


MAX_HEAD_PRIME = 2_000_000  # the largest head prime, and prime cutoff, accepted
MAX_WEIGHT = 16  # the largest key weight accepted, P_4's top; _plan(25) would form 78M products


def checked_primes(primes):
    """primes as an ascending list, or ValueError: each must be an int (not
    a bool), prime, at most MAX_HEAD_PRIME (checked before the validating
    sieve runs) and listed once."""
    try:
        ps = list(primes)
    except TypeError:
        raise ValueError("head primes must be an iterable, got %r" % (primes,)) from None
    if not set(map(type, ps)) <= {int}:
        bad = next(p for p in ps if type(p) is not int)
        raise ValueError("head primes must be ints, got %r" % (bad,))
    ps.sort()
    if ps and not 2 <= ps[0] <= ps[-1] <= MAX_HEAD_PRIME:
        raise ValueError("head primes must lie in [2, %d]" % MAX_HEAD_PRIME)
    if not all(map(lt, ps, itertools.islice(ps, 1, None))):
        raise ValueError("head primes must be distinct")
    if ps:
        flags = _prime_flags(ps[-1])
        if not all(map(flags.__getitem__, ps)):
            bad = next(p for p in ps if not flags[p])
            raise ValueError("head prime %d is not a prime" % bad)
    return ps


def head_power_sums(primes, r0, r1, nmax, digits):
    """(B, rows): rows[r - r0][n], r0 <= r <= r1, is the power sum over the
    primes (ascending, as checked_primes returns them) of p**-r * l**n / n!,
    l = log p, as an integer in units of 2**-B, within 10**-(digits+13); all
    0 for no primes, and no rows for r1 < r0.  B is set by the primes, nmax
    and digits alone, and each row is exact to a floor, so no row depends on
    the r0 the pass starts from.

    The primes are the columns (p, 2**B, int_log(p, B)), no log taken at
    nmax = 0, of one _dirichlet_sums pass over r0..r1: int_log is under 2
    units below 2**B l, so term n of one prime is under 4 * (1 + l)**n
    units off, below 2**(2 + n*g) with g = bit_length(int(log max p) + 3)
    (1 + l < 2**g), and a row within 2**(s - B) of its exact value, where s
    = len.bit_length() + nmax*g + 2.  B = prec + s + 10, prec the working
    precision of digits + 10, makes it 2**-(prec+10) < 10**-(digits+13).
    """
    g = (int(math.log(primes[-1])) + 3).bit_length() if primes else 0
    B = dps_to_prec(digits + 10) + len(primes).bit_length() + nmax * g + 12
    logs = map(int_log, primes, itertools.repeat(B)) if nmax else itertools.repeat(0)
    cols = zip(primes, itertools.repeat(1 << B), logs)
    return B, _dirichlet_sums(cols, range(r0, r1 + 1), nmax, B)


def prime_zeta_fixed(coeffs, nmax, B, head_row, Bh):
    """The family coeffs (prime_zeta_taylor's, at r = 1 the regularized
    one) less head_row, the head primes' power sums at its r in units of
    2**-Bh (head_power_sums), [n <= nmax] in units of 2**-B, under 2 units
    off coeffs less the exact sums: each c to floor(2**B c), each head
    value v to floor(v 2**(B - Bh))."""
    return [to_fixed(c._mpf_, B) + ((v if n % 2 else -v) << B >> Bh)
            for n, (c, v) in enumerate(zip(coeffs[: nmax + 1], head_row))]


def prime_zeta_beyond(r, nmax, primes, digits=50):
    """The same family with the head primes' contribution removed, each
    value within 10**-(digits+3) of the exact one: digits is an absolute
    accuracy, what a caller adding V_r times the family to O(1) values
    needs (the family is about max(primes)**(1-r)).

    r must be at least 2 (ValueError): the r = 1 family is the regularized
    one, and less the head sums it is no beyond-cutoff sum.  primes is any
    iterable of primes, validated (checked_primes) and summed in a one-row
    pass (head_power_sums, within 10**-(digits+13)).  The full family,
    prime_zeta_taylor at digits, is under 4.01 * 10**-(digits+10) off; the
    head, the subtraction in units of 2**-prec(digits + 13)
    (prime_zeta_fixed, the W engine's route, under 2) and the rounding add
    under 10**-(digits+5).
    """
    _check_index(r, "beyond-cutoff order r", 2)
    ps = checked_primes(primes)
    coeffs, B = prime_zeta_taylor(r, nmax, digits).coeffs, dps_to_prec(digits + 13)
    Bh, (row,) = head_power_sums(ps, r, r, nmax, digits)
    out = prime_zeta_fixed(coeffs, nmax, B, row, Bh)
    with mp.workdps(digits + 5):
        return tuple(mp.ldexp(v, -B) for v in out)


def envelope_bound(r, n, M, digits=15):
    """Certified upper bound on sum over primes p > M of p**-r (log p)**n / n!.

    Integers above M dominate the primes; the stretch up to M' = max(M,
    floor(exp(n/r)) + 1), where the integrand may still rise, is summed
    explicitly and the rest, sum_{j > M'} <= int_{M'}^oo x**-r (log x)**n dx
    = M'**(1-r) sum_{i<=n} n!/i! (log M')**i / (r-1)**(n+1-i), is an exact
    finite sum.  Every term is positive, so logs taken high give a bound:
    log j is taken as a_j / 2**s (_log_up), at least log j and within 3
    units, and the sums and powers run in integers, each stretch term
    rounded up to a unit of 2**-s times M'**-r.  The exact rational result
    is rounded up once to prec(digits + 10); s = prec + 8 keeps it within
    10**-(digits+5) relative of the formula evaluated exactly.
    """
    _check_index(r, "envelope order r", 2)
    _check_index(n, "envelope index n")
    _check_index(digits, "digits", 1)
    if not isinstance(M, (numbers.Real, mp.mpf)):
        raise ValueError("M must be a real number, got %r" % (M,))
    if not (isinstance(M, numbers.Rational) or mp.isfinite(M)):
        raise ValueError("M must be finite, got %r" % (M,))
    if M < 2:
        raise ValueError("M must be at least 2")
    prec = dps_to_prec(digits + 10)
    s, c = prec + 8, r - 1
    mprime = max(int(M), int(math.exp(n / r)) + 1)
    scale, tot = mprime**r << s, 0
    for j in range(int(M) + 1, mprime + 1):
        tot -= -(_log_up(j, s) ** n * scale) // j**r
    # g = sum_{i<=n} n!/i! X**i 2**(s(n-i)), X = c a_M': g_m = X**m + m 2**s g_(m-1)
    X, xp, g = c * _log_up(mprime, s), 1, 1
    for m in range(1, n + 1):
        xp *= X
        g = xp + (m * g << s)
    num = tot * c ** (n + 1) + (mprime * g << s)
    den = c ** (n + 1) * scale * math.factorial(n) << s * n
    return mp.make_mpf(from_rational(num, den, prec, "u"))


def _log_up(j, s):
    """An integer a with 2**s log j < a < 2**s log j + 3, for 2 <= j < 2**64.

    mpmath's log works at 20 bits beyond the s + 8 asked for, a few units
    off there; rounded up to s + 8 bits it is under 2**-(s+12) below log j
    and under 2**-(s+2) above (log j < 64).  The floor to units of 2**-s
    takes off under one more unit, and the two units added make the bound.
    """
    return to_fixed(mpf_log(from_int(j), s + 8, "u"), s) + 2
