"""Moment polynomial pipeline: exact tables feeding big-real coefficients.

The chain: the local Euler factor, expanded over pairs of partitions, gives
one ratio series X_{mu nu}(Q) in Q = 1/p per key; at an integer k the V
values are the Q**r coefficients of the pair-series logarithm of 1 + X,
integers (but at the empty key) built with each Q-series packed into one
int (_v_series); V combines with prime power sums into the W coefficients;
the exponential e of the W series, power-sum basis, C-bit integers, dotted
exactly with the integer table D_k (characters.power_dim_table: complement
skew dimensions, by determinant, seen through characters) gives each c_N(k)
of the degree-k**2 moment polynomial for the 2k-th moment of zeta on the
critical line in one mpf conversion; the d-table is the oracle.  The same V, as
polynomials in k, come from contracting the rational f-table (the logarithm
of an exact pair series) against monomial symmetric evaluations; that route
is the paper's exact object and the oracle the engine is checked against.

The naive r-sum defining W diverges for k >= 3 because the V side outgrows
the decay of the prime family.  The engine therefore splits: local log
factors are accumulated over the primes up to a cutoff (with each prime's
leading 1/p part removed), and the r-sum is restarted on the primes beyond
the cutoff only, where it converges geometrically; that sum, V_r times a
family per key, and its stop test run in B-bit integers (_w_engine).  Each
beyond-cutoff family is the Moebius-inverted prime-zeta family less the head
primes' power sums, in the same integers (zeta_numerics.prime_zeta_fixed);
the families of a V chunk share one absolute accuracy (_v_chunk), their log
zeta values and one HeadPrimes pass per prime to the chunk's order.  Below
the cutoff every key's local factor is an exact integer ratio at Q = 1/p
(see below), so the head is one integer pass per prime: the empty key's
part is one fixed-point product over the primes and a single log, and the
other keys take one pair-series log per prime in B-bit integers
(_head_logs).  The cutoff comes from the digit and tolerance
request; tail estimates combine a certified envelope on the beyond-cutoff
prime sums with the measured decay of the last few increments.

The closed form.  The local numerator a_mu(u) of _a_seqs has generating
function T**len(mu) * prod_m E_{m-1}(T) / (1-T)**(k+|mu|), E_j the Eulerian
polynomials (E_0 = 1, else of degree j-1).  Its numerator has degree at most
|mu| < k+|mu|, so a_mu(u) is a polynomial in u of degree k-1+|mu|, and
z_{mu nu}(Q) = sum_u a_mu(u) a_nu(u) Q**u is exactly N(Q) / (1-Q)**(D+1),
D = 2k-2+n, n = |mu|+|nu|, with integer N of degree at most D.  The empty
key's N is the Gauss square polynomial, so z_0(1/p) = A_k(p) p**k /
(p-1)**(2k-1), A_k(p) = sum_j C(k-1, j)**2 p**(k-1-j), and X_{mu nu}(1/p) =
z_{mu nu}(1/p) / z_0(1/p) = Ntil(p) / (p**(k-1) A_k(p) (p-1)**n), with
Ntil(p) = sum_i N_i p**(D-i).
"""

import math
import warnings
from collections import deque
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import (dps_to_prec, fone, from_int, from_man_exp, mpf_add,
                          mpf_div, mpf_exp, mpf_mul, mpf_neg, to_fixed)

from . import __version__
from .characters import character_table, power_dim_table
from .partitions import centralizer_order, check_partition, dim_hook, partitions_of
from .symseries import (
    EMPTY_KEY,
    POWERSUM,
    SCHUR,
    KPoly,
    PairSeries,
    _accumulate_halved,
    _exp_log_fixed,
    _plan,
    _switch_basis,
    monomial_eval,
    multinomial,
    p_to_schur,
    series_log,
)
from .zeta_numerics import (
    HeadPrimes,
    _check_index,
    envelope_bound,
    int_log,
    prime_zeta_beyond,
    prime_zeta_fixed,
)

class ValueWithError(NamedTuple):
    """A big real paired with an absolute error estimate."""

    value: object
    error: object


class NonConvergenceError(RuntimeError):
    """A truncation scheme hit its hard cap before reaching the target.

    meta carries the parameters in force, so callers can report diagnostics
    rather than a bare failure.
    """

    def __init__(self, message, meta=None):
        super().__init__(message)
        self.meta = meta


class FTable(NamedTuple):
    """Exact rational log-series table over equal-weight partition pairs."""

    max_weight: int
    entries: dict


class MomentPolynomial(NamedTuple):
    """Full coefficient family of one moment polynomial.

    coefficients holds (N, value, error) triples for N = 0..k**2, value
    multiplying x**(k**2 - N); metadata records the truncation actually used.
    """

    k: int
    digits: int
    coefficients: tuple
    metadata: dict

    def evaluate(self, x):
        """The polynomial at x by Horner's rule, at digits + 10."""
        with mp.workdps(self.digits + 10):
            acc, x = mp.mpf(0), mp.mpf(x)
            for _, value, _ in self.coefficients:
                acc = acc * x + value
        return acc


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


def _gauss_square_poly(k):
    """Polynomial part of the local Euler factor: squared binomial row k-1,
    the integer coefficients of P_k from the constant term up."""
    return tuple(math.comb(k - 1, j) ** 2 for j in range(k))


def _b_series(k, R, absolute=False):
    """[Q^r] log of the local factor, split as (2k-1)/r plus log(1 + x), x
    the polynomial part less 1; absolute=True takes -log(1 - x) instead,
    which has the magnitudes of log(1 + x)'s power expansion.  By Newton's
    identity, with x = sum_{0<j<k} c_j Q**j, t_r = r [Q^r] log(1 + x) solves
    (1 + x) sum_r t_r Q**r = Q x', so the integers t_r = r c_r - sum_{0<j<
    min(r,k)} c_j t_{r-j}; -log(1 - x) flips the sign of the sum."""
    c, t = _gauss_square_poly(k), [0] * (R + 1)
    sign = 1 if absolute else -1
    for r in range(1, R + 1):
        t[r] = (r * c[r] if r < k else 0) + sign * sum(
            c[j] * t[r - j] for j in range(1, min(r, k)))
    return (Fraction(0),) + tuple(
        Fraction(t[r] + 2 * k - 1, r) for r in range(1, R + 1)
    )


def _rho_inv(k):
    """Growth proxy for the local log coefficients, used to place cutoffs."""
    return 1 + max(math.comb(k - 1, j) ** 2 for j in range(k))


def _norm_den(mu):
    mult = {}
    den = 1
    for q in mu:
        den *= math.factorial(q)
        mult[q] = mult.get(q, 0) + 1
    for c in mult.values():
        den *= math.factorial(c)
    return den


def _a_seqs(k, wmax, U):
    """Integer coefficient lists of the local numerator factors.

    Entry mu, index u: the T**u coefficient of (1-T)**-k times, for each part
    m of mu, the weighted geometric sum of u**(m-1) T**u.  Built by extending
    a parent sequence one part at a time.
    """
    mus = sorted(
        {m for a in range(wmax + 1) for m in partitions_of(a)},
        key=lambda m: (len(m), m),
    )
    out = {(): [math.comb(u + k - 1, k - 1) for u in range(U + 1)]}
    wt_cache = {}
    for m in mus:
        if m in out:
            continue
        part = m[-1]
        if part not in wt_cache:
            wt_cache[part] = [0] + [u ** (part - 1) for u in range(1, U + 1)]
        wt = wt_cache[part]
        par = out[m[:-1]]
        new = [0] * (U + 1)
        for u in range(U + 1):
            cu = par[u]
            if cu:
                for v in range(1, U + 1 - u):
                    new[u + v] += cu * wt[v]
        out[m] = new
    return out


def _v_series(k, wmax, R):
    """Exact V_r at integer k and termwise bounds on them, for r = 1..R.

    V_r for the key (mu, nu) of weight n is n! [Q**r] log(1 + X) over the
    pair series, X_{mu nu} = z_{mu nu} / (z_0 nd), nd = _norm_den(mu) *
    _norm_den(nu); log(1 - |X|) gives a coefficientwise majorant M.  The
    empty key is the scalar local log.  Returns two lists indexed by r of
    {key: value}, zeros omitted.

    n!/nd counts the set partitions of an n-set into red blocks of shape mu
    and blue ones of shape nu, so S = n! X is an integer series, and L = n!
    log(1 + X) solves _exp_log's recurrence without division: L_out = S_out
    - sum_{0<j<n} C(n-1, j-1) sum L_a S_b over plan.products[n][j]; M is the
    same on -|S|, negated.  Each Q-series is one int at Q = 2**K: one product
    per triple, summed per output and cut to its low R + 1 slots, exact
    while each fits in K signed bits.  By induction |L| <= M, as is the sum
    before the cut; over the keys of weight n, M sums to Lam_n = T_n +
    sum_j C(n-1, j-1) Lam_j T_{n-j}, T_n their sum of |S| (each operand pair
    meets once), so 2**(K-1) > max Lam will do.
    """
    aseq = _a_seqs(k, wmax, R)
    z0 = [a * a for a in aseq[()]]
    # z0 has constant term 1, so its reciprocal has integer coefficients
    inv = [1] + [0] * R
    for u in range(1, R + 1):
        inv[u] = -sum(z0[i] * inv[u - i] for i in range(1, u + 1))

    def mul(a, b):
        return [sum(a[i] * b[u - i] for i in range(u + 1)) for u in range(R + 1)]

    plan = _plan(wmax)
    keys, starts, twin = plan.keys, plan.starts, plan.twin
    # X and its log are symmetric in the two slots: mirror keys come once
    S, T = [], [[0] * (R + 1) for _ in range(wmax + 1)]
    for i, (m, nu) in enumerate(keys):
        n = sum(m) + sum(nu)
        f = math.factorial(n) // (_norm_den(m) * _norm_den(nu))
        S.append(S[twin[i]] if twin[i] < i else
                 mul([f * a * b for a, b in zip(aseq[m], aseq[nu])], inv))
        T[n] = [t + abs(c) for t, c in zip(T[n], S[i])]
    lam = list(T)
    for n in range(2, wmax + 1):
        for j in range(1, n):
            c = math.comb(n - 1, j - 1)
            lam[n] = [t + c * x for t, x in zip(lam[n], mul(lam[j], T[n - j]))]
    K = max(map(max, lam)).bit_length() + 1
    slot, half, mask = (1 << K) - 1, 1 << (K - 1), (1 << K * (R + 1)) - 1
    bias = mask // slot * half
    tables = []
    for sign in (1, -1):
        table, b0 = [{} for _ in range(R + 1)], _b_series(k, R, sign < 0)
        tables.append(table)
        for r in range(1, R + 1):
            if b0[r]:
                table[r][EMPTY_KEY] = b0[r]
        P = [sum((c if sign > 0 else -abs(c)) << K * u for u, c in enumerate(s))
             for s in S]
        L = list(P)
        for n in range(2, wmax + 1):
            acc = [0] * len(keys)
            for j in range(1, n):
                c = math.comb(n - 1, j - 1)
                cl = [0] * starts[j] + [c * v for v in L[starts[j]:starts[j + 1]]]
                _accumulate_halved(plan.products[n][j], cl, P, acc, twin)
            for i in range(starts[n], starts[n + 1]):
                L[i] = (((L[i] - acc[i] + bias) & mask) - bias
                        if twin[i] >= i else L[twin[i]])
        for key, v in zip(keys[1:], L[1:]):
            v += bias
            for r in range(1, R + 1):
                c = (v >> K * r & slot) - half
                if c:
                    table[r][key] = sign * c
    return tuple(tables)


_w_cache = {}


def _prime_cutoff(k, digits, tol_f):
    log10_t = 12 + max(digits, -math.log10(tol_f))
    cut = max(50.0, _rho_inv(k) * 10 ** (log10_t / 15))
    if cut > HeadPrimes.MAX_PRIME:
        raise NonConvergenceError(
            "prime cutoff %.0f beyond the supported range; lower digits or tol"
            % cut,
            meta={"k": k, "digits": digits, "tol": tol_f},
        )
    return int(math.ceil(cut))


def _w_full(k, wmax, digits, tol=None):
    """All W values for keys of total weight <= wmax: (values, errors, meta),
    from the cached run of the largest weight at the same k, digits and
    tolerance, if one covers wmax."""
    tol_f = 10.0 ** (-digits) if tol is None else float(tol)
    top = max((cw for ck, cw, cd, ct in _w_cache
               if (ck, cd, ct) == (k, digits, tol_f)), default=-1)
    if top >= wmax:
        hit = _w_cache[(k, top, digits, tol_f)]
    else:
        hit = _w_engine(k, wmax, digits, tol_f)
        _w_cache[(k, wmax, digits, tol_f)] = hit
    keys = _plan(wmax).keys
    vals = {key: hit[0][key] for key in keys}
    errs = {key: hit[1][key] for key in keys}
    return vals, errs, dict(hit[2])


def _ratio_numerators(k, wmax):
    """{(mu, nu): (n, [N_0, ..., N_D], nd)} for the nonempty keys of weight
    <= wmax with mu <= nu: the numerator of z_{mu nu} (module docstring),
    the first D+1 terms of the pair's product row differenced D+1 times,
    and the key's norm denominator nd = _norm_den(mu) * _norm_den(nu)."""
    aseq = _a_seqs(k, wmax, 2 * k - 1 + wmax)
    out = {}
    for m, nu in _plan(wmax).keys[1:]:
        if m > nu:
            continue
        n = sum(m) + sum(nu)
        top = 2 * k - 2 + n
        z = [a * b for a, b in zip(aseq[m][: top + 1], aseq[nu])]
        for _ in range(top + 1):
            for u in range(top, 0, -1):
                z[u] -= z[u - 1]
        out[(m, nu)] = (n, z, _norm_den(m) * _norm_den(nu))
    return out


def _local_ratios(k, p, A, numer, B):
    """floor(2**B * X_{mu nu}(1/p) / nd) for every pair of numer (from
    _ratio_numerators), A = A_k(p): one Horner evaluation of Ntil(p) and
    one integer floor each, over p**(k-1) * A * (p-1)**n, formed once per n."""
    base, wmax = p ** (k - 1) * A, max(n for n, _, _ in numer.values())
    den = [base * (p - 1) ** n for n in range(wmax + 1)]
    out = {}
    for pair, (n, N, nd) in numer.items():
        t = 0
        for c in N:
            t = t * p + c
        out[pair] = (t << B) // (den[n] * nd)
    return out


def _head_growth(k, wmax, numer, top):
    """Bits g with 2**g above every G_n of _head_logs, n = 1..wmax, from
    the majorants at p = 2 and c = 1 + log(top); one bit covers the float
    rounding."""
    plan = _plan(wmax)
    K = [plan.starts[w + 1] - plan.starts[w] for w in range(wmax + 1)]
    X = [0.0] * (wmax + 1)
    for (m, nu), (n, N, nd) in numer.items():
        xbar = sum(abs(c) * 2.0 ** (n - i) for i, c in enumerate(N)) / nd
        X[n] += xbar if m == nu else 2 * xbar
    lam, E = [0.0] * (wmax + 1), [0.0] * (wmax + 1)
    c = 1 + math.log(top)
    G = 1.0
    for w in range(1, wmax + 1):
        lam[w] = X[w] + sum(j * lam[j] * X[w - j] for j in range(1, w)) / w
        E[w] = 2 * K[w] + sum(
            j * (E[j] * X[w - j] + lam[j] * K[w - j]) for j in range(1, w)
        ) / w
        G = max(G, (E[w] + 1 + 3 * w * (lam[w] + k * k)) * c ** w)
    return math.ceil(math.log2(G)) + 1


def _head_logs(k, wmax, primes):
    """The head primes' part of every key's W, {key: mpf} over _plan(wmax),
    each within 2**-(prec+10) of the exact sum; one integer pass per prime.

    The empty key takes the sum over the primes of log z_0(1/p) - k**2/p.
    Each z_0(1/p) = A_k(p) * p**k / (p-1)**(2k-1) is a ratio of integers
    (see the module docstring); their product is kept in B0-bit fixed point,
    T = floor(T * A_k(p) * p**k / (p-1)**(2k-1)) from T = 2**B0, and
    S = sum floor(k**2 * 2**B0 / p), so one log serves every prime.  Each
    z_0 > 1 keeps T >= 2**B0, so each floor moves log T by under 2**(1-B0),
    and each floor of S by under 2**-B0: with P primes the result is off by
    under 3P * 2**-B0 < 2**-(prec+10) for B0 = prec + bit_length(P) + 12.
    T only grows to about 2**B0 * exp(k**2 * sum 1/p), about 2**(B0+35) at
    k = 3 and p < 67,968, so it needs no rescaling.  The log and the
    subtraction run at B0 + 10 bits, and the value comes back at that
    precision; the caller's next sum rounds it.

    A key (mu, nu) of weight n >= 1 takes the sum over the primes of
    (-log p)**n * (lg_{mu nu} - [n1/p]): lg = log(1 + sum x) over the pair
    series, x_{mu nu} = X_{mu nu}(1/p) / nd the L-free ratios, and n1 =
    k**(2-len(mu)-len(nu)) / (mu_1! nu_1!) <= k**2 the leading 1/p part,
    removed only where both partitions have at most one part.  The log is
    graded by weight, so (-log p)**n leaves it and multiplies the result.
    In units u = 2**-B, per prime:
    - x > 0 (z_{mu nu} and z_0 are series of nonnegative terms), so
      S = floor(2**B x) (_local_ratios) has 0 <= x - S u < u.
    - _exp_log_fixed's error e, summed over the K_w keys of weight w, obeys
      E_w <= 2 K_w + sum_{0<j<w} (j/w) (E_j X_{w-j} + Lam_j K_{w-j}) units:
      each output has its S floor and its own floor, and the cross term
      (j lg~_a) S_b - (j lg_a) x_b is e_a S_b + lg_a (S_b - x_b).  X_j and
      Lam_j are the weight-j sums of x and of |lg|, and Lam_j is at most
      [t**j] -log(1 - sum_w X_w t**w): -log(1 - |X|) majorizes log(1 + X)
      coefficientwise, and setting every key of weight w to t**w only
      gathers nonnegative terms.
    - x <= xbar = sum_i |N_i| p**(n-i) / ((p-1)**n nd), since A_k(p) >=
      p**(k-1), and each term decreases in p; the recurrences are monotone
      in X, so X, Lam and E taken from xbar at p = 2 hold at every prime.
      They grow with the weight: at k = 3, Lam_9 is about 2**22 at p = 2
      and its bound from xbar about 2**33.  The Q-series of X has radius
      about 0.27 there, so no p = 2 majorant in Q converges; these are
      finite sums instead.
    - L = int_log(p, B) (the log table) is under 2 units off 2**B log p,
      so P_n = floor(P_{n-1} L / 2**B) is off from (log p)**n by under
      3n c**(n-1) units, c = 1 + log(max prime).
    - floor(n1 2**B / p) adds under one unit to lg - n1/p, whose size is at
      most Lam_n + k**2; the product with P_n is off by under G_n = (E_n + 1
      + 3n (Lam_n + k**2)) c**n units.
    The products are summed over the primes exactly, at scale 2**(2B), and
    floored once, so each key is off by under (P + 1) max G_n units, below
    2**(bit_length(P) + g - B) with 2**g >= G_n (_head_growth), and
    B = prec + bit_length(P) + g + 10 meets the target.  The values come
    back exactly, as B-bit fixed point; the caller's next sum rounds them.
    """
    plan = _plan(wmax)
    keys = plan.keys
    bits = mp.prec + len(primes).bit_length() + 10
    B0 = bits + 2
    T, S0 = 1 << B0, 0
    k2B = (k * k) << B0
    row = _gauss_square_poly(k)
    acc = [0] * len(keys)
    B = bits
    if wmax and primes:
        numer = _ratio_numerators(k, wmax)
        B += _head_growth(k, wmax, numer, primes[-1])
        where = {pair: (plan.index[pair], plan.index[pair[::-1]])
                 for pair in numer}
        ones = [
            (plan.index[(m, nu)], (k ** (2 - len(m) - len(nu))) << B,
             (math.factorial(m[0]) if m else 1)
             * (math.factorial(nu[0]) if nu else 1))
            for m, nu in keys[1:] if len(m) <= 1 and len(nu) <= 1
        ]
    for p in primes:
        A = 0
        for c in row:
            A = A * p + c
        T = T * A * p ** k // (p - 1) ** (2 * k - 1)
        S0 += k2B // p
        if not wmax:
            continue
        s = [1 << B] + [0] * (len(keys) - 1)
        for pair, v in _local_ratios(k, p, A, numer, B).items():
            i, j = where[pair]
            s[i] = s[j] = v
        lg = _exp_log_fixed(plan, s, B, True)
        for i, num, f in ones:
            lg[i] -= num // (f * p)
        L, power = int_log(p, B), 1 << B
        for n in range(1, wmax + 1):
            power = power * L >> B
            lo, hi = plan.starts[n], plan.starts[n + 1]
            acc[lo:hi] = [a + g * power for a, g in zip(acc[lo:hi], lg[lo:hi])]
    with mp.workprec(B0 + 10):
        out = {EMPTY_KEY: mp.log(mp.ldexp(T, -B0)) - mp.ldexp(S0, -B0)}
    for n in range(1, wmax + 1):
        sign = -1 if n % 2 else 1
        for i in range(plan.starts[n], plan.starts[n + 1]):
            out[keys[i]] = mp.make_mpf(from_man_exp(sign * (acc[i] >> B), -B))
    return out


def _v_chunk(k, wmax, R, digits):
    """_v_series to order R, digits + 10 + L, |V_r| < 10**L, and the tail's
    bits for it (_w_engine): a family at that many absolute digits is within
    2 * 10**-(digits+12+L), so the r <= 200 terms V_r * family move W by
    under 10**-(digits+9), below its floor."""
    v_tab, vb_tab = _v_series(k, wmax, R)
    top = max(int(abs(f)) for vr in v_tab for f in vr.values())
    fam_digits = digits + 10 + len(str(top))
    return v_tab, vb_tab, fam_digits, dps_to_prec(fam_digits) + 40


def _min_stop(wmax):
    """The first r at which the W tail of weight <= wmax may stop."""
    return max(8, wmax + 3)


def _below_tol(mag, v, tn, td, B):
    """mag < tn/td * (1 + |v|) for mag and v in units 2**-B, exactly."""
    return mag * td < tn * ((1 << B) + abs(v))


def _w_engine(k, wmax, digits, tol_f):
    """(values, errors, meta) of every key of weight <= wmax.

    The r-sum runs in units of 2**-B.  Each head value x is taken once to
    f = floor(2**B x) (to_fixed), under a unit off, and each family comes as
    integers (zeta_numerics.prime_zeta_fixed), under 2 units off; each term
    is floor(V.numerator * f / V.denominator), under 2 |V_r| + 1 units off
    2**B V_r x.  With 10 <= 10**L, |V_r| < 10**L, r <= 200 terms and the
    head leave a value under 200 (2 * 10**L + 1) + 1 < 2**9 10**L units off,
    and B = dps_to_prec(digits + 10 + L) + 40 > (digits + 10 + L) log2(10)
    + 42 (_v_chunk) makes that under 10**-(digits+19), far below the
    families' 10**-(digits+9).  The 32 bits beyond the 8 the values need
    resolve the last terms, whose magnitudes the closure's q and geo read,
    ten digits below the families' own accuracy, so the reported errors do
    not move with the scale.  A chunk that raises L shifts every stored
    integer left, exactly.  The closure runs in the same units, each part
    rounded up; mpf enters only in the final conversion, errors rounded up.
    """
    pcut = _prime_cutoff(k, digits, tol_f)
    keys = _plan(wmax).keys
    weight = {key: sum(key[0]) + sum(key[1]) for key in keys}
    tn, td = tol_f.as_integer_ratio()
    with mp.workdps(digits + 15):
        # the head primes, for the beyond-cutoff families at every r below
        head_primes = HeadPrimes.upto(pcut)
        # below the cutoff every key's local factor is an exact integer
        # ratio: one integer pass per head prime, the empty key's product
        # and the other keys' pair-series log, converted once at the end
        head = _head_logs(k, wmax, head_primes.primes)
        # exact V tables to order R = 16, then 4 orders at a time: the tail
        # rarely passes r = 16, and each table is built from scratch
        R = 16
        v_tab, vb_tab, fam_digits, B = _v_chunk(k, wmax, R, digits)
        vals = {key: to_fixed(v._mpf_, B) for key, v in head.items()}
        history = {key: deque(maxlen=3) for key in keys}
        gmax_hist = deque(maxlen=4)
        growth = deque(maxlen=3)
        vb_prev_max = None
        streak = 0
        min_stop = _min_stop(wmax)
        r = 0
        while True:
            r += 1
            if r > 200:
                raise NonConvergenceError(
                    "W tail not converged by r=200 at k=%d" % k,
                    meta={"prime_cutoff": pcut, "r_max_used": r - 1,
                          "digits": digits, "tol": tol_f},
                )
            if r > R:
                R += 4
                v_tab, vb_tab, fam_digits, B_new = _v_chunk(k, wmax, R, digits)
                # a larger L raises B: every stored integer moves up exactly
                s, B = B_new - B, B_new
                vals = {key: v << s for key, v in vals.items()}
                for h in (*history.values(), gmax_hist):
                    h.extend([h.popleft() << s for _ in range(len(h))])
            vr, vb = v_tab[r], vb_tab[r]
            # r = 1 takes the whole regularized family: _head_logs left out
            # every head prime's leading 1/p part; head sums stop at R
            fam = prime_zeta_fixed(r, wmax, head_primes, fam_digits, B, R)
            allsmall, tmax = True, 0
            for key, fv in vr.items():
                term = fv.numerator * fam[weight[key]] // fv.denominator
                v = vals[key] = vals[key] + term
                mag = abs(term)
                tmax = max(tmax, mag)
                history[key].append(mag)
                allsmall = allsmall and _below_tol(mag, v, tn, td, B)
            gmax_hist.append(tmax)
            streak = streak + 1 if allsmall else 0
            vb_max = max(vb.values(), default=0)
            if vb_prev_max:
                growth.append(float(vb_max / vb_prev_max))
            vb_prev_max = vb_max
            if r < min_stop or streak < 3:
                continue
            # the reported error closes the tail: a geometric estimate from
            # the last increments, plus the certified envelope, in which the
            # beyond-cutoff prime families shrink at least by 1/pcut per step
            # in r and the V majorant grows by a measured factor; units 2**-B
            g = list(gmax_hist)
            rats = [b / a for a, b in zip(g, g[1:]) if a > 0]
            qn, qd = (min(0.9, max(1e-6, *rats)) if rats else 0.5).as_integer_ratio()
            ch = Fraction(max([2.0, *growth]))
            env_w = [math.ceil(Fraction(3 * man, 2) * Fraction(2) ** (e + B)
                               * ch / (pcut - ch)) for _, man, e, _ in
                     (envelope_bound(r, n, pcut)._mpf_ for n in range(wmax + 1))]
            errs, pad = {}, 10 ** (digits + 6)
            for key in keys:
                v, fb = vals[key], vb.get(key)
                err = -(-3 * qn * max(history[key], default=0)
                        // (2 * (qd - qn)))
                if fb:
                    err -= -fb.numerator * env_w[weight[key]] // fb.denominator
                if not _below_tol(err, v, tn, td, B):
                    break
                errs[key] = err - (-((1 << B) + abs(v)) // pad)
            else:
                break
        meta = {"r_max_used": r, "prime_cutoff": pcut, "digits": digits,
                "tol": tol_f}
    with mp.workdps(digits + 8):
        vals = {key: mp.ldexp(v, -B) for key, v in vals.items()}
        errs = {key: mp.make_mpf(from_man_exp(v, -B, mp.prec, "u"))
                for key, v in errs.items()}
    return vals, errs, meta


def _check_request(k, digits, tol, k_min=1):
    """The input contract shared by the public entry points.

    k is an integer of at least k_min, digits a positive integer and tol
    either None or a finite positive number; booleans count as neither.
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < k_min:
        raise ValueError(
            "k must be a %s integer" % ("positive" if k_min else "nonnegative")
        )
    if isinstance(digits, bool) or not isinstance(digits, int) or digits < 1:
        raise ValueError("digits must be a positive integer")
    if tol is not None and (
        isinstance(tol, bool)
        or not isinstance(tol, (int, float))
        or not math.isfinite(tol)
        or tol <= 0
    ):
        raise ValueError("tol must be None or a finite positive number")


def W_coeff(mu, nu, k, digits=50, tol=None):
    """One W value with its error estimate.

    The tail sum over r stops at the first index past the floor where three
    consecutive increments stay below tolerance and, for every key, the
    tail part of the reported error (the geometric estimate from the last
    increments plus the certified prime envelope on the V majorant) stays
    below tol * (1 + |value|); the reported error adds the precision floor.
    A hard cap at r=200 raises NonConvergenceError carrying the truncation
    parameters.  The table of the largest weight the process already built
    at the same digits and tolerance answers instead of a new run, if it
    covers the key, so the value and its error depend on the call history.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    _check_request(k, digits, tol)
    vals, errs, _ = _w_full(k, sum(mu) + sum(nu), digits, tol)
    return ValueWithError(vals[(mu, nu)], errs[(mu, nu)])


def _exp_w(k, n_max, digits, tol):
    """((exp W_empty, its error, e, ee, C), meta), meta the W engine's: e =
    exp of the nonempty W to weight n_max and ee = sum |e_a| ceil(err W_b) its
    first-order error, power-sum {key: int} in units 2**-C and 2**-2C.
    a = mp.exp(w) is within d/2 = 2**(1 - prec) of exp(w) relative, so for
    W_empty within err of w, |exp(W_empty) - a| <= exp(w) (expm1(err) + d/2)
    <= a (1 + d) (err E + d), E = mp.exp(err) (1 + d) >= exp(err), rounded
    up: a bound for every err, the rounding of a included.  e is
    _exp_log_fixed of L = floor(2**C W), whose bound D_w (floats, each |L|
    raised by 10**-(digits+10)) sets C = (digits+10) log2 10 + log2 max D + 2
    (2 bits for the floats): e is within 10**-(digits+10) of exp L, L within
    2**-C of W, four digits under each W error's pad 10**-(digits+6).  W and
    its errors are exactly symmetric (tested): ee sums one key per mirror pair."""
    vals, werr, meta = _w_full(k, n_max, digits, tol)
    plan = _plan(n_max)
    keys, starts, twin = plan.keys, plan.starts, plan.twin
    lam, D = [0.0] * (n_max + 1), [1.0]
    for (m, nu), v in vals.items():
        lam[sum(m) + sum(nu)] += abs(float(v)) + 10.0 ** -(digits + 10)
    for w in range(1, n_max + 1):
        D.append(starts[w + 1] - starts[w]
                 + sum(j * lam[j] * D[w - j] for j in range(1, w)) / w)
    C = math.ceil((digits + 10) * math.log2(10) + math.log2(max(D))) + 2
    L = [0] + [to_fixed(vals[key]._mpf_, C) for key in keys[1:]]
    err = [0] + [-to_fixed(mpf_neg(werr[key]._mpf_), C) for key in keys[1:]]
    e = _exp_log_fixed(plan, L, C, False)
    ae, ee = list(map(abs, e)), [0] * len(keys)
    for triples in (t for row in plan.products for t in row):
        _accumulate_halved(triples, ae, err, ee, twin)
    ee = [ee[min(i, t)] for i, t in enumerate(twin)]
    with mp.workdps(digits + 12):
        aval = mp.exp(vals[EMPTY_KEY])
        e0, d = werr[EMPTY_KEY]._mpf_, from_man_exp(1, 2 - mp.prec)
        E = mpf_mul(mpf_exp(e0, mp.prec), mpf_add(fone, d))
        a_err = mpf_mul(mpf_mul(aval._mpf_, mpf_add(fone, d)),
                        mpf_add(mpf_mul(e0, E), d), mp.prec, "u")
        return (aval, mp.make_mpf(a_err), dict(zip(keys, e)),
                dict(zip(keys, ee)), C), meta


def d_table(k, n_max, digits=50, tol=None):
    """Schur-basis coefficients of the exponentiated W series, with errors.

    Exponentiates the powersum-basis W series to total weight n_max, converts
    both slots to the Schur basis, and scales everything by the zeroth
    exponential factor.  Error bounds are first order: the magnitude series
    of the exponential convolved with the W error bounds, pushed through the
    same basis change with absolute character values.  With complement
    dimensions it is the oracle route to c_N; the engine uses _assemble's.
    """
    _check_request(k, digits, tol)
    _check_index(n_max, "n_max")
    if n_max > k * k:
        raise ValueError("n_max cannot exceed k**2")
    (aval, a_err, e, ee, C), _ = _exp_w(k, n_max, digits, tol)
    with mp.workdps(digits + 12):
        eser, eerr = (PairSeries(POWERSUM, n_max, {key: mp.ldexp(v, -s) for
                                                   key, v in d.items()})
                      for d, s in ((e, C), (ee, 2 * C)))
        sser = p_to_schur(eser)
        derrs = _switch_basis(
            eerr, POWERSUM, SCHUR,
            lambda n: {key: abs(v) for key, v in character_table(n).items()},
        )
        out = {}
        for kap, lam in _plan(n_max).keys:
            sval = sser.get(kap, lam)
            out[(kap, lam)] = ValueWithError(
                +(aval * sval), +(aval * derrs.get(kap, lam) + abs(sval) * a_err)
            )
    return out


def g_factor(k):
    """Number of standard fillings of the k by k square, exactly."""
    _check_index(k, "k")
    return dim_hook((k,) * k)


def a_factor(k, digits=50):
    """The arithmetic Euler product over all primes, to the digit request.

    Local factors are evaluated outright up to a cutoff; the log of the
    remaining product is a series in beyond-cutoff prime power sums whose
    terms shrink geometrically, summed until two consecutive terms fall
    below the target.  Each family runs at digits + 8 + L absolute digits,
    |b_r| < 10**L, so the terms move the log by under 10**-(digits+8).
    """
    _check_request(k, digits, None, k_min=0)
    if k == 0:
        return mp.mpf(1)
    cutoff = max(800, 4 * _rho_inv(k))
    with mp.workdps(digits + 15):
        head = HeadPrimes.upto(cutoff)
        e2 = (k - 1) ** 2
        pol = _gauss_square_poly(k)
        acc = mp.mpf(0)
        for p in head.primes:
            q = mp.mpf(1) / p
            loc = mp.mpf(0)
            for j in range(len(pol) - 1, -1, -1):
                loc = loc * q + pol[j]
            acc += e2 * mp.log(1 - q) + mp.log(loc)
        thresh = mp.mpf(10) ** (-(digits + 8))
        small = 0
        r = 1
        while small < 2:
            r += 1
            if r > 400:
                raise NonConvergenceError(
                    "Euler product tail not closed by r=400", meta={"k": k}
                )
            br = _b_series(k, r)[r] - Fraction(k * k, r)
            fam_digits = digits + 8 + len(str(abs(br.numerator) // br.denominator))
            tail0 = prime_zeta_beyond(r, 0, head, fam_digits)[0]
            term = mp.mpf(br.numerator) / br.denominator * tail0
            acc += term
            small = small + 1 if abs(term) < thresh * max(1, abs(acc)) else 0
        out = mp.exp(acc)
    with mp.workdps(digits + 5):
        return +out


def _assemble(N, k, digits, expw):
    """c_N = exp(W_empty) / (k**2 - N)! * sum e D_k over the weight-N pairs,
    from _exp_w's output and power_dim_table, with the first-order error
    (exp(W_empty) sum |D_k| ee + |sum e D_k| err(exp W_empty)) / (k**2 - N)!,
    in exact arithmetic never above d_table's: exact integer sums, the rest
    rounded up."""
    aval, a_err, e, ee, C = expw
    dot = bar = 0
    for key, dv in power_dim_table(k, N).items():
        dot += e[key] * dv
        bar += ee[key] * abs(dv)
    prec, fct = dps_to_prec(digits + 10), from_int(math.factorial(k * k - N))
    err = mpf_add(mpf_mul(aval._mpf_, from_man_exp(bar, -2 * C), prec, "u"),
                  mpf_mul(a_err._mpf_, from_man_exp(abs(dot), -C), prec, "u"),
                  prec, "u")
    value = mpf_div(mpf_mul(aval._mpf_, from_man_exp(dot, -C)), fct, prec, "n")
    return ValueWithError(mp.make_mpf(value), mp.make_mpf(mpf_div(err, fct, prec, "u")))


def c_coeff(N, k, digits=50, tol=None):
    """Coefficient c_N(k): the weight-N power-sum coefficients of exp(W)
    against the exact table D_k (_assemble), divided by (k**2 - N)!.

    N beyond k**2 is the degenerate regime where the assembly is empty; the
    value is exactly zero and a warning notes it.  The W table of the
    largest weight the process already built at the same digits and
    tolerance serves the request, if it reaches weight N, so value and error
    depend on the call history: c_0(3) at 15 digits reports an error of
    2.6e-23 fresh, 3.1e-25 after c_2 and 2.6e-26 after c_4, whether or not
    c_2 ran before c_4, each value within its own error.
    """
    _check_index(N, "N")
    _check_request(k, digits, tol, k_min=0)
    if N > k * k:
        warnings.warn(
            "c_%d at k=%d lies beyond degree k**2; empty assembly, exact 0"
            % (N, k)
        )
        return ValueWithError(mp.mpf(0), mp.mpf(0))
    if k == 0:
        return ValueWithError(mp.mpf(1), mp.mpf(0))
    return _assemble(N, k, digits, _exp_w(k, N, digits, tol)[0])


def moment_polynomial(k, digits=50, tol=None):
    """Every coefficient of the degree-k**2 moment polynomial at once.

    One shared W engine run and one shared exponential cover all N; the
    k = 0 polynomial is the empty-product constant 1.
    """
    _check_request(k, digits, tol, k_min=0)
    if k == 0:
        meta = {"r_max_used": 0, "prime_cutoff": 0, "tol": None,
                "cache_versions": {"zetamoments": __version__}}
        return MomentPolynomial(0, digits, ((0, mp.mpf(1), mp.mpf(0)),), meta)
    expw, wmeta = _exp_w(k, k * k, digits, tol)
    triples = tuple((N, *_assemble(N, k, digits, expw))
                    for N in range(k * k + 1))
    meta = {key: wmeta.get(key) for key in ("r_max_used", "prime_cutoff", "tol")}
    meta["cache_versions"] = {"zetamoments": __version__}
    return MomentPolynomial(k, digits, triples, meta)
