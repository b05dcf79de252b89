"""Moment polynomial pipeline: exact tables feeding big-real coefficients.

The chain: the local Euler factor, expanded over pairs of partitions, gives
one ratio series X_{mu nu}(Q) in Q = 1/p per key; at an integer k the V
values are the Q**r coefficients of the pair-series logarithm of 1 + X,
integers (but at the empty key) read off the head's packed log by one
integer series product per key (_v_series, and the closed form below); V
combines with prime power sums into the W coefficients;
the exponential e of the W series, power-sum basis, C-bit integers, dotted
exactly with the integer table D_k (characters.power_dim_pairs: complement
skew dimensions, by determinant, seen through characters) gives each c_N(k)
of the degree-k**2 moment polynomial for the 2k-th moment of zeta on the
critical line in one mpf conversion; the d-table is the oracle.  The same V, as
polynomials in k, come from contracting the rational f-table (the logarithm
of an exact pair series) against monomial symmetric evaluations; that route
is the paper's exact object and the oracle the engine is checked against
(oracles.V_poly).

The naive r-sum defining W diverges for k >= 3 because the V side outgrows
the decay of the prime family.  The engine therefore splits: each prime's
whole local log is accumulated over the primes up to a cutoff, and the
r-sum is restarted on the primes beyond the cutoff only, where it converges
geometrically; that sum, V_r times a family per key, and its stop test run
in B-bit integers (_w_engine).  At every order r, r = 1 (the regularized
family) included, the family is the Moebius-inverted prime-zeta family
(zeta_numerics.prime_zeta_taylor) less the head primes' power sums, in the
same integers (zeta_numerics.prime_zeta_fixed); the families of a V chunk
share one absolute accuracy (_v_chunk), their log zeta values and one pass
of the integer power-sum kernel over the head primes and the orders the
chunk adds (zeta_numerics.head_power_sums), on the one list of head primes
the request sieves.  Below the cutoff every key's local factor is an exact
rational function of p (see below): the empty key's part is one product
over the primes and a single log, the other keys' logs integer polynomials
in p from one packed log per request (_head_polys), dotted with power
moments of the primes (_head_logs) and expanded in 1/p for V (_v_series).
The cutoff comes from the digit and tolerance request; tail estimates
combine a certified envelope on the beyond-cutoff prime sums with the
measured decay of the last few increments.

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

V from the head.  In Q = 1/p the weight-n log n! lg = Lhat(p) / D(p)**n
(_head_logs) is Lhatrev(Q) / Drev(Q)**n, Lhatrev the coefficients of Lhat
reversed against degree (2k-1) n and Drev(Q) = Q**(2k-1) D(1/Q) = Atil(Q)
(1 - Q), Atil(Q) = sum_j C(k-1, j)**2 Q**j.  Drev has constant term 1, so
1/Drev**n has integer coefficients and V_r, r <= R, reads Lhatrev only to
Q**R: the top R + 1 slots of Lhat (_v_series).
"""

import math
import warnings
from collections import deque
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from mpmath import mp
from mpmath.libmp import (dps_to_prec, fone, from_int, from_man_exp, mpf_add,
                          mpf_div, mpf_exp, mpf_mul, mpf_neg, to_fixed)

from . import __version__
from .characters import character_table, power_dim_pairs
from .partitions import check_partition, dim_hook, partitions_of
from .symseries import (
    EMPTY_KEY,
    POWERSUM,
    SCHUR,
    PairSeries,
    _accumulate,
    _exp_fixed,
    _log_l1,
    _low_product,
    _pack,
    _packed_log,
    _plan,
    _switch_basis,
    _unpack,
    p_to_schur,
)
from .zeta_numerics import (
    MAX_HEAD_PRIME,
    MAX_WEIGHT,
    _check_index,
    envelope_bound,
    head_power_sums,
    int_log,
    prime_zeta_fixed,
    prime_zeta_taylor,
    primes_upto,
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
    """Growth proxy for the local log coefficients, used to place cutoffs:
    V_r and its family at cutoff P move the tail by about (rho/P)**r, so a
    table of R orders reaches 10**-t at P = rho * 10**(t/(R-1))
    (_prime_cutoff, _truncation); a_factor's cutoff is max(800, 4 rho)."""
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
    out = {(): [math.comb(u + k - 1, k - 1) for u in range(U + 1)]}
    for m in sorted({m for a in range(1, wmax + 1) for m in partitions_of(a)},
                    key=lambda m: (len(m), m)):
        wt = [0] + [u ** (m[-1] - 1) for u in range(1, U + 1)]
        out[m] = _low_product(out[m[:-1]], wt, U)
    return out


def _v_series(k, wmax, R, head):
    """Exact V_r at integer k and termwise bounds on them, for r = 1..R.

    V_r for the key (mu, nu) of weight n is n! [Q**r] log(1 + X) over the
    pair series, X_{mu nu} = z_{mu nu} / (z_0 nd), nd = _norm_den(mu) *
    _norm_den(nu); log(1 - |X|) gives a coefficientwise majorant M.  The
    empty key is the scalar local log.  Returns two lists indexed by r of
    {key: value}, zeros omitted.

    V = Lhatrev / Drev**n, Drev = Atil (1 - Q) (module docstring), takes
    the top R + 1 slots of head = _head_polys(k, wmax)'s Lhat: the Q**<=R
    terms of a product read only those of its factors.  M is _packed_log's
    of -|S|, S = n! X = (n!/nd) N / (Atil (1 - Q)**n), cut to Q**R, each
    Q-series one int at 2**K, K from _log_l1's bound per power of Q.
    """
    K, L, _, numer = head
    plan, row = _plan(wmax), _gauss_square_poly(k)
    drev = [a - b for a, b in zip(row + (0,), (0,) + row)]
    inv = [1] + [0] * R
    for u in range(1, R + 1):
        inv[u] = -sum(drev[i] * inv[u - i] for i in range(1, min(u, k) + 1))
    # per weight 1/Drev**n, and 1/(Atil (1 - Q)**n) by prefix sums
    rinv, ginv = [None, inv], [None, inv]
    for n in range(2, wmax + 1):
        rinv.append(_low_product(rinv[-1], inv, R))
        ginv.append(list(accumulate(ginv[-1])))
    # V and S are symmetric in the two slots: mirror keys come once
    V, S, T = [None], [None], [[0] * (R + 1) for _ in range(wmax + 1)]
    for i, (m, nu) in enumerate(plan.keys[1:], 1):
        n, N, nd = numer[min((m, nu), (nu, m))]
        if plan.twin[i] < i:
            V.append(V[plan.twin[i]])
            S.append(S[plan.twin[i]])
        else:
            lo = max(0, (2 * k - 1) * n - R)
            high = _unpack(L[i] >> K * lo, K, (2 * k - 1) * n - lo + 1)
            V.append(_low_product(high[::-1], rinv[n], R))
            f = math.factorial(n) // nd
            S.append([f * c for c in _low_product(N, ginv[n], R)])
        T[n] = [t + abs(c) for t, c in zip(T[n], S[i])]
    lam = list(T)
    for n in range(2, wmax + 1):
        for j in range(1, n):
            c = math.comb(n - 1, j - 1)
            lam[n] = [t + c * x for t, x in
                      zip(lam[n], _low_product(lam[j], T[n - j], R))]
    Km = max(map(max, lam)).bit_length() + 1
    P = [0] + [_pack([-abs(c) for c in s], Km) for s in S[1:]]
    M = [None] + [[-c for c in _unpack(v, Km, R + 1)]
                  for v in _packed_log(plan, P, Km, R + 1)[1:]]
    tables = []
    for b0, rows in ((_b_series(k, R), V), (_b_series(k, R, True), M)):
        tables.append([{EMPTY_KEY: b0[r]} if b0[r] else {} for r in range(R + 1)])
        for key, cs in zip(plan.keys[1:], rows[1:]):
            for r, c in enumerate(cs[1:], 1):
                if c:
                    tables[-1][r][key] = c
    return tuple(tables)


_w_cache = {}


def _prime_cutoff(k, digits, tol_f):
    """The cutoff of a 16-order V table, every weight >= 1 request's:
    max(50, rho(k) * 10**(t/15)), t = 12 + max(digits, -log10 tol).  It
    passes MAX_HEAD_PRIME, a NonConvergenceError, from k = 11 at 15
    digits and from 79 digits at k = 2.  Weight 0 trades head primes for
    orders instead (_truncation), which moves those walls to k = 12 at 15
    digits and to 151 digits at k = 2."""
    cut = max(50.0, _order_cut(_rho_inv(k), _target(digits, tol_f), 16))
    return _checked_cutoff(cut, k, digits, tol_f)


def _target(digits, tol_f):
    """t = 12 + max(digits, -log10 tol), the tail's target 10**-t.  From 324
    digits on the default tol, 10.0**-digits, underflows to 0.0; t is then
    12 + digits, whose cutoff passes MAX_HEAD_PRIME at every k and weight,
    so such a request is refused before any sieve or V table."""
    return 12 + (max(digits, -math.log10(tol_f)) if tol_f else digits)


def _order_cut(rho, t, orders):
    """rho * 10**(t/(orders - 1)), where a V table of that many orders
    reaches the target 10**-t (_rho_inv); inf once its log10 reaches 300,
    far past MAX_HEAD_PRIME, before the power or, from k = 518 on, the int
    rho itself leaves the float range."""
    x = t / (orders - 1)
    return rho * 10 ** x if math.log10(rho) + x < 300 else math.inf


def _checked_cutoff(cut, k, digits, tol_f):
    if cut > MAX_HEAD_PRIME:
        raise NonConvergenceError(
            "prime cutoff %.0f beyond the supported range; lower digits or tol"
            % cut,
            meta={"k": k, "digits": digits, "tol": tol_f},
        )
    return int(math.ceil(cut))


def _truncation(k, wmax, digits, tol_f):
    """(pcut, R): the prime cutoff and the order of the first V table.

    A table of R_w orders reaches the tail target 10**-t at rho * 10**(t/(R_w
    - 1)) (_rho_inv).  R_w is 16 at weight >= 1, where V tables and head
    logs are costly, which gives _prime_cutoff's value; at weight 0 the V
    table is the scalar _b_series and a tail order costs one family and one
    head-power row per head prime, so R_w = 28 there, never below
    a_factor's max(800, 4 rho) nor above _prime_cutoff's.  R is the least
    multiple of 4 from 16 that reaches t at pcut and the first order the
    tail may stop at (_min_stop), so weights from 14 on build one table to
    20 rather than a 16-order one the stop rule cannot use; the engine adds
    4 orders at a time if the tail has not closed by then.  A weight past
    MAX_WEIGHT is refused, after the cutoff's own refusals.
    """
    log10_t, rho = _target(digits, tol_f), _rho_inv(k)
    cut = min(max(50.0, _order_cut(rho, log10_t, 16)),
              max(800, 4 * rho, _order_cut(rho, log10_t, 16 if wmax else 28)))
    pcut, R = _checked_cutoff(cut, k, digits, tol_f), 16
    if wmax > MAX_WEIGHT:
        raise NonConvergenceError(
            "weight %d beyond the supported MAX_WEIGHT = %d" % (wmax, MAX_WEIGHT),
            meta={"k": k, "weight": wmax, "digits": digits, "tol": tol_f},
        )
    while (R - 1) * math.log10(pcut / rho) < log10_t or R < _min_stop(wmax):
        R += 4
    return pcut, R


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


def _head_polys(k, wmax):
    """(K, Lhat, Lam, numer) for _head_logs and _v_series: Lhat over
    _plan(wmax).keys, the _packed_log of Shat at 2**K to (2k-1) wmax + 1
    slots, K from the l1 norms of Shat, Lam the _log_l1 bound from the sums
    of n! xbar, and numer _ratio_numerators(k, wmax)."""
    plan, numer, row = _plan(wmax), _ratio_numerators(k, wmax), _gauss_square_poly(k)
    t1, t2, P = [0] * (wmax + 1), [0] * (wmax + 1), [0]
    for m, nu in plan.keys[1:]:
        n, N, nd = numer[min((m, nu), (nu, m))]
        f = math.factorial(n) // nd
        t1[n] += f * sum(map(abs, N)) * sum(row) ** (n - 1)
        t2[n] += Fraction(f * _pack(map(abs, N[::-1]), 1), 4 ** (k - 1))
    K = max(_log_l1(t1)).bit_length() + 1
    d = [_pack((0,) * (k - 1) + row, K) ** j for j in range(wmax)]
    for i, (m, nu) in enumerate(plan.keys[1:], 1):
        n, N, nd = numer[min((m, nu), (nu, m))]
        P.append(P[plan.twin[i]] if plan.twin[i] < i else
                 math.factorial(n) // nd * _pack(N[::-1], K) * d[n - 1])
    return K, _packed_log(plan, P, K, (2 * k - 1) * wmax + 1), _log_l1(t2), numer


def _head_logs(k, wmax, primes, head):
    """The head primes' part of every key's W, {key: mpf} over _plan(wmax),
    each within 2**-(prec+10) of the exact sum, P primes; one integer pass
    per prime, head _head_polys(k, wmax).

    Every head prime's whole local log is kept: the tail subtracts the
    head primes' power sums at every order r, r = 1 as well (_v_chunk).

    The empty key takes sum_p log z_0(1/p), z_0(1/p) = A_k(p) p**k /
    (p-1)**(2k-1) (module docstring), as one log of the product T =
    floor(T A_k(p) p**k / (p-1)**(2k-1)) from T = 2**B0.  z_0 > 1 keeps T
    >= 2**B0, so each floor moves log T by under 2**(1-B0): under 2P
    2**-B0 < 2**-(prec+10) in all for B0 = prec + bit_length(P) + 12.  T
    grows to about 2**B0 exp(k**2 sum 1/p), 2**(B0+35) at k = 3 and p <
    67,968, with no rescaling; the log runs at B0 + 10 bits.

    A key (mu, nu) of weight n >= 1 takes the sum over the primes of
    (-log p)**n lg, lg = lg_{mu nu} = log(1 + sum x) over the pair series,
    x_{mu nu} = X_{mu nu}(1/p) / nd.  With d = p**(k-1) A_k(p) and D = d
    (p-1), n! x = Shat(p) / D**n, Shat = (n!/nd) Ntil d**(n-1) (module
    docstring), and as the log is graded, n! lg = Lhat(p) / D**n, Lhat the
    packed log of Shat (_head_polys); both have degree at most (2k-1) n.
    So with F_n = (log p)**n / (n! p D**n) and M_{n,i} = sum_p p**(i+1)
    F_n, the sum is (-1)**n sum_i Lhat_i M_{n,i}.  In units u = 2**-B,
    with c = 1 + log(max prime):
    - P_n = floor(P_{n-1} L / 2**B), L = int_log(p, B) under 2 units off,
      is under 3n c**(n-1) units off 2**B (log p)**n, so F_n, kept as
      floor(2**(S_n - B) P_n / (n! p D**n)) in units 2**-S_n, moves the sum
      by under 3n c**(n-1) |lg| u, and its floor by n! p D**n |lg| 2**-S_n.
    - |lg| <= G_n = Lam_n / n!, Lam_n the _log_l1 bound from the weight-n
      sums of n! xbar, xbar = sum_i |N_i| 2**(n-i) / nd >= x at every
      prime (A_k(p) >= p**(k-1), each term decreases in p, and -log(1 -
      |X|) majorizes log(1 + X)); D grows with p, so S_n = B + bit_length(
      P n! pmax D(pmax)**n G_n) keeps the floors under a unit in all.
    - The dot products are exact, each floored once to B bits.
    So a key is off by under (3n c**(n-1) G_n P + 2) u < 2**(g +
    bit_length(P)) u for 2**(g-1) > 3n c**(n-1) G_n, and B = prec +
    bit_length(P) + g + 10 meets the target.  Every value comes back
    exactly; the caller's next sum rounds it.
    """
    plan = _plan(wmax)
    keys, starts, twin = plan.keys, plan.starts, plan.twin
    bits = mp.prec + len(primes).bit_length() + 10
    B0 = bits + 2
    T = 1 << B0
    row = _gauss_square_poly(k)
    if wmax:
        K, L, lam, _ = head
        G = [math.ceil(v / math.factorial(n)) for n, v in enumerate(lam)]
        top = primes[-1] if primes else 2
        lc = math.log2(1 + math.log(top))
        B = bits + 2 + max(math.ceil(math.log2(3 * n * G[n]) + (n - 1) * lc)
                           for n in range(1, wmax + 1))
        Dtop = top ** (k - 1) * (top - 1) * sum(a * top ** j for j, a in enumerate(row))
        S = [B + (len(primes) * math.factorial(n) * top * Dtop ** n * G[n])
             .bit_length() for n in range(wmax + 1)]
        M = [[0] * ((2 * k - 1) * n + 1) for n in range(wmax + 1)]
    for p in primes:
        A = 0
        for c in row:
            A = A * p + c
        T = T * A * p ** k // (p - 1) ** (2 * k - 1)
        if not wmax:
            continue
        Dp, den, lp, power = p ** (k - 1) * A * (p - 1), p, int_log(p, B), 1 << B
        for n in range(1, wmax + 1):
            power = power * lp >> B
            den *= n * Dp
            F = (power << S[n] - B) // den
            Mn = M[n]
            for i in range(len(Mn)):
                F *= p
                Mn[i] += F
    with mp.workprec(B0 + 10):
        out = {EMPTY_KEY: mp.log(mp.ldexp(T, -B0))}
    for n in range(1, wmax + 1):
        for i in range(starts[n], starts[n + 1]):
            if twin[i] < i:
                out[keys[i]] = out[keys[twin[i]]]
                continue
            acc = sum(map(mul, _unpack(L[i], K, len(M[n])), M[n]))
            out[keys[i]] = mp.make_mpf(from_man_exp((-1) ** n * (acc >> S[n] - B), -B))
    return out


def _v_chunk(k, wmax, r0, R, digits, primes, head):
    """_v_series to order R, the families' digits digits + 3 + L, where
    |V_r| < 10**L, the tail's bits B = dps_to_prec(digits + 10 + L) + 40
    (_w_engine), and (Bh, rows), the head primes' power sums at the orders
    r0..R the chunk adds, rows[r - r0], from one head_power_sums pass at
    the families' digits, each head prime a column of the power-sum kernel;
    every order, r = 1 too, reads its family less them, as _head_logs keeps
    each head prime's whole local log.  A family at D absolute digits is within 4.01 *
    10**-(D+10) (prime_zeta_taylor) and its head row within 10**-(D+13), so
    at D = digits + 3 + L under 2 * 10**-(digits+12+L), and the r <= 200
    terms V_r * family move W by under 4 * 10**-(digits+10), inside the
    10**-(digits+9) _w_engine budgets for the families.  B is stated apart
    from the families' digits: a chunk that raises L raises both."""
    v_tab, vb_tab = _v_series(k, wmax, R, head)
    L = len(str(max(int(abs(f)) for vr in v_tab for f in vr.values())))
    fam_digits = digits + 3 + L
    return (v_tab, vb_tab, fam_digits, dps_to_prec(digits + 10 + L) + 40,
            head_power_sums(primes, r0, R, wmax, fam_digits))


def _min_stop(wmax):
    """The first r at which the W tail of weight <= wmax may stop."""
    return max(8, wmax + 3)


def _work_digits(digits, tol):
    """max(digits, ceil(-log10 tol)), the digits a request works at; tol
    None stands for 10**-digits."""
    small = tol is not None and tol < 10.0 ** -digits
    return math.ceil(-math.log10(tol)) if small else digits


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
    families' own share: each family, asked at digits + 3 + L digits, is
    within 2 * 10**-(digits+12+L), which moves W by under 10**-(digits+9)
    (_v_chunk), and both sit under the pad 10**-(digits+6) every error
    carries.  B is set by digits + 10 + L, not by the family digits: the 32
    bits beyond the 8 the values need resolve the last terms, whose
    magnitudes the closure's q and geo read, so the reported errors move
    neither with the scale nor with the families' accuracy.  A chunk that
    raises L raises the family digits and B and shifts every stored integer
    left, exactly.  The closure runs in the same units, each part
    rounded up; mpf enters only in the final conversion, errors rounded up.
    A tol below 10**-digits raises these digits to ceil(-log10 tol) with the
    tail's target (_work_digits), or the tail would chase the families'
    accuracy floor.
    """
    pcut, R = _truncation(k, wmax, digits, tol_f)
    asked, digits = digits, _work_digits(digits, tol_f)
    keys = _plan(wmax).keys
    weight = {key: sum(key[0]) + sum(key[1]) for key in keys}
    tn, td = tol_f.as_integer_ratio()
    with mp.workdps(digits + 15):
        # the head primes, for the logs below and the families' head rows
        primes = primes_upto(pcut)
        # below the cutoff every key's local factor is an exact integer
        # ratio: one integer pass per head prime, the empty key's product
        # and the other keys' pair-series log, converted once at the end
        polys = _head_polys(k, wmax)
        head = _head_logs(k, wmax, primes, polys)
        # exact V tables to _truncation's order R, then 4 orders at a time:
        # the tail rarely passes R, and each expands the same head logs
        r0 = 1
        v_tab, vb_tab, fam_digits, B, (Bh, rows) = _v_chunk(
            k, wmax, r0, R, digits, primes, polys)
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
                          "digits": asked, "tol": tol_f},
                )
            if r > R:
                # the old tables go first: with the head logs held, the
                # next chunk's build sets the request's peak memory
                r0, R, v_tab, vb_tab = r, R + 4, None, None
                v_tab, vb_tab, fam_digits, B_new, (Bh, rows) = _v_chunk(
                    k, wmax, r0, R, digits, primes, polys)
                # a larger L raises B: every stored integer moves up exactly
                s, B = B_new - B, B_new
                vals = {key: v << s for key, v in vals.items()}
                for h in (*history.values(), gmax_hist):
                    h.extend([h.popleft() << s for _ in range(len(h))])
            vr, vb = v_tab[r], vb_tab[r]
            fam = prime_zeta_fixed(prime_zeta_taylor(r, wmax, fam_digits).coeffs,
                                   wmax, B, rows[r - r0], Bh)
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
        meta = {"r_max_used": r, "prime_cutoff": pcut, "digits": asked,
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
    _exp_fixed of L = floor(2**C W), whose bound D_w (floats, each |L|
    raised by 10**-(digits+10)) sets C = (digits+10) log2 10 + log2 max D + 2
    (2 bits for the floats): e is within 10**-(digits+10) of exp L, L within
    2**-C of W, four digits under each W error's pad 10**-(digits+6), digits
    the W engine's own (_work_digits).  W and its errors are exactly
    symmetric (tested): ee sums one key per mirror pair."""
    vals, werr, meta = _w_full(k, n_max, digits, tol)
    digits = _work_digits(digits, tol)
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
    e = _exp_fixed(plan, L, C)
    ae, ee = list(map(abs, e)), [0] * len(keys)
    for triples in (t for row in plan.products for t in row):
        _accumulate(triples, ae, err, ee)
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
    same basis change with absolute character values, scaled by the bound
    aval + a_err on the zeroth factor (as _assemble's).  With complement
    dimensions it is the oracle route to c_N; the engine uses _assemble's.
    """
    _check_request(k, digits, tol)
    _check_index(n_max, "n_max")
    if n_max > k * k:
        raise ValueError("n_max cannot exceed k**2")
    (aval, a_err, e, ee, C), _ = _exp_w(k, n_max, digits, tol)
    with mp.workdps(_work_digits(digits, tol) + 12):
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
            out[(kap, lam)] = ValueWithError(+(aval * sval), +(
                (aval + a_err) * derrs.get(kap, lam) + abs(sval) * a_err))
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
    below the target.  Each family runs at digits + 8 + L absolute digits or
    more, |b_r| < 10**L, so the terms move the log by under 10**-(digits+8).
    """
    _check_request(k, digits, None, k_min=0)
    if k == 0:
        return mp.mpf(1)
    cutoff = max(800, 4 * _rho_inv(k))
    if cutoff > MAX_HEAD_PRIME:
        raise NonConvergenceError(
            "Euler product cutoff %d beyond the supported range" % cutoff,
            meta={"k": k, "cutoff": cutoff},
        )
    with mp.workdps(digits + 15):
        primes = primes_upto(cutoff)
        e2 = (k - 1) ** 2
        pol = _gauss_square_poly(k)[::-1]  # highest degree first (polyval)
        acc = mp.mpf(0)
        for p in primes:
            q = mp.mpf(1) / p
            acc += e2 * mp.log(1 - q) + mp.log(mp.polyval(pol, q))
        thresh = mp.mpf(10) ** (-(digits + 8))
        # a first pass finds the last r the sum can read, where |b_r| times
        # the tail's envelope falls below thresh twice, and takes the largest
        # digits + 8 + L up to there: the families share one digit level, so
        # one log zeta table, and the head primes' power sums one kernel pass
        # to that r; a later r in the sum may raise the level and take a pass
        # of its own.  Each family less the head sums is prime_zeta_beyond's.
        fam_digits = small = 0
        for predict in (True, False):
            r = 1
            while small < 2:
                r += 1
                if r > 400:
                    raise NonConvergenceError(
                        "Euler product tail not closed by r=400", meta={"k": k}
                    )
                br = _b_series(k, r)[r] - Fraction(k * k, r)
                fam_digits = max(fam_digits, digits + 8 + len(
                    str(abs(br.numerator) // br.denominator)))
                if predict:
                    env = envelope_bound(r, 0, cutoff) * abs(br.numerator)
                    small = small + 1 if env < thresh * br.denominator else 0
                    continue
                if r <= r_last:
                    row = rows[r - 2]
                else:
                    Bh, (row,) = head_power_sums(primes, r, r, 0, fam_digits)
                B = dps_to_prec(fam_digits + 13)
                (tail0,) = prime_zeta_fixed(
                    prime_zeta_taylor(r, 0, fam_digits).coeffs, 0, B, row, Bh)
                with mp.workdps(fam_digits + 5):
                    tail0 = mp.ldexp(tail0, -B)
                term = mp.mpf(br.numerator) / br.denominator * tail0
                acc += term
                small = small + 1 if abs(term) < thresh * max(1, abs(acc)) else 0
            if predict:
                r_last, (Bh, rows) = r, head_power_sums(primes, 2, r, 0, fam_digits)
            small = 0
        out = mp.exp(acc)
    with mp.workdps(digits + 5):
        return +out


def _assemble(N, k, digits, expw):
    """c_N = exp(W_empty) / (k**2 - N)! * sum e D_k over the weight-N pairs,
    from _exp_w's output and power_dim_pairs at digits + 10, digits the W
    engine's (_work_digits), with the first-order error
    ((a + a_err) sum |D_k| ee + |sum e D_k| a_err) / (k**2 - N)!, a + a_err
    bounding exp(W_empty) (_exp_w), in exact arithmetic never above
    d_table's: exact integer sums, the rest rounded up.  e, ee and D_k are
    exactly symmetric, so each sum runs once per mirror pair, the pairs off
    the diagonal twice over."""
    aval, a_err, e, ee, C = expw
    dot, bar = [0, 0], [0, 0]  # [diagonal, one of each mirror pair off it]
    for (mu, nu), dv in power_dim_pairs(k, N).items():
        off = mu != nu
        dot[off] += e[(mu, nu)] * dv
        bar[off] += ee[(mu, nu)] * abs(dv)
    dot, bar = dot[0] + 2 * dot[1], bar[0] + 2 * bar[1]
    prec, fct = dps_to_prec(digits + 10), from_int(math.factorial(k * k - N))
    ahi = mpf_add(aval._mpf_, a_err._mpf_, prec, "u")
    err = mpf_add(mpf_mul(ahi, from_man_exp(bar, -2 * C), prec, "u"),
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
    return _assemble(N, k, _work_digits(digits, tol), _exp_w(k, N, digits, tol)[0])


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
    work = _work_digits(digits, tol)
    triples = tuple((N, *_assemble(N, k, work, expw))
                    for N in range(k * k + 1))
    meta = {key: wmeta.get(key) for key in ("r_max_used", "prime_cutoff", "tol")}
    meta["cache_versions"] = {"zetamoments": __version__}
    return MomentPolynomial(k, digits, triples, meta)
