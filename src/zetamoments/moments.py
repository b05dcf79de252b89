"""Moment polynomial pipeline: exact tables feeding big-real coefficients.

The chain: the local Euler factor, expanded over pairs of partitions, gives
one ratio series X_{mu nu}(Q) in Q = 1/p per key; at an integer k the V
values are the Q**r coefficients of the pair-series logarithm of 1 + X; V
combines with prime power sums into the W coefficients; exponentiating the
W series and switching both slots to the Schur basis gives the d-table;
d-entries paired with complement skew dimensions assemble every coefficient
c_N(k) of the degree-k**2 moment polynomial for the 2k-th moment of zeta on
the critical line.  The same V, as polynomials in k, come from contracting
the rational f-table (the logarithm of an exact pair series) against
monomial symmetric evaluations; that route is the paper's exact object and
the oracle the engine is checked against.

The naive r-sum defining W diverges for k >= 3 because the V side outgrows
the decay of the prime family.  The engine therefore splits: local log
factors are accumulated over the primes up to a cutoff (with each prime's
leading 1/p part removed), and the r-sum is restarted on the primes beyond
the cutoff only, where it converges geometrically.  Below the cutoff the
empty key's local factor has a closed form, an integer ratio at Q = 1/p, so
its part is one fixed-point product over the primes and a single log; the
other keys take one pair-series log per prime.  The cutoff comes from
the digit and tolerance request; tail estimates combine a certified envelope
on the beyond-cutoff prime sums with the measured decay of the last few
increments.
"""

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp

from . import __version__
from .characters import character_table
from .frobenius_schur import dim_complement
from .partitions import centralizer_order, check_partition, dim_hook, partitions_of
from .symseries import (
    EMPTY_KEY,
    POWERSUM,
    SCHUR,
    KPoly,
    PairSeries,
    _plan,
    _switch_basis,
    monomial_eval,
    multinomial,
    p_to_schur,
    series_exp,
    series_log,
    series_mul,
)
from .zeta_numerics import (
    _series_log_list,
    envelope_bound,
    prime_zeta_beyond,
    prime_zeta_taylor,
    primes_upto,
)

try:
    from math import sumprod as _sumprod
except ImportError:
    def _sumprod(a, b):
        return sum(x * y for x, y in zip(a, b))


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
        acc = mp.mpf(0)
        for n, value, _ in self.coefficients:
            acc += value * mp.mpf(x) ** (self.k * self.k - n)
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
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
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
    if not isinstance(r, int) or r < 1:
        raise ValueError("r must be a positive integer")
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


@lru_cache(maxsize=None)
def _gauss_square_poly(k):
    """Polynomial part of the local Euler factor: squared binomial row k-1."""
    return tuple(Fraction(math.comb(k - 1, j) ** 2) for j in range(k))


@lru_cache(maxsize=None)
def _b_series(k, R, absolute=False):
    """[Q^r] log of the local factor, split as (2k-1)/r plus log(1 + x), x
    the polynomial part less 1; absolute=True takes -log(1 - x) instead,
    which has the magnitudes of log(1 + x)'s power expansion."""
    sign = -1 if absolute else 1
    s = [Fraction(1)] + [Fraction(0)] * R
    for j in range(1, min(k - 1, R) + 1):
        s[j] = sign * _gauss_square_poly(k)[j]
    lg = _series_log_list(s)
    return (Fraction(0),) + tuple(
        sign * lg[r] + Fraction(2 * k - 1, r) for r in range(1, R + 1)
    )


def _b_coeff(k, r, absolute=False):
    R = ((r + 39) // 40) * 40
    return _b_series(k, R, absolute)[r]


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


class _QSeries:
    """Power series in Q = 1/p cut after a fixed order, exact coefficients.

    The coefficient ring series_log runs over for the exact tail: integer
    coefficients over one common denominator, kept in lowest terms.  Sums
    and scalar multiples act entrywise, and the product drops every power of
    Q beyond the shorter operand.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        g = math.gcd(den, *num)
        if g > 1:
            num = [c // g for c in num]
            den //= g
        self.num = num
        self.den = den

    def __eq__(self, other):
        if isinstance(other, _QSeries):
            return self.num == other.num and self.den == other.den
        return other == 0 and not any(self.num)

    def __add__(self, other):
        if not isinstance(other, _QSeries):
            if other != 0:
                return NotImplemented
            return self
        d1, d2 = self.den, other.den
        den = d1 // math.gcd(d1, d2) * d2
        m1, m2 = den // d1, den // d2
        return _QSeries([a * m1 + b * m2 for a, b in zip(self.num, other.num)], den)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _QSeries):
            other = Fraction(other)
            return _QSeries(
                [a * other.numerator for a in self.num],
                self.den * other.denominator,
            )
        a, b = self.num, other.num
        n = min(len(a), len(b))
        out = [0] * n
        for i in range(n):
            x = a[i]
            if x:
                for j in range(n - i):
                    y = b[j]
                    if y:
                        out[i + j] += x * y
        return _QSeries(out, self.den * other.den)

    __rmul__ = __mul__


@lru_cache(maxsize=None)
def _v_series(k, wmax, R):
    """Exact V_r at integer k and termwise bounds on them, for r = 1..R.

    V_r for the key (mu, nu) is n! times the Q**r coefficient of log(1 + X),
    n = |mu| + |nu|, where X_{mu nu}(Q) = z_{mu nu}(Q) / z_0(Q) is the ratio
    of local factor expansions and the log runs over the pair series.  The
    same log of 1 - |X|, with every coefficient replaced by its magnitude,
    gives a coefficientwise majorant.  The empty key is the scalar local
    log.  Returns two lists indexed by r of {key: Fraction}, zeros omitted.
    """
    aseq = _a_seqs(k, wmax, R)
    z0 = [a * a for a in aseq[()]]
    # z0 has constant term 1, so its reciprocal has integer coefficients
    inv = [1] + [0] * R
    for u in range(1, R + 1):
        inv[u] = -sum(z0[i] * inv[u - i] for i in range(1, u + 1))
    signed, majorant = {EMPTY_KEY: 1}, {EMPTY_KEY: 1}
    for m, nu in _plan(wmax).keys[1:]:
        den = _norm_den(m) * _norm_den(nu)
        z = [a * b for a, b in zip(aseq[m], aseq[nu])]
        x = [sum(z[i] * inv[u - i] for i in range(u + 1)) for u in range(R + 1)]
        signed[(m, nu)] = _QSeries(x, den)
        majorant[(m, nu)] = _QSeries([-abs(c) for c in x], den)
    vr = [{} for _ in range(R + 1)]
    vb = [{} for _ in range(R + 1)]
    for table, x, sign, b0 in (
        (vr, signed, 1, _b_series(k, R)),
        (vb, majorant, -1, _b_series(k, R, True)),
    ):
        for r in range(1, R + 1):
            if b0[r]:
                table[r][EMPTY_KEY] = b0[r]
        for key, s in series_log(PairSeries(POWERSUM, wmax, x)).coeffs.items():
            fact = sign * math.factorial(sum(key[0]) + sum(key[1]))
            for r in range(1, R + 1):
                if s.num[r]:
                    table[r][key] = Fraction(fact * s.num[r], s.den)
    return vr, vb


_w_cache = {}
_installed_w = {}


def install_w_table(k, entries):
    """Register (or with None, drop) a complete W table override for k.

    Entries map (mu, nu) keys to numbers or ValueWithError pairs; keys the
    table omits count as exactly zero.  Meant for cache plumbing and for
    probing which entries downstream values depend on.
    """
    if entries is None:
        _installed_w.pop(k, None)
    else:
        _installed_w[k] = dict(entries)


def _prime_cutoff(k, digits, tol_f):
    log10_t = 12 + max(digits, -math.log10(tol_f))
    cut = max(50.0, _rho_inv(k) * 10 ** (log10_t / 15))
    if cut > 2_000_000:
        raise NonConvergenceError(
            "prime cutoff %.0f beyond the supported range; lower digits or tol"
            % cut,
            meta={"k": k, "digits": digits, "tol": tol_f},
        )
    return int(math.ceil(cut))


def _w_full(k, wmax, digits, tol=None):
    """All W values for keys of total weight <= wmax: (values, errors, meta)."""
    inst = _installed_w.get(k)
    if inst is not None:
        vals, errs = {}, {}
        for key in _plan(wmax).keys:
            got = inst.get(key, 0)
            if isinstance(got, ValueWithError):
                vals[key] = mp.mpf(1) * got.value
                errs[key] = mp.mpf(1) * got.error
            else:
                vals[key] = mp.mpf(1) * got
                errs[key] = mp.mpf(0)
        meta = {"r_max_used": None, "prime_cutoff": None, "digits": digits,
                "tol": None, "installed": True}
        return vals, errs, meta
    tol_f = 10.0 ** (-digits) if tol is None else float(tol)
    ckey = (k, wmax, digits, tol_f)
    hit = _w_cache.get(ckey)
    if hit is None:
        for (ck, cw, cd, ct), stored in _w_cache.items():
            if ck == k and cd == digits and ct == tol_f and cw >= wmax:
                hit = stored
                break
    if hit is None:
        hit = _w_engine(k, wmax, digits, tol_f)
        _w_cache[ckey] = hit
    keys = _plan(wmax).keys
    vals = {key: hit[0][key] for key in keys}
    errs = {key: hit[1][key] for key in keys}
    return vals, errs, dict(hit[2])


def _empty_key_head(k, primes):
    """sum over the primes of log z_0(1/p) - k**2/p, to 2**-(prec+10).

    z_0(Q) = sum_u C(u+k-1, k-1)**2 Q**u = P_k(Q) / (1-Q)**(2k-1), P_k the
    Gauss square polynomial, so at Q = 1/p the local factor is the ratio of
    integers z_0 = A_k(p) * p**k / (p-1)**(2k-1), A_k(p) = sum_j
    C(k-1, j)**2 p**(k-1-j).  The product of the z_0 is kept in B-bit fixed
    point, T = floor(T * A_k(p) * p**k / (p-1)**(2k-1)) from T = 2**B, and
    S = sum floor(k**2 * 2**B / p), so one log serves every prime.  Each
    z_0 > 1 keeps T >= 2**B, so each floor moves log T by under 2**(1-B),
    and each floor of S by under 2**-B: with n primes the result is off by
    under 3n * 2**-B < 2**-(prec+10) for B = prec + bit_length(n) + 12.  T
    only grows to about 2**B * exp(k**2 * sum 1/p), about 2**(B+35) at
    k = 3 and p < 67,968, so it needs no rescaling.  The log and the
    subtraction run at B + 10 bits, and the value comes back at that
    precision; the caller's next sum rounds it.
    """
    B = mp.prec + len(primes).bit_length() + 12
    row = [math.comb(k - 1, j) ** 2 for j in range(k)]
    T, S = 1 << B, 0
    k2B = (k * k) << B
    for p in primes:
        A = 0
        for c in row:
            A = A * p + c
        T = T * A * p ** k // (p - 1) ** (2 * k - 1)
        S += k2B // p
    with mp.workprec(B + 10):
        return mp.log(mp.ldexp(T, -B)) - mp.ldexp(S, -B)


def _w_engine(k, wmax, digits, tol_f):
    wdps = digits + 15
    pcut = _prime_cutoff(k, digits, tol_f)
    keys = _plan(wmax).keys
    mus = [m for a in range(wmax + 1) for m in partitions_of(a)]
    with mp.workdps(wdps):
        tol_eff = mp.mpf(tol_f)
        primes = primes_upto(pcut)
        vals = {key: mp.mpf(0) for key in keys}
        u_top = int((wdps * math.log(10) + 30) / math.log(2)) + 30
        aseq = _a_seqs(k, wmax, u_top)
        normf = {
            key: mp.mpf(1) / (_norm_den(key[0]) * _norm_den(key[1]))
            for key in keys
        }
        norm1 = {}
        for m, nu in keys:
            if len(m) <= 1 and len(nu) <= 1:
                den = (math.factorial(m[0]) if m else 1) * (
                    math.factorial(nu[0]) if nu else 1
                )
                norm1[(m, nu)] = mp.mpf(k ** (2 - len(m) - len(nu))) / den
        # the empty key's head part is one fixed-point product of its
        # closed-form local factors; the nonempty keys take one pair-series
        # log per head prime, normalised by z0 from the same integer rows
        vals[EMPTY_KEY] = _empty_key_head(k, primes)
        for p in (primes if wmax else ()):
            lp = mp.log(p)
            pinv = mp.mpf(1) / p
            lpow = [mp.mpf(1)]
            for _ in range(wmax):
                lpow.append(lpow[-1] * (-lp))
            up = min(u_top, int((wdps * math.log(10) + 30) / math.log(p)) + 30)
            pw = [1] * (up + 1)
            for u in range(up - 1, -1, -1):
                pw[u] = pw[u + 1] * p
            scaled = {m: [aseq[m][u] * pw[u] for u in range(up + 1)] for m in mus}
            p_top = mp.mpf(p) ** (-up)
            dots = {}
            z = {}
            for m, nu in keys:
                pair = (m, nu) if m <= nu else (nu, m)
                d = dots.get(pair)
                if d is None:
                    d = _sumprod(aseq[pair[0]][: up + 1], scaled[pair[1]])
                    dots[pair] = d
                z[(m, nu)] = (
                    mp.mpf(d) * p_top * normf[(m, nu)] * lpow[sum(m) + sum(nu)]
                )
            z0 = z[EMPTY_KEY]
            norm = {key: v / z0 for key, v in z.items()}
            norm[EMPTY_KEY] = mp.mpf(1)
            glog = series_log(PairSeries(POWERSUM, wmax, norm)).coeffs
            for key in keys:
                if key == EMPTY_KEY:
                    continue
                g = glog.get(key, 0)
                n1 = norm1.get(key)
                if n1 is not None:
                    g = g - n1 * lpow[sum(key[0]) + sum(key[1])] * pinv
                if g:
                    vals[key] += g
        # exact V tables to order R, extended 16 orders at a time: the tail
        # rarely passes r = 16, and each chunk is rebuilt from scratch
        R = 16
        v_tab, vb_tab = _v_series(k, wmax, R)
        head = prime_zeta_taylor(1, wmax, wdps - 5).coeffs
        for key, fv in v_tab[1].items():
            n = sum(key[0]) + sum(key[1])
            vals[key] += mp.mpf(fv.numerator) / fv.denominator * head[n]

        history = {key: [] for key in keys}
        gmax_hist = []
        growth = []
        vb_prev_max = None
        streak = 0
        min_stop = max(8, wmax + 3)
        floor = mp.mpf(10) ** (-(digits + 6))
        r = 1
        while True:
            r += 1
            if r > 200:
                raise NonConvergenceError(
                    "W tail not converged by r=200 at k=%d" % k,
                    meta={"prime_cutoff": pcut, "r_max_used": r - 1,
                          "digits": digits, "tol": tol_f},
                )
            if r > R:
                R += 16
                v_tab, vb_tab = _v_series(k, wmax, R)
            vr, vb = v_tab[r], vb_tab[r]
            ct = prime_zeta_beyond(r, wmax, primes, wdps - 5)
            allsmall = True
            tmax = mp.mpf(0)
            for key, fv in vr.items():
                n = sum(key[0]) + sum(key[1])
                term = mp.mpf(fv.numerator) / fv.denominator * ct[n]
                vals[key] += term
                mag = abs(term)
                tmax = max(tmax, mag)
                h = history[key]
                h.append(mag)
                if len(h) > 3:
                    del h[0]
                if mag >= tol_eff * (1 + abs(vals[key])):
                    allsmall = False
            gmax_hist.append(tmax)
            if len(gmax_hist) > 4:
                del gmax_hist[0]
            streak = streak + 1 if allsmall else 0
            vb_max = max(
                (mp.mpf(f.numerator) / f.denominator for f in vb.values()),
                default=mp.mpf(0),
            )
            if vb_prev_max:
                growth.append(float(vb_max / vb_prev_max))
                if len(growth) > 3:
                    del growth[0]
            vb_prev_max = vb_max
            if r < min_stop or streak < 3:
                continue
            # the reported error closes the tail: a geometric estimate from
            # the last increments, plus the certified envelope, in which the
            # beyond-cutoff prime families shrink at least by 1/pcut per step
            # in r and the V majorant grows by a measured factor
            q = 0.5
            rats = [
                float(gmax_hist[i + 1] / gmax_hist[i])
                for i in range(len(gmax_hist) - 1)
                if gmax_hist[i] > 0
            ]
            if rats:
                q = min(0.9, max(1e-6, max(rats)))
            qm = mp.mpf(q)
            chat = mp.mpf(max([2.0] + growth))
            envs = [envelope_bound(r, n, pcut) for n in range(wmax + 1)]
            errs = {}
            for key in keys:
                h = history[key]
                geo = mp.mpf("1.5") * max(h) * qm / (1 - qm) if h else mp.mpf(0)
                fb = vb.get(key)
                env = mp.mpf(0)
                if fb:
                    n = sum(key[0]) + sum(key[1])
                    env = mp.mpf("1.5") * (
                        mp.mpf(fb.numerator) / fb.denominator
                        * envs[n] * chat / (pcut - chat)
                    )
                scale = 1 + abs(vals[key])
                if geo + env >= tol_eff * scale:
                    break
                errs[key] = geo + env + floor * scale
            else:
                break
        meta = {"r_max_used": r, "prime_cutoff": pcut, "digits": digits,
                "tol": tol_f}
    with mp.workdps(digits + 8):
        vals = {key: +v for key, v in vals.items()}
        errs = {key: +v for key, v in errs.items()}
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
    parameters.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    _check_request(k, digits, tol)
    vals, errs, _ = _w_full(k, sum(mu) + sum(nu), digits, tol)
    return ValueWithError(vals[(mu, nu)], errs[(mu, nu)])


def d_table(k, n_max, digits=50, tol=None):
    """Schur-basis coefficients of the exponentiated W series, with errors.

    Exponentiates the powersum-basis W series to total weight n_max, converts
    both slots to the Schur basis, and scales everything by the zeroth
    exponential factor.  Error bounds are first order: the magnitude series
    of the exponential convolved with the W error bounds, pushed through the
    same basis change with absolute character values.
    """
    _check_request(k, digits, tol)
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError("n_max must be a nonnegative integer")
    if n_max > k * k:
        raise ValueError("n_max cannot exceed k**2")
    vals, werr, _ = _w_full(k, n_max, digits, tol)
    with mp.workdps(digits + 12):
        expo = {key: v for key, v in vals.items() if key != EMPTY_KEY and v != 0}
        eser = series_exp(PairSeries(POWERSUM, n_max, expo))
        sser = p_to_schur(eser)
        aval = mp.exp(vals[EMPTY_KEY])
        a_err = aval * werr[EMPTY_KEY]
        mags = {key: abs(v) for key, v in eser.coeffs.items()}
        errser = {
            key: v for key, v in werr.items() if key != EMPTY_KEY and v != 0
        }
        derrs = _switch_basis(
            series_mul(
                PairSeries(POWERSUM, n_max, mags),
                PairSeries(POWERSUM, n_max, errser),
            ),
            POWERSUM, SCHUR,
            lambda n: {key: abs(v) for key, v in character_table(n).items()},
        )
        out = {}
        for kap, lam in _plan(n_max).keys:
            sval = sser.get(kap, lam)
            out[(kap, lam)] = ValueWithError(
                +(aval * sval), +(aval * derrs.get(kap, lam) + abs(sval) * a_err)
            )
    return out


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
    if not isinstance(n_max, int) or n_max < 0:
        raise ValueError("n_max must be a nonnegative integer")
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


def g_factor(k):
    """Number of standard fillings of the k by k square, exactly."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")
    return dim_hook((k,) * k)


def a_factor(k, digits=50):
    """The arithmetic Euler product over all primes, to the digit request.

    Local factors are evaluated outright up to a cutoff; the log of the
    remaining product is a series in beyond-cutoff prime power sums whose
    terms shrink geometrically, summed until two consecutive terms fall
    below the target.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("k must be a nonnegative integer")
    if k == 0:
        return mp.mpf(1)
    cutoff = max(800, 4 * _rho_inv(k))
    with mp.workdps(digits + 15):
        primes = primes_upto(cutoff)
        e2 = (k - 1) ** 2
        pol = _gauss_square_poly(k)
        acc = mp.mpf(0)
        for p in primes:
            q = mp.mpf(1) / p
            loc = mp.mpf(0)
            for j in range(len(pol) - 1, -1, -1):
                loc = loc * q + int(pol[j])
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
            br = _b_coeff(k, r) - Fraction(k * k, r)
            tail0 = prime_zeta_beyond(r, 0, primes, digits + 6)[0]
            term = mp.mpf(br.numerator) / br.denominator * tail0
            acc += term
            small = small + 1 if abs(term) < thresh * max(1, abs(acc)) else 0
        out = mp.exp(acc)
    with mp.workdps(digits + 5):
        return +out


def _assemble(N, k, digits, dtab):
    with mp.workdps(digits + 10):
        acc = mp.mpf(0)
        err = mp.mpf(0)
        plan = _plan(N)
        for kap, lam in plan.keys[plan.starts[N]:]:
            dm = dim_complement(kap, lam, k)
            if dm:
                dv = dtab[(kap, lam)]
                acc += dv.value * dm
                err += dv.error * dm
        fct = mp.factorial(k * k - N)
        return ValueWithError(+(acc / fct), +(err / fct))


def c_coeff(N, k, digits=50, tol=None):
    """Coefficient c_N(k): the weight-N d-entries against complement skew
    dimensions, divided by (k**2 - N)!.

    N beyond k**2 is the degenerate regime where the assembly is empty; the
    value is exactly zero and a warning notes it.
    """
    if not isinstance(N, int) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    _check_request(k, digits, tol, k_min=0)
    if N > k * k:
        warnings.warn(
            "c_%d at k=%d lies beyond degree k**2; empty assembly, exact 0"
            % (N, k)
        )
        return ValueWithError(mp.mpf(0), mp.mpf(0))
    if k == 0:
        return ValueWithError(mp.mpf(1), mp.mpf(0))
    return _assemble(N, k, digits, d_table(k, N, digits, tol))


def moment_polynomial(k, digits=50, tol=None):
    """Every coefficient of the degree-k**2 moment polynomial at once.

    One shared W engine run and one shared d-table cover all N; the k = 0
    polynomial is the empty-product constant 1.
    """
    _check_request(k, digits, tol, k_min=0)
    if k == 0:
        meta = {"r_max_used": 0, "prime_cutoff": 0, "tol": None,
                "cache_versions": {"zetamoments": __version__}}
        return MomentPolynomial(0, digits, ((0, mp.mpf(1), mp.mpf(0)),), meta)
    _, _, wmeta = _w_full(k, k * k, digits, tol)
    dtab = d_table(k, k * k, digits, tol)
    triples = []
    for N in range(k * k + 1):
        got = _assemble(N, k, digits, dtab)
        triples.append((N, got.value, got.error))
    meta = {
        "r_max_used": wmeta.get("r_max_used"),
        "prime_cutoff": wmeta.get("prime_cutoff"),
        "tol": wmeta.get("tol"),
        "cache_versions": {"zetamoments": __version__},
    }
    return MomentPolynomial(k, digits, tuple(triples), meta)
