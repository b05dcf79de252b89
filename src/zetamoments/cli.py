"""Command-line front end: cached precomputation and rendered output.

The cache is a directory of small JSON files, pzeta_r<r>.json, one prime
zeta Taylor family each; they serve k = 2, and k = 3 up to weight 4
(PZETA_MARGIN).  Files of other kinds, which older versions wrote, are
ignored.  Each stored real is the exact [signed mantissa, exponent] pair
of its binary value (pzeta schema 2); older schema-1 entries, decimal
strings, still load.  Precomputing twice is a no-op: only entries stored
at too few digits or too low a weight are rebuilt.  Writes take a
directory lock file; reads touch only immutable files and need no lock.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import contextmanager
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp, log_int_fixed

from . import __version__
from ._golden import golden_entries
from .characters import character_table
from .frobenius_schur import dim_complement_poly, dim_fs
from .moments import (
    NonConvergenceError,
    V_poly,
    W_coeff,
    _b_series,
    _check_request,
    _gauss_square_poly,
    _head_logs,
    _min_stop,
    _prime_cutoff,
    _ratio_numerators,
    _v_chunk,
    _v_series,
    _w_engine,
    a_factor,
    c_coeff,
    d_table,
    f_table,
    moment_polynomial,
)
from .partitions import (
    centralizer_order,
    dim_complement,
    dim_hook,
    dim_paths,
    dim_skew_det,
    partitions_of,
)
from .symseries import (
    EMPTY_KEY,
    POWERSUM,
    PairSeries,
    _exp_log,
    _exp_log_fixed,
    _plan,
    bump_gamburd_residual,
    series_exp,
    series_log,
)
from .zeta_numerics import (
    HeadPrimes,
    PrimeZetaCoeffs,
    _check_index,
    bernoulli,
    install_prime_zeta,
    int_log,
    prime_zeta_beyond,
    prime_zeta_taylor,
    primes_upto,
)

SCHEMA_VERSION = 1  # the output documents
PZETA_SCHEMA = 2  # cache entries: binary pairs since 2, decimals at 1
CACHE_ENV = "ZETAMOMENTS_CACHE_DIR"
# stored families carry 25 digits beyond the request: the W engine asks for
# digits + 10 + L absolute ones, |V_r| < 10**L over r <= 16, served to L = 15:
# k = 2 (L = 5) and k = 3 up to weight 4 (L = 12)
PZETA_MARGIN = 25


class CacheError(Exception):
    """Cache directory problems: lock contention or malformed entries."""


@contextmanager
def cache_lock(root):
    """Single-writer directory lock; raises when another writer holds it."""
    path = os.path.join(root, ".lock")
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CacheError(
            "cache at %s is locked by another process (remove %s if stale)"
            % (root, path)
        ) from None
    try:
        os.write(fd, ("pid %d\n" % os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


def _pair(x):
    # x's exact binary value as JSON ints: the signed mantissa and exponent
    sign, man, exp, _ = x._mpf_
    return [-man if sign else man, exp]


def _from_pair(pair):
    if type(pair) is not list or len(pair) != 2 or set(map(type, pair)) != {int}:
        raise TypeError("%r is no [mantissa, exponent] pair" % (pair,))
    return mp.make_mpf(from_man_exp(*pair))


def save_pzeta(root, pz):
    """Atomically write one family as pzeta_r<r>.json; the caller holds the
    cache lock.  Each value is stored as its exact pair [m, e], m * 2**e."""
    payload = {"digits": pz.digits, "coeffs": list(map(_pair, pz.coeffs)),
               "tail_bounds": list(map(_pair, pz.tail_bounds))}
    doc = {"schema_version": PZETA_SCHEMA, "kind": "pzeta",
           "params": {"r": pz.r, "n_max": len(pz.coeffs) - 1},
           "payload": payload}
    data = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, os.path.join(root, "pzeta_r%d.json" % pz.r))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_pzeta(path):
    """The family stored at path, or None if there is no file; CacheError
    if it cannot be read, is malformed or uses a newer schema."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise CacheError("unreadable cache entry %s: %s" % (path, exc)) from exc
    try:
        schema = doc["schema_version"]
        if schema > PZETA_SCHEMA:
            raise CacheError(
                "cache entry %s uses schema %d, newer than supported %d"
                % (path, schema, PZETA_SCHEMA)
            )
        if doc["kind"] != "pzeta":
            raise CacheError("cache entry %s is not a pzeta entry" % path)
        payload = doc["payload"]
        digits = payload["digits"]
        if schema == PZETA_SCHEMA:
            coeffs = tuple(map(_from_pair, payload["coeffs"]))
            tails = tuple(map(_from_pair, payload["tail_bounds"]))
        else:
            # schema 1's decimals, parsed at the working precision digits +
            # 5 they were rounded at, restore each value bit for bit
            with mp.workdps(digits + 5):
                coeffs = tuple(mp.mpf(s) for s in payload["coeffs"])
                tails = tuple(mp.mpf(s) for s in payload["tail_bounds"])
        return PrimeZetaCoeffs(doc["params"]["r"], coeffs, digits, tails)
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheError("malformed cache entry %s: %s" % (path, exc)) from exc


def _install_cache(root):
    """Install every family stored under root and return them, {r: family}.

    Families install behind a precision gate, so one with too few digits for
    a later request is recomputed, never reused.  Files of any other kind,
    such as those older versions wrote, are skipped unread.
    """
    found = {}
    if os.path.isdir(root):
        for filename in sorted(os.listdir(root)):
            if filename.startswith("pzeta_") and filename.endswith(".json"):
                pz = load_pzeta(os.path.join(root, filename))
                if pz is not None:
                    install_prime_zeta(pz.r, pz)
                    found[pz.r] = pz
    return found


def load_cache(root):
    """Install every family stored under root; returns {"pzeta": count}."""
    return {"pzeta": len(_install_cache(root))}


def cmd_precompute(n_max, digits, cache_dir):
    """Build and persist the prime zeta families the pipeline wants,
    skipping those stored at enough digits and weight."""
    _check_index(n_max, "nmax", 1)
    _check_index(digits, "digits", 1)
    os.makedirs(cache_dir, exist_ok=True)
    store_digits = digits + PZETA_MARGIN
    built = reused = 0
    with cache_lock(cache_dir):
        have = _install_cache(cache_dir)
        # the W tail may not stop before _min_stop; 8 more r cover its stop
        for r in range(1, _min_stop(n_max) + 9):
            old = have.get(r)
            if (old is not None and old.digits >= store_digits
                    and len(old.coeffs) > n_max):
                reused += 1
                continue
            pz = prime_zeta_taylor(r, n_max, store_digits)
            save_pzeta(cache_dir, pz)
            install_prime_zeta(r, pz)
            built += 1
    return {"cache_dir": cache_dir, "loaded": {"pzeta": len(have)},
            "built": {"pzeta": built}, "reused": {"pzeta": reused}}


def _render_real(x, digits):
    with mp.workdps(digits + 5):
        return mp.nstr(x, digits, strip_zeros=False)


def _coeff_doc(k, n_index, digits, got, note):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "k": k,
        "N": n_index,
        "digits": digits,
        "value": _render_real(got.value, digits),
        "error": _render_real(got.error, 6),
    }
    if note:
        doc["note"] = note
    return doc


def cmd_coeff(k, n_index, digits, fmt="text", cache_dir=None, tol=None):
    """One coefficient, rendered; degenerate indices come back zero with a note."""
    _check_index(n_index, "N")
    _check_request(k, digits, tol, k_min=0)
    if cache_dir:
        load_cache(cache_dir)
    note = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = c_coeff(n_index, k, digits=digits, tol=tol)
        if caught:
            note = str(caught[0].message)
    doc = _coeff_doc(k, n_index, digits, got, note)
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["# lossy rendering: values only, errors and metadata omitted",
                 "N,value", "%d,%s" % (n_index, doc["value"])]
        return "\n".join(lines) + "\n"
    out = ["c_%d(%d) = %s  (error <= %s)" % (n_index, k, doc["value"], doc["error"])]
    if note:
        out.append("note: %s" % note)
    return "\n".join(out) + "\n"


def cmd_poly(k, digits, fmt="text", cache_dir=None, tol=None):
    """The full coefficient family for one k, rendered."""
    _check_request(k, digits, tol, k_min=0)
    if cache_dir:
        load_cache(cache_dir)
    poly = moment_polynomial(k, digits=digits, tol=tol)
    meta = poly.metadata
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "k": poly.k,
            "digits": poly.digits,
            "coefficients": [
                {
                    "N": n,
                    "value": _render_real(v, digits),
                    "error": _render_real(e, 6),
                }
                for n, v, e in poly.coefficients
            ],
            "truncation": {
                "r_max_used": meta.get("r_max_used"),
                "tol": meta.get("tol"),
            },
            "cache": {"versions": meta.get("cache_versions", {})},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        lines = ["# lossy rendering: values only, errors and metadata omitted",
                 "N,value"]
        for n, v, _ in poly.coefficients:
            lines.append("%d,%s" % (n, _render_real(v, digits)))
        return "\n".join(lines) + "\n"
    lines = [
        "moment polynomial for k=%d at %d digits (degree %d)"
        % (k, digits, k * k),
        "coefficient of x^(k^2-N):",
    ]
    for n, v, e in poly.coefficients:
        lines.append(
            "  c_%-2d = %s  (error <= %s)"
            % (n, _render_real(v, digits), _render_real(e, 6))
        )
    lines.append(
        "truncation: r_max_used=%s prime_cutoff=%s tol=%s"
        % (meta.get("r_max_used"), meta.get("prime_cutoff"), meta.get("tol"))
    )
    return "\n".join(lines) + "\n"


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


def _check_prime_zeta_routes():
    from .oracles import prime_zeta_direct

    # log zeta(m*r) takes Euler-Maclaurin below x = 24..39 and the Euler
    # product past it: r = 30 takes only the product, every other row both;
    # r = 2 at 80 digits runs the longest Bernoulli tails, and r = 3 at
    # nmax = 9 the m**(n-1) amplification of the integer Moebius pass
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
    # one head for r = 2..18, past a chunk's end, at the absolute digits that
    # carry `digits` relative ones to r = 18; the oracle is mpf, 20 digits up
    primes = primes_upto(pcut)
    head = HeadPrimes(primes)
    extra = int(18 * math.log10(pcut / 2.0)) + 8
    for r in range(2, 19):
        got = prime_zeta_beyond(r, nmax, head, digits + extra)
        base = prime_zeta_taylor(r, nmax, digits + 20 + extra)
        with mp.workdps(digits + 30 + extra):
            want = list(base.coeffs[: nmax + 1])
            for p in primes:
                lp = -mp.log(p)
                t = mp.mpf(p) ** -r
                want[0] -= t
                for n in range(1, nmax + 1):
                    t = t * lp / n
                    want[n] -= t
            for n in range(nmax + 1):
                if abs(got[n] - want[n]) > mp.mpf(10) ** -(digits + 3) * abs(want[n]):
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
        primes = primes_upto(_prime_cutoff(k, digits, 10.0**-digits))
        want, head = _head_logs(k, wmax, primes), HeadPrimes(primes)
        R = 0
        for r in range(1, meta["r_max_used"] + 1):
            if r > R:
                # the engine's tables: R = 16, then 4 orders at a time
                R = max(16, R + 4)
                v_tab, _, fam_digits, _ = _v_chunk(k, wmax, R, digits)
            fam = (prime_zeta_beyond(r, wmax, head, fam_digits) if r > 1
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zetamoments",
        description="moment polynomial coefficients for the zeta function",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, request=True):
        p.add_argument("--digits", type=int, default=50)
        p.add_argument(
            "--cache-dir",
            default=os.environ.get(CACHE_ENV, os.path.join(".", "cache")),
        )
        if request:
            p.add_argument("--tol", type=float, default=None)
            p.add_argument(
                "--format", choices=("text", "json", "csv"), default="text"
            )

    p = sub.add_parser(
        "precompute", help="build and persist the prime zeta families",
        description="Build and persist the prime zeta families, %d digits"
        " beyond --digits: enough for k = 2, and k = 3 up to weight 4, not"
        " for the full P_3 or P_4." % PZETA_MARGIN)
    p.add_argument("--nmax", type=int, required=True)
    common(p, request=False)

    p = sub.add_parser("coeff", help="one polynomial coefficient")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="n_index")
    common(p)

    p = sub.add_parser("poly", help="every coefficient for one k")
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("selftest", help="run the built-in check battery")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "precompute":
            status = cmd_precompute(args.nmax, args.digits, args.cache_dir)
            sys.stdout.write(
                "pzeta: built %d, reused %d\n"
                % (status["built"]["pzeta"], status["reused"]["pzeta"])
            )
            sys.stdout.write("cache at %s\n" % status["cache_dir"])
        elif args.command == "coeff":
            sys.stdout.write(
                cmd_coeff(args.k, args.n_index, args.digits, args.format,
                          args.cache_dir, tol=args.tol)
            )
        elif args.command == "poly":
            sys.stdout.write(
                cmd_poly(args.k, args.digits, args.format, args.cache_dir,
                         tol=args.tol)
            )
        else:
            report, failures = cmd_selftest(args.level)
            sys.stdout.write(report)
            if failures:
                return 1
    except NonConvergenceError as exc:
        sys.stderr.write("non-convergence: %s\n" % exc)
        if exc.meta:
            sys.stderr.write("parameters: %r\n" % (exc.meta,))
        return 2
    except (CacheError, OSError) as exc:
        sys.stderr.write("cache/io error: %s\n" % exc)
        return 3
    except ValueError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
