import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_int, log_int_fixed, mpf_log, to_fixed

from zetamoments import oracles, zeta_numerics
from zetamoments.cli import save_pzeta
from zetamoments.oracles import (
    _em_fixed,
    _em_head_length,
    _em_mpf,
    _series_log_list,
    bernoulli,
    mobius_int,
    prime_zeta_direct,
    stieltjes_cumulant,
    stieltjes_gamma,
    zeta_derivative,
    zeta_taylor,
)
from zetamoments.zeta_numerics import (
    PrimeZetaCoeffs,
    checked_primes,
    envelope_bound,
    head_power_sums,
    install_prime_zeta,
    int_log,
    prime_zeta_beyond,
    prime_zeta_taylor,
    primes_upto,
)


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(ValueError):
        bernoulli(-1)


class TestConstantTables:
    """The integer log table and the tangent-number Bernoulli table, against
    mpmath's own routines, which the package no longer calls."""

    @pytest.mark.parametrize("B", [8, 64, 333, 2000])
    def test_log_table_against_mpmath(self, B, monkeypatch):
        # j up to 10**4 passes mpmath's 2,000-entry log cache; the table
        # gives floor(2**B log j) or one less, within 2 units of mpmath's
        monkeypatch.setattr(zeta_numerics, "_logs", ([0, 0], 0, 0))
        for j in range(1, 10_001, 1 if B < 2000 else 7):
            got = int_log(j, B)
            assert abs(got - log_int_fixed(j, B)) <= 2, j
            floor = to_fixed(mpf_log(from_int(j), B + 40), B)
            assert floor - 1 <= got <= floor, j

    def test_log_table_grows_geometrically_and_never_at_import(self, monkeypatch):
        # a fresh process has neither table, the oracles' Bernoulli table
        # included; lead5's log requests (j <= 509, B <= 259) build the log
        # table three times, and a smaller (j, B) reads it without a build
        code = ("import zetamoments.cli\n"
                "from zetamoments import oracles as o, zeta_numerics as z\n"
                "print(len(z._logs[0]), len(o._bernoulli_ratios))")
        src = os.path.dirname(os.path.dirname(zeta_numerics.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["2", "1"]
        builds = []
        real = zeta_numerics._grow_logs

        def counted(j, B):
            builds.append((j, B))
            return real(j, B)

        monkeypatch.setattr(zeta_numerics, "_logs", ([0, 0], 0, 0))
        monkeypatch.setattr(zeta_numerics, "_grow_logs", counted)
        for j, B in [(313, 150), (313, 194), (53, 259), (509, 215), (2, 6)]:
            int_log(j, B)
        assert len(builds) == 3
        tab, W, Bt = zeta_numerics._logs
        assert len(tab) > 509 and Bt >= 259

    def test_bernoulli_against_mpmath(self, monkeypatch):
        # rebuilt at i = 1, 41, 81 from a fresh table
        monkeypatch.setattr(oracles, "_bernoulli_ratios", [None])
        for n in range(201):
            p, q = mp.bernfrac(n)
            assert bernoulli(n) == Fraction(int(p), int(q)), n
        assert len(oracles._bernoulli_ratios) == 161

    @pytest.mark.parametrize("request_", ["lead5", "c0"])
    def test_requests_take_no_mpmath_log_or_bernoulli(self, request_, monkeypatch):
        from zetamoments import moments

        def banned(*args, **kwargs):
            raise AssertionError("mpmath log table or Bernoulli called")

        for target, name in [(mp, "bernfrac"), (mp, "bernoulli"),
                             (mpmath.libmp, "log_int_fixed"),
                             (mpmath.libmp.libelefun, "log_int_fixed")]:
            monkeypatch.setattr(target, name, banned)
        # and any copy of mpmath's log bound by name in the package
        for mod in (zeta_numerics, moments):
            monkeypatch.setattr(mod, "log_int_fixed", banned, raising=False)
        monkeypatch.setattr(zeta_numerics, "_logs", ([0, 0], 0, 0))
        monkeypatch.setattr(oracles, "_bernoulli_ratios", [None])
        monkeypatch.setattr(zeta_numerics, "_installed_pzeta", {})
        monkeypatch.setattr(moments, "_w_cache", {})
        zeta_numerics._log_zeta_table.cache_clear()
        zeta_numerics._compute_prime_zeta.cache_clear()
        if request_ == "lead5":
            for N in (4, 3, 2, 1, 0):
                moments.c_coeff(N, 3, digits=15)
            assert len(zeta_numerics._logs[0]) > 2
        else:
            moments.c_coeff(0, 3, digits=50)
            assert len(zeta_numerics._logs[0]) == 2
        # the log zeta table's Borwein rows need no Bernoulli numbers at all
        assert oracles._bernoulli_ratios == [None]


def test_primes_and_mobius():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [mobius_int(m) for m in range(1, 7)] == [1, -1, -1, 0, -1, 1]


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primes_match_trial_division():
    ref = [n for n in range(10_001) if _is_prime(n)]
    xs = list(range(200)) + list(range(200, 10_001, 101)) + [9409, 9973, 10_000]
    for x in xs:
        assert primes_upto(x) == [p for p in ref if p <= x], x
    assert [primes_upto(x) for x in (0, 1, 2, 3)] == [[], [], [2], [2, 3]]


def test_primes_at_the_cutoff_limit():
    assert len(primes_upto(2_000_000)) == 148_933


@pytest.mark.parametrize("x", [4, 5, 631, 67_968, 67_969, 2_000_000])
def test_odd_read_lists_every_flagged_number(x):
    # the odd entries and 2 against a read of the whole sieve
    flags = zeta_numerics._prime_flags(x)
    assert primes_upto(x) == [j for j in range(x + 1) if flags[j]]


def test_mobius_matches_factorisation():
    primes = primes_upto(2000)
    for m in range(1, 2001):
        exps = []
        rest = m
        for p in primes:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            if e:
                exps.append(e)
        want = 0 if any(e > 1 for e in exps) else (-1) ** len(exps)
        assert mobius_int(m) == want, m
    for m in (0, -1):
        with pytest.raises(ValueError):
            mobius_int(m)


def test_mobius_sieve_matches_trial_division():
    mu = zeta_numerics._mobius_sieve(10_000)
    assert mu[0] == 0
    assert mu[1:] == [mobius_int(m) for m in range(1, 10_001)]
    assert zeta_numerics._mobius_sieve(1) == [0, 1]


@pytest.mark.parametrize(
    "fn, args",
    [
        (mobius_int, (6.5,)),
        (mobius_int, (True,)),
        (zeta_taylor, (2, True)),
        (zeta_taylor, (2, 1.0)),
        (zeta_derivative, (True, 2)),
        (zeta_derivative, (1.0, 2)),
        (prime_zeta_taylor, (True, 0, 20)),
        (prime_zeta_taylor, (2.0, 0, 20)),
        (prime_zeta_taylor, (2, False, 20)),
        (stieltjes_gamma, (True,)),
        (stieltjes_gamma, (1.0,)),
        (stieltjes_cumulant, (True,)),
        (stieltjes_cumulant, (2.0,)),
        (envelope_bound, (2.0, 0, 100)),
        (envelope_bound, (2, True, 100)),
        (envelope_bound, (2, 0.5, 100)),
        (prime_zeta_beyond, (True, 0, [2])),
        (prime_zeta_direct, (2, True)),
        (prime_zeta_direct, (2, 1.0)),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__,
)
def test_integer_arguments_reject_bools_and_non_integers(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args",
    [
        (prime_zeta_taylor, (2, 2, 2.5)),
        (prime_zeta_taylor, (2, 2, True)),
        (prime_zeta_taylor, (2, 2, 0)),
        (prime_zeta_taylor, (2, 2, -5)),
        (zeta_taylor, (3, 2, -4)),
        (zeta_derivative, (1, 3, 0)),
        (prime_zeta_beyond, (2, 0, [2], -3)),
        (envelope_bound, (2, 0, 100, -3)),
        (stieltjes_gamma, (1, 0)),
        (stieltjes_cumulant, (0, 0)),
        (prime_zeta_direct, (2, 0, 0)),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__,
)
def test_digits_must_be_a_positive_integer(fn, args):
    with pytest.raises(ValueError, match="digits"):
        fn(*args)


def test_boolean_order_cannot_poison_the_family_cache():
    # True == 1 in an lru_cache key, so an accepted True would be served
    # back later to a plain r = 1 request and encoded as "r": true
    with pytest.raises(ValueError):
        prime_zeta_taylor(True, 0, 20)
    fam = prime_zeta_taylor(1, 0, 20)
    assert type(fam.r) is int
    with tempfile.TemporaryDirectory() as root:
        save_pzeta(root, fam)
        with open(os.path.join(root, "pzeta_r1.json")) as fh:
            assert type(json.load(fh)["params"]["r"]) is int


@lru_cache(maxsize=None)
def _mpmath_stieltjes():
    """mpmath.stieltjes(n) for n <= 16 at 160 digits, by mpmath's own
    quadrature: the oracle for every Stieltjes constant checked here, now
    that stieltjes_gamma shares the engine's kernel (about 12 s, once)."""
    with mp.workdps(160):
        return tuple(mpmath.stieltjes(n) for n in range(17))


def _em_reference(x0, nmax, digits):
    """The Euler-Maclaurin sum by the mpf body that real arguments take."""
    M = _em_head_length(float(x0), nmax, digits)
    with mp.workdps(digits + 15):
        return _em_mpf(mp.mpf(x0), nmax, M, digits)


def _kernel_grid():
    # sampled engine arguments x0 = m*r <= 470, nmax <= 9, digits 20..131,
    # plus the corners: the longest tails sit at x0 = 2
    rng = random.Random(7)
    cases = {(2, 0, 136), (2, 9, 131), (45, 9, 131), (470, 0, 20)}
    while len(cases) < 64:
        r = rng.randint(2, 16)
        m = rng.randint(1, 470 // r)
        cases.add((m * r, rng.randint(0, 9), rng.randint(20, 131)))
    return sorted(cases)


_KERNEL_GRID = _kernel_grid()


class TestZetaTaylor:
    def test_zeta_two(self):
        with mp.workdps(40):
            got = zeta_taylor(2, 0, 35)[0]
            assert abs(got - mp.pi ** 2 / 6) < mp.mpf("1e-34")

    def test_derivatives_match_mpmath(self):
        with mp.workdps(40):
            for x in (2, 3, mp.mpf("2.5")):
                for a in range(4):
                    got = zeta_derivative(a, x, 30)
                    ref = mpmath.zeta(mp.mpf(1) * x, derivative=a)
                    assert abs(got - ref) < mp.mpf("1e-28"), (x, a)

    def test_close_to_pole_allowed_with_buffer(self):
        with mp.workdps(40):
            x = mp.mpf("1.01")
            got = zeta_taylor(x, 1, 25)
            ref0 = mpmath.zeta(x)
            ref1 = mpmath.zeta(x, derivative=1)
            assert abs(got[0] - ref0) < mp.mpf("1e-22")
            assert abs(got[1] - ref1) < mp.mpf("1e-20")

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            zeta_taylor(1.0005, 2, 20)
        with pytest.raises(ValueError):
            zeta_taylor(0.5, 2, 20)
        with pytest.raises(ValueError):
            zeta_derivative(-1, 2, 20)
        with pytest.raises(ValueError):
            zeta_taylor(2, -1, 20)

    @pytest.mark.parametrize("digits", [25, 80, 131])
    @pytest.mark.parametrize("x", [2, 3, 7, 20, 45, 90, 180, 460])
    def test_short_head_matches_mpmath(self, x, digits):
        got = zeta_taylor(x, 6, digits)
        with mp.workdps(digits + 15):
            for a in range(7):
                ref = mpmath.zeta(x, derivative=a) / mp.factorial(a)
                assert abs(got[a] - ref) < mp.mpf(10) ** (-digits), (x, a)

    def test_head_shrinks_with_the_argument(self):
        assert _em_head_length(2, 4, 30) == 30
        assert _em_head_length(45, 4, 30) < 30
        assert _em_head_length(460, 9, 131) == 3
        for x in (45, 90, 180, 460):
            lens = [_em_head_length(x, 6, d) for d in (25, 80, 131)]
            assert lens == sorted(lens)

    @pytest.mark.parametrize("x", [2, 45, 460])
    def test_integer_argument_at_order_zero_takes_no_log(self, x, monkeypatch):
        with mp.workdps(60):
            ref = mpmath.zeta(x)

        def no_log(*args, **kwargs):
            raise AssertionError("mp.log called")

        monkeypatch.setattr(mp, "log", no_log)
        got = zeta_taylor(x, 0, 50)[0]
        monkeypatch.undo()
        with mp.workdps(60):
            assert abs(got - ref) < mp.mpf(10) ** -50

    def test_engine_argument_grid_converges(self):
        # the Moebius loops call x0 = m*r up to about 470, nmax <= 9 and
        # digits <= 131; a head too short for its argument would make the
        # Euler-Maclaurin loop diverge and raise
        rng = random.Random(3)
        cases = {(470, 9, 131), (470, 0, 20), (45, 9, 131), (2, 9, 131)}
        while len(cases) < 60:
            r = rng.randint(2, 16)
            m = rng.randint(1, 470 // r)
            cases.add((m * r, rng.randint(0, 9), rng.randint(20, 131)))
        for x0, nmax, digits in sorted(cases):
            got = zeta_taylor(x0, nmax, digits)
            assert len(got) == nmax + 1
            assert all(mp.isfinite(c) for c in got), (x0, nmax, digits)

    @pytest.mark.parametrize("nmax", [0, 4])
    @pytest.mark.parametrize("x", [2, 45, 460])
    def test_integer_route_takes_no_mpf_bernoulli_or_factorial(self, x, nmax, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("mpf Bernoulli or factorial called")

        monkeypatch.setattr(mp, "bernoulli", banned)
        monkeypatch.setattr(mp, "factorial", banned)
        got = zeta_taylor(x, nmax, 50)
        monkeypatch.undo()
        with mp.workdps(60):
            for a in range(nmax + 1):
                ref = mpmath.zeta(x, derivative=a) / mp.factorial(a)
                assert abs(got[a] - ref) < mp.mpf(10) ** -50, a

    @pytest.mark.parametrize("nmax", [0, 4])
    @pytest.mark.parametrize("x", [2, mp.mpf("2.5")], ids=["integer", "real"])
    def test_short_head_at_small_argument_diverges(self, x, nmax, monkeypatch):
        # with M = 3 the corrections are smallest near i = 3*pi, about
        # 1e-8, far above a 50 digit threshold, so both routes must raise
        monkeypatch.setattr(oracles, "_em_head_length", lambda *args: 3)
        with pytest.raises(RuntimeError):
            zeta_taylor(x, nmax, 50)

    @pytest.mark.parametrize("nmax", [0, 4])
    def test_short_head_diverges_under_column_stepping(self, nmax):
        # with M = 3 the arguments from 140 up converge and leave the live
        # columns, while the small ones grow again and raise
        rows, _ = _em_fixed(range(140, 161), nmax, 3, 50)
        assert all(len(row) == nmax + 1 for row in rows)
        with pytest.raises(RuntimeError, match="diverged"):
            _em_fixed(range(1, 161), nmax, 3, 50)

    @pytest.mark.parametrize("x, nmax, digits", _KERNEL_GRID)
    def test_integer_kernel_matches_mpf_reference(self, x, nmax, digits):
        # within 2**-(prec+10) of the truncated sum, whose dropped remainder
        # is below its last correction, under 10**-(digits+10) * max(1, zeta)
        M = _em_head_length(float(x), nmax, digits)
        with mp.workdps(digits + 15):
            (ints,), B = _em_fixed(range(x, x + 1), nmax, M, digits)
            got = [mp.ldexp(mp.mpf(v), -B) for v in ints]
        ref = _em_reference(x, nmax, digits + 20)
        with mp.workdps(digits + 40):
            tol = mp.mpf(10) ** (-(digits + 10)) * max(1, abs(ref[0]))
            for a in range(nmax + 1):
                assert abs(got[a] - ref[a]) < tol, a
                exact = mpmath.zeta(x, derivative=a) / mp.factorial(a)
                assert abs(got[a] - exact) < 2 * tol, a

    @pytest.mark.parametrize("nmax, digits", [(0, 30), (4, 60), (9, 131)])
    def test_one_pass_matches_single_arguments(self, nmax, digits):
        # a pass over 1..40 shares M and B; each row agrees with a pass over
        # its own argument alone, both within their stop threshold
        M = _em_head_length(1, nmax, digits)
        with mp.workdps(digits + 15):
            rows, B = _em_fixed(range(1, 41), nmax, M, digits)
            assert len(rows[0]) == nmax and all(len(r) == nmax + 1 for r in rows[1:])
            for y in (1, 2, 7, 40):
                (one,), B1 = _em_fixed(range(y, y + 1), nmax, M, digits)
                tol = mp.mpf(10) ** (-(digits + 10)) * 4
                for a, v in enumerate(rows[y - 1]):
                    assert abs(mp.ldexp(v, -B) - mp.ldexp(one[a], -B1)) < tol, (y, a)

    def test_first_derivative_matches_finite_difference(self):
        digits = 30
        with mp.workdps(2 * digits):
            h = mp.mpf(10) ** (-digits // 3)
            fd = (zeta_derivative(0, 2 + h, digits) - zeta_derivative(0, 2 - h, digits)) / (2 * h)
            got = zeta_derivative(1, 2, digits)
            assert abs(got - fd) < mp.mpf(10) ** (-(digits // 3))


class TestStieltjes:
    def test_gamma_zero_is_euler_constant(self):
        with mp.workdps(45):
            got = stieltjes_gamma(0, 40)
            assert abs(got - mp.euler) < mp.mpf("1e-39")

    def test_matches_mpmath_stieltjes(self):
        with mp.workdps(35):
            for n in range(6):
                got = stieltjes_gamma(n, 30)
                ref = mpmath.stieltjes(n)
                assert abs(got - ref) < mp.mpf("1e-28"), n
        # every order P_4 asks for, at low, middle and high precision
        for digits in (131, 45, 15):
            with mp.workdps(digits + 10):
                for n, ref in enumerate(_mpmath_stieltjes()):
                    got = stieltjes_gamma(n, digits)
                    assert abs(got - ref) < mp.mpf(10) ** -digits, (digits, n)

    def test_gamma_one_leading_digits(self):
        with mp.workdps(30):
            got = stieltjes_gamma(1, 25)
            assert abs(got - mp.mpf("-0.0728158454")) < mp.mpf("1e-10")

    def test_cumulants(self):
        with mp.workdps(35):
            assert stieltjes_cumulant(0, 30) == 0
            g0 = stieltjes_gamma(0, 32)
            g1 = stieltjes_gamma(1, 32)
            assert abs(stieltjes_cumulant(1, 30) - g0) < mp.mpf("1e-28")
            # order two combines the first two constants
            ref = 2 * g1 + g0 * g0
            assert abs(stieltjes_cumulant(2, 30) - ref) < mp.mpf("1e-27")

    def test_gamma_series_rebuilds_zeta_near_pole(self):
        # zeta(1+s) = 1/s + sum (-1)^n gamma_n s^n / n!, checked at s = 0.01
        digits = 30
        with mp.workdps(digits + 10):
            s = mp.mpf(1) / 100
            acc = 1 / s
            for n in range(12):
                acc += (-1) ** n * stieltjes_gamma(n, digits) * s ** n / mp.factorial(n)
            direct = zeta_derivative(0, 1 + s, digits)
            assert abs(acc - direct) < mp.mpf(10) ** (-(digits // 2))

    def test_cumulant_series_evaluates_log(self):
        # -sum (-1)^n g_n s^n / n! at s = 0.1 against log(0.1 * zeta(1.1))
        digits = 25
        with mp.workdps(digits + 10):
            s = mp.mpf(1) / 10
            acc = mp.mpf(0)
            for n in range(1, 18):
                acc -= (-1) ** n * stieltjes_cumulant(n, digits) * s ** n / mp.factorial(n)
            direct = mp.log(s * zeta_derivative(0, 1 + s, digits))
            assert abs(acc - direct) < mp.mpf(10) ** (-(digits // 2))

    def test_cumulant_log_exp_round_trip(self):
        # exponentiating the log-series built from cumulants returns the
        # gamma-series coefficients
        with mp.workdps(40):
            lo = [mp.mpf(0)] + [
                -((-1) ** n) * stieltjes_cumulant(n, 32) / mp.factorial(n)
                for n in range(1, 7)
            ]
            ser = [mp.mpf(1)] + [mp.mpf(0)] * 6
            for w in range(1, 7):
                acc = mp.mpf(0)
                for j in range(1, w + 1):
                    acc += mp.mpf(j) / w * lo[j] * ser[w - j]
                ser[w] = acc
            for n in range(6):
                ref = (-1) ** n * stieltjes_gamma(n, 32) / mp.factorial(n)
                assert abs(ser[n + 1] - ref) < mp.mpf("1e-26"), n

    def test_validation(self):
        with pytest.raises(ValueError):
            stieltjes_gamma(-1, 20)


class TestPrimeZetaTaylor:
    def test_regularized_r1_leading_value(self):
        with mp.workdps(35):
            pz = prime_zeta_taylor(1, 3, 30)
            assert pz.r == 1
            assert abs(pz.coeffs[0] - mp.mpf("-0.315718452")) < mp.mpf("5e-10")

    def test_r2_head_value(self):
        # sum of inverse squared primes
        with mp.workdps(35):
            pz = prime_zeta_taylor(2, 0, 30)
            assert abs(pz.coeffs[0] - mp.mpf("0.45224742004106549850654336483224793")) < mp.mpf(
                "1e-28"
            )

    def test_digits_doubling_consistency(self):
        with mp.workdps(40):
            lo = prime_zeta_taylor(3, 4, 15)
            hi = prime_zeta_taylor(3, 4, 30)
            for a, b in zip(lo.coeffs, hi.coeffs):
                assert abs(a - b) < mp.mpf("1e-15")

    def test_superexponential_decay(self):
        with mp.workdps(30):
            for r in range(8, 16):
                c0 = prime_zeta_taylor(r, 0, 25).coeffs[0]
                assert abs(c0 - mp.mpf(2) ** (-r)) < 2 * mp.mpf(3) ** (-r)

    def test_two_routes_agree(self):
        with mp.workdps(35):
            for r in (2, 3, 4):
                a = prime_zeta_taylor(r, 4, 28)
                b = prime_zeta_direct(r, 4, 28)
                for n in range(5):
                    assert abs(a.coeffs[n] - b[n]) < mp.mpf("1e-25"), (r, n)

    def test_r10_against_brute_head(self):
        with mp.workdps(35):
            pz = prime_zeta_taylor(10, 4, 30)
            head = [mp.mpf(0)] * 5
            for p in primes_upto(2000):
                t = mp.mpf(p) ** (-10)
                head[0] += t
                L = -mp.log(p)
                for n in range(1, 5):
                    t = t * L / n
                    head[n] += t
            for n in range(5):
                slack = envelope_bound(10, n, 2000)
                assert abs(pz.coeffs[n] - head[n]) <= slack, n

    def test_coeffs_within_full_prime_envelope(self):
        # |c_n| can never exceed the all-primes envelope
        with mp.workdps(30):
            for r in (2, 3):
                pz = prime_zeta_taylor(r, 4, 25)
                for n in range(5):
                    cap = mp.mpf(2) ** (-r) * mp.log(2) ** n / mp.factorial(
                        n
                    ) + envelope_bound(r, n, 2)
                    assert abs(pz.coeffs[n]) <= cap, (r, n)

    def test_validation(self):
        with pytest.raises(ValueError):
            prime_zeta_taylor(0, 2, 20)
        with pytest.raises(ValueError):
            prime_zeta_taylor(2, -1, 20)
        with pytest.raises(ValueError):
            prime_zeta_direct(1, 2, 20)
        with pytest.raises(ValueError, match="nmax"):
            prime_zeta_direct(2, -1, 20)

    @pytest.mark.parametrize("r", [1, 0])
    def test_beyond_needs_r_at_least_2(self, r):
        # at r = 1 the full family is the regularized one: less the head it
        # is no beyond-cutoff sum
        with pytest.raises(ValueError, match="order r"):
            prime_zeta_beyond(r, 2, [2, 3], 20)
        with pytest.raises(ValueError, match="order r"):
            prime_zeta_beyond(r, 2, iter([2, 3]), 20)


def _mpf_stop_bound(r, nmax, digits, m):
    """The Moebius loop's stop test in mpf: the first m from the start with
    4 * m**nmax * 2**(-m*r) < 10**-(digits+10), and that bound."""
    thresh = mp.mpf(10) ** (-(digits + 10))
    while True:
        bound = 4 * mp.mpf(m) ** nmax * mp.mpf(2) ** (-m * r)
        if bound < thresh:
            return m, bound
        m += 1


def _mpf_stop_bound_11(r, nmax, digits):
    """The stop rule in mpf: the first m >= 1 with 4 * m**nmax * 11**(-m*r)
    < 10**-(digits+10), and that bound."""
    thresh, m = mp.mpf(10) ** (-(digits + 10)), 1
    while 4 * mp.mpf(m) ** nmax * mp.mpf(11) ** (-m * r) >= thresh:
        m += 1
    return m, 4 * mp.mpf(m) ** nmax * mp.mpf(11) ** (-m * r)


def _mpf_moebius_tail(r, nmax, stop):
    """Upper bounds, slot by slot, on the Moebius terms m >= stop that
    prime_zeta_taylor drops: sum over squarefree m of m**(n-1) (1/m in slot
    0) times log zeta_11's coefficient n at y = m*r, a sum over the prime
    powers q = p**k, p >= 11, of q**-y (log q)**n / (n! k).  q < 500 are
    summed; the integers past 500 add under the integral from 500, and the
    m past stop + 20 under 11**-(20 r) of the rest."""
    Q = 500
    qs = [(p ** k, k, mp.log(p ** k)) for p in primes_upto(Q) if p >= 11
          for k in range(1, 3) if p ** k < Q]
    LQ, out = mp.log(Q), [mp.mpf(0)] * (nmax + 1)
    for m in range(stop, stop + 21):
        if not mobius_int(m):
            continue
        y = m * r
        pw = [(mp.mpf(q) ** -y / k, L) for q, k, L in qs]
        for n in range(nmax + 1):
            lz = sum(v * L ** n for v, L in pw) + mp.mpf(Q) ** (1 - y) * sum(
                LQ ** i * mp.factorial(n) / (mp.factorial(i) * (y - 1) ** (n + 1 - i))
                for i in range(n + 1))
            out[n] += (mp.mpf(m) ** (n - 1) if n else mp.mpf(1) / m) * lz / mp.factorial(n)
    return [v * (1 + mp.mpf(11) ** (-20 * r)) for v in out]


def _family_reference(r, nmax, digits):
    """The family by the Moebius loop in mpf arithmetic: each log zeta series
    from zeta_taylor's rounded values, summed as Fraction(mu, m) * m**n * lz;
    r = 1 adds the log of the Stieltjes series, its constants from mpmath."""
    with mp.workdps(digits + 15):
        if r == 1:
            gam = _mpmath_stieltjes()[:nmax]
            s = [mp.mpf(1)]
            for m in range(1, nmax + 1):
                s.append((-1) ** (m - 1) * gam[m - 1] / mp.factorial(m - 1))
            out = _series_log_list(s)
            start = 2
        else:
            out = [mp.mpf(0)] * (nmax + 1)
            start = 1
        stop, _ = _mpf_stop_bound(r, nmax, digits, start)
        for m in range(start, stop):
            mu = mobius_int(m)
            if not mu:
                continue
            zt = zeta_taylor(m * r, nmax, digits + 5)
            lz = _series_log_list([mp.mpf(1)] + [v / zt[0] for v in zt[1:]])
            lz[0] = mp.log(zt[0])
            scale = mp.mpf(1)
            for n in range(nmax + 1):
                out[n] += Fraction(mu, m) * scale * lz[n]
                scale *= m
    return out


_FAMILY_GRID = [
    (r, nmax, digits)
    for r in (1, 2, 3, 9, 16)
    for nmax in (0, 4, 9)
    for digits in (20, 60, 131)
]


class TestMoebiusPass:
    @pytest.mark.parametrize("r, nmax, digits", _FAMILY_GRID)
    def test_family_matches_mpf_reference(self, r, nmax, digits):
        # within prime_zeta_taylor's stated accuracy, 4 * T + 10**-(digits+12)
        got = prime_zeta_taylor(r, nmax, digits)
        ref = _family_reference(r, nmax, digits + 20)
        with mp.workdps(digits + 40):
            _, bound = _mpf_stop_bound(r, nmax, digits, 1)
            tol = 4 * bound + mp.mpf(10) ** (-(digits + 12))
            for n in range(nmax + 1):
                assert abs(got.coeffs[n] - ref[n]) < tol, n

    @pytest.mark.parametrize("r, nmax, digits", _FAMILY_GRID)
    def test_stop_rule_keeps_the_mpf_tail_bounds(self, r, nmax, digits):
        # the integer stop test stops where the mpf one does, and the terms
        # it drops, over the primes from 11 up, stay under its bound
        with mp.workdps(digits + 15):
            want, bound = _mpf_stop_bound_11(r, nmax, digits)
            assert zeta_numerics._moebius_stop(r, nmax, digits) == want
            for n, tail in enumerate(_mpf_moebius_tail(r, nmax, want)):
                assert tail < bound, n

    def test_family_does_not_depend_on_the_history(self):
        # each log zeta value depends on (y, nmax, digits) alone, so a family
        # and every value it reads come out the same cold, or after families
        # of other r, other digits and other orders filled their tables
        def family_and_reads(r, nmax, digits):
            rows, _, _ = zeta_numerics._log_zeta_table(nmax, digits)
            stop = zeta_numerics._moebius_stop(r, nmax, digits)
            fam = prime_zeta_taylor(r, nmax, digits)
            return fam, [rows[m * r] for m in range(1, stop)]

        zeta_numerics._compute_prime_zeta.cache_clear()
        zeta_numerics._log_zeta_table.cache_clear()
        cold, cold_reads = family_and_reads(3, 4, 30)
        zeta_numerics._compute_prime_zeta.cache_clear()
        zeta_numerics._log_zeta_table.cache_clear()
        for r, nmax, digits in [(7, 4, 30), (1, 4, 30), (3, 4, 50), (3, 9, 30),
                                (2, 0, 30)]:
            prime_zeta_taylor(r, nmax, digits)
        warm, warm_reads = family_and_reads(3, 4, 30)
        assert warm is not cold
        assert warm_reads == cold_reads
        assert [v._mpf_ for v in warm.coeffs] == [v._mpf_ for v in cold.coeffs]

    @pytest.mark.parametrize("r", [2, 9])
    def test_higher_orders_take_no_mpf_series_log(self, r, monkeypatch):
        want = zeta_numerics._compute_prime_zeta.__wrapped__(r, 4, 30)

        def banned(*args, **kwargs):
            raise AssertionError("mpf series log called")

        monkeypatch.setattr(oracles, "_series_log_list", banned)
        got = zeta_numerics._compute_prime_zeta.__wrapped__(r, 4, 30)
        assert got == want


def _euler_bits(y, nmax, b):
    """The least t with which the Euler product is within its bound at y."""
    return max(2, -(-(b + 4 * nmax + 4) // (y - 1)))


# md5 of repr((rows, mu, b)) of each log zeta_11 table
LOG_ZETA_DIGESTS = {
    (0, 75): "0de3d267c317aed6234577bf35d1efed",
    (4, 37): "47c314ba79d826f1817caf3e27ca32b3",
    (9, 60): "1297619bd9bb240d5a19d06fb9bd5a7d",
    (2, 15): "7596da76ca7b895be272e09935b16e91",
    (16, 30): "52fd3b9c4c6140677a38b5c30d7d8bca",
}


class TestLogZetaRoutes:
    @pytest.mark.parametrize("nmax, digits", list(LOG_ZETA_DIGESTS))
    def test_tables_match_their_digests(self, nmax, digits):
        # a fresh build, past the memo: the tables are exact, so a change to
        # the power-sum kernel or the series code that moves any bit shows
        table = zeta_numerics._log_zeta_table.__wrapped__(nmax, digits)
        digest = hashlib.md5(repr(table).encode()).hexdigest()
        assert digest == LOG_ZETA_DIGESTS[(nmax, digits)]

    @pytest.mark.parametrize("b", [120, 260, 480])
    @pytest.mark.parametrize("nmax", [0, 4, 9, 16])
    def test_both_routes_agree_around_the_crossover(self, nmax, b):
        # each route is within 2**(2*nmax + 6) units of the exact log, on
        # the four arguments each side of the table's crossover
        y_eta, _ = zeta_numerics._crossover(nmax, b)
        ys = range(y_eta - 3, y_eta + 5)
        assert ys[0] > nmax
        borwein = zeta_numerics._log_series(
            ys, zeta_numerics._zeta_borwein(ys, nmax, b), nmax, b)
        for y, want in zip(ys, borwein):
            (euler,) = zeta_numerics._log_zeta_euler(
                range(y, y + 1), nmax, b, _euler_bits(y, nmax, b))
            for a in range(nmax + 1):
                assert abs(euler[a] - want[a]) < 2 ** (2 * nmax + 7), (y, a)

    @pytest.mark.parametrize("nmax, digits", [(0, 20), (4, 37), (0, 68), (9, 131)])
    def test_table_splits_at_the_crossover(self, nmax, digits, monkeypatch):
        # one Borwein pass over 1..y_eta, one Euler product beyond, its
        # primes those below 2**t, enough for its first argument
        calls = []
        for name in ("_zeta_borwein", "_log_zeta_euler"):
            real = getattr(zeta_numerics, name)

            def counted(ys, *args, real=real, name=name):
                calls.append((name, ys[0], ys[-1]) + args[2:])
                return real(ys, *args)

            monkeypatch.setattr(zeta_numerics, name, counted)
        zeta_numerics._log_zeta_table.cache_clear()
        rows, mu, b = zeta_numerics._log_zeta_table(nmax, digits)
        zeta_numerics._log_zeta_table.cache_clear()
        y_eta, t = zeta_numerics._crossover(nmax, b)
        top = len(rows) - 1
        assert calls == [("_zeta_borwein", 1, y_eta),
                         ("_log_zeta_euler", y_eta + 1, top, t)]
        assert t >= _euler_bits(y_eta + 1, nmax, b) and 2 <= t <= 13
        assert rows[0] is None and all(len(r) == nmax + 1 for r in rows[1:])
        assert mu == zeta_numerics._mobius_sieve(top)

    def test_route_check_catches_a_short_borwein_series(self, monkeypatch):
        # the oracle row passes on the table, and fails once Borwein's n is
        # cut to half, its truncation then far above the kernels' bounds
        oracles._check_log_zeta_routes()
        real = zeta_numerics._borwein_size

        def half(nmax, b):
            n, B = real(nmax, b)
            return n // 2, B

        monkeypatch.setattr(zeta_numerics, "_borwein_size", half)
        zeta_numerics._log_zeta_table.cache_clear()
        try:
            with pytest.raises(AssertionError, match="log zeta routes differ"):
                oracles._check_log_zeta_routes()
        finally:
            zeta_numerics._log_zeta_table.cache_clear()

    def test_table_covers_every_family(self):
        # a family at (nmax, digits) reads y = m*r < the r = 1 stop
        for nmax, digits in [(0, 20), (4, 37), (9, 60)]:
            rows, _, _ = zeta_numerics._log_zeta_table(nmax, digits)
            for r in range(1, 400):
                stop = zeta_numerics._moebius_stop(r, nmax, digits)
                assert (stop - 1) * r < len(rows), (nmax, digits, r)
                assert stop <= len(rows), (nmax, digits, r)

    @pytest.mark.parametrize("nmax, digits", [(0, 68), (4, 37)])
    def test_table_takes_no_mpf_log(self, nmax, digits, monkeypatch):
        # c0's and lead5's tables built with mpmath's log banned, every row
        # within 2**(2*nmax + 6) units of the series log of mpf references
        def banned(*args, **kwargs):
            raise AssertionError("mpf_log called")

        with monkeypatch.context() as m:
            for target in (mpmath.libmp.libelefun, mpmath.libmp):
                m.setattr(target, "mpf_log", banned)
            m.setattr(zeta_numerics, "mpf_log", banned, raising=False)
            zeta_numerics._log_zeta_table.cache_clear()
            rows, _, b = zeta_numerics._log_zeta_table(nmax, digits)
        zeta_numerics._log_zeta_table.cache_clear()
        d = math.ceil(b * math.log10(2)) + 5
        # log zeta_11 = log zeta plus the small primes' factor logs
        facs = oracles._small_prime_logs(range(1, len(rows)), nmax, b)
        with mp.workdps(d + 15):
            tol = mp.ldexp(2 ** (2 * nmax + 6), -b)
            gam = _mpmath_stieltjes() if nmax else ()
            pole = [1] + [(-1) ** n * gam[n] / mp.factorial(n) for n in range(nmax)]
            for y, fac in zip(range(1, len(rows)), facs):
                if y == 1:
                    ref = _series_log_list(pole)
                else:
                    z = _em_mpf(mp.mpf(y), nmax, _em_head_length(y, nmax, d), d)
                    ref = _series_log_list([1] + [v / z[0] for v in z[1:]])
                    ref[0] = mp.log(z[0])
                for a in range(nmax + 1):
                    got = rows[y][a] - fac[a]
                    assert abs(mp.ldexp(got, -b) - ref[a]) < tol, (y, a)

    @pytest.mark.parametrize("nmax", [0, 4, 16])
    def test_factor_rows_are_zeta_11(self, nmax):
        # Borwein's rows y >= 2 carry the four factors 1 - p**-(y+u), each
        # coefficient within 2 units of mpf zeta(y + u) times them; the
        # pole row stays zeta(1 + u) - 1/u
        b, ys = 200, range(1, 8)
        rows = zeta_numerics._zeta_borwein(ys, nmax, b)
        with mp.workdps(90):
            for y, row in zip(ys[1:], rows[1:]):
                z = zeta_taylor(y, nmax, 80)
                for p in zeta_numerics.SMALL_PRIMES:
                    q, L = mp.mpf(p) ** -y, mp.log(p)
                    f = [1 - q] + [-q * (-L) ** j / mp.factorial(j) for j in range(1, nmax + 1)]
                    z = [sum(z[a - j] * f[j] for j in range(a + 1)) for a in range(nmax + 1)]
                for a in range(nmax + 1):
                    assert abs(mp.ldexp(row[a], -b) - z[a]) < mp.ldexp(2, -b), (y, a)
            gam = _mpmath_stieltjes()
            for a, v in enumerate(rows[0]):
                ref = (-1) ** a * gam[a] / mp.factorial(a)
                assert abs(mp.ldexp(v, -b) - ref) < mp.ldexp(2, -b), a

    @pytest.mark.parametrize("nmax", [0, 4, 16])
    def test_pole_factor_logs_match_mpf(self, nmax, monkeypatch):
        # sum_{p < 11} log(1 - p**-(1+u)) within 5 units, its constant from
        # the atanh series alone: at nmax = 0 no log table is built
        monkeypatch.setattr(zeta_numerics, "_logs", ([0, 0], 0, 0))
        b = 300
        got = zeta_numerics._pole_factor_logs(nmax, b)
        assert len(got) == nmax + 1
        if not nmax:
            assert zeta_numerics._logs[0] == [0, 0]
        with mp.workdps(120):
            ref = [mp.mpf(0)] * (nmax + 1)
            for p in zeta_numerics.SMALL_PRIMES:
                for k in range(1, 1200):
                    t = mp.mpf(p) ** -k / k
                    for a in range(nmax + 1):
                        ref[a] -= t * (-k * mp.log(p)) ** a / mp.factorial(a)
            for a in range(nmax + 1):
                assert abs(mp.ldexp(got[a], -b) - ref[a]) < mp.ldexp(5, -b), a

    @pytest.mark.parametrize("nmax", [0, 4, 16])
    def test_pole_is_the_log_of_the_stieltjes_series(self, nmax):
        # log(u * zeta(1 + u)) from mpmath's Stieltjes constants, by the
        # table's Borwein row and by the oracles' Euler-Maclaurin one
        b, pole = 300, range(1, 2)
        routes = [zeta_numerics._log_series(
            pole, zeta_numerics._zeta_borwein(pole, nmax, b), nmax, b),
            oracles._log_zeta_em(pole, nmax, b)]
        with mp.workdps(110):
            gam = _mpmath_stieltjes()
            s = [mp.mpf(1)] + [(-1) ** n * gam[n] / mp.factorial(n) for n in range(nmax)]
            ref = _series_log_list(s)
            for (got,) in routes:
                for a in range(nmax + 1):
                    assert abs(mp.ldexp(got[a], -b) - ref[a]) < mp.ldexp(2 ** (2 * nmax + 6), -b), a


def _relative_extra(r, primes):
    """Digits beyond a relative accuracy that carry it as an absolute one:
    the beyond family is about max(primes)**(1-r)."""
    return int(r * math.log10(max(*primes, 4) / 2.0)) + 8 if primes else 0


def _beyond_reference(r, nmax, primes, digits):
    """The head subtraction as a plain mpf loop, at its own precision."""
    extra = _relative_extra(r, primes)
    base = prime_zeta_taylor(r, nmax, digits + extra)
    with mp.workdps(digits + 10 + extra):
        out = list(base.coeffs[: nmax + 1])
        for p in primes:
            Lp = -mp.log(p)
            t = mp.mpf(p) ** (-r)
            out[0] -= t
            for n in range(1, nmax + 1):
                t = t * Lp / n
                out[n] -= t
    return out


class TestBeyondAndEnvelope:
    @pytest.mark.parametrize("r", [2, 9, 16])
    @pytest.mark.parametrize("pcut, nmax, digits", [(67968, 0, 60), (3200, 4, 40)])
    def test_fixed_point_head_matches_mpf_loop(self, r, pcut, nmax, digits):
        ps = primes_upto(pcut)
        got = prime_zeta_beyond(r, nmax, ps, digits + _relative_extra(r, ps))
        ref = _beyond_reference(r, nmax, ps, digits + 20)
        with mp.workdps(digits + 30):
            for n in range(nmax + 1):
                assert abs(got[n] - ref[n]) < mp.mpf(10) ** (-(digits + 3)) * abs(ref[n]), n

    @pytest.mark.parametrize("primes", [[], [2], [7, 2, 5, 3]])
    def test_fixed_point_head_short_lists(self, primes):
        got = prime_zeta_beyond(3, 4, primes, 30)
        ref = _beyond_reference(3, 4, primes, 50)
        with mp.workdps(60):
            for n in range(5):
                assert abs(got[n] - ref[n]) < mp.mpf(10) ** -33 * abs(ref[n]), n

    def test_chunk_sums_are_exact_floors(self):
        # one pass over r = 2..20: each row is an exact floor, the same as a
        # pass of its own starting at that r
        ps = primes_upto(3200)
        B, rows = head_power_sums(ps, 2, 20, 4, 40)
        assert len(rows) == 19
        for r, row in enumerate(rows, 2):
            assert row[0] == sum((1 << B) // p**r for p in ps), r
            assert head_power_sums(ps, r, r, 4, 40) == (B, [row]), r
            assert head_power_sums(ps, r, 20, 4, 40)[1][0] == row, r

    def test_column_cut_is_exact_at_head_scale(self):
        # at 5 digits B is 94 bits, so by r = 40 every prime but 2, 3 and 5
        # has all its terms at 0 and the kernel has cut its column; each row
        # is still, bit for bit, the per-prime sum of floor(w_n / p**r), w_n
        # the chain from 2**B (a term at 0 stays 0, so a prime's loop ends
        # once p**r passes its largest w_n)
        ps, nmax = primes_upto(67968), 4
        B, rows = head_power_sums(ps, 2, 40, nmax, 5)
        want, live = [[0] * (nmax + 1) for _ in range(2, 41)], []
        for p in ps:
            w, L = [1 << B], int_log(p, B)
            for n in range(1, nmax + 1):
                w.append((w[-1] * L >> B) // n)
            if p**40 <= max(w):
                live.append(p)
            for r in range(2, 41):
                q = p**r
                if q > max(w):
                    break
                for n, v in enumerate(w):
                    want[r - 2][n] += v // q
        assert live == [2, 3, 5]
        assert rows == want
        assert head_power_sums([], 2, 40, nmax, 5)[1] == [[0] * (nmax + 1)] * 39
        assert head_power_sums(ps, 5, 4, nmax, 5) == (B, [])
        assert head_power_sums([], 5, 4, nmax, 5)[1] == []

    @pytest.mark.parametrize(
        "pcut, nmax, digits", [(67968, 0, 60), (3200, 4, 40), (316, 4, 25)]
    )
    def test_shared_head_matches_fresh_list(self, pcut, nmax, digits):
        # the engine's route, one table over r = 2..20 from one sieved list,
        # is bit for bit prime_zeta_beyond's, which validates a fresh list
        # and sums it one r at a time
        ps = primes_upto(pcut)
        Bh, rows = head_power_sums(ps, 2, 20, nmax, digits)
        B = dps_to_prec(digits + 13)
        for r, row in enumerate(rows, 2):
            coeffs = prime_zeta_taylor(r, nmax, digits).coeffs
            shared = zeta_numerics.prime_zeta_fixed(coeffs, nmax, B, row, Bh)
            fresh = prime_zeta_beyond(r, nmax, list(ps), digits)
            with mp.workdps(digits + 5):
                assert [mp.ldexp(v, -B)._mpf_ for v in shared] == [
                    v._mpf_ for v in fresh], r

    @pytest.mark.parametrize(
        "primes", [[2.5], [2, 2], [1], [0], [-3], [True], [4], [2, 3, 9], [3, None]]
    )
    def test_bad_head_primes_rejected(self, primes):
        with pytest.raises(ValueError):
            checked_primes(primes)
        with pytest.raises(ValueError):
            prime_zeta_beyond(3, 0, primes, 20)

    def test_head_primes_past_the_cutoff_cap_rejected_before_the_sieve(self):
        # a sieve to 10**9 would take about 1 GB; the cap check allocates none
        tracemalloc.start()
        try:
            for primes in ([1_000_000_007], [2, 2_000_003]):
                with pytest.raises(ValueError):
                    checked_primes(primes)
                with pytest.raises(ValueError):
                    prime_zeta_beyond(2, 0, primes, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert checked_primes([1_999_993]) == [1_999_993]
        assert checked_primes((p for p in [7, 2, 5])) == [2, 5, 7]

    @pytest.mark.parametrize("x", [2, 631, 67_968])
    def test_upto_sieves_once(self, x, monkeypatch):
        # the engine's list comes from one sieve: head_power_sums takes it
        # as it is, while checked_primes sieves it a second time and passes
        calls = []
        real = zeta_numerics._prime_flags
        monkeypatch.setattr(zeta_numerics, "_prime_flags",
                            lambda n: calls.append(n) or real(n))
        ps = primes_upto(x)
        head_power_sums(ps, 3, 5, 2, 30)
        assert calls == [x]
        assert checked_primes(ps) == ps
        assert calls == [x, ps[-1]]

    def test_empty_head_sums_are_zero(self):
        assert head_power_sums([], 3, 5, 2, 30)[1] == [[0, 0, 0]] * 3
        assert head_power_sums([], 5, 5, 0, 30)[1] == [[0]]
        assert head_power_sums(primes_upto(1), 2, 2, 1, 30)[1] == [[0, 0]]

    def test_upto_rejects_past_the_cap(self):
        # the sieved list up to the cap passes the checks; one prime past it
        # does not
        ps = primes_upto(zeta_numerics.MAX_HEAD_PRIME)
        assert ps[-1] == 1_999_993
        assert checked_primes(ps) == ps
        with pytest.raises(ValueError, match="lie in"):
            checked_primes(ps + [2_000_003])

    def test_beyond_nothing_is_full(self):
        with mp.workdps(30):
            full = prime_zeta_taylor(2, 3, 25).coeffs
            beyond = prime_zeta_beyond(2, 3, [], 25)
            for a, b in zip(full, beyond):
                assert abs(a - b) < mp.mpf("1e-24")

    def test_beyond_bounded_by_envelope(self):
        with mp.workdps(35):
            ps = primes_upto(100)
            for r in (2, 3):
                tail = prime_zeta_beyond(r, 4, ps, 28)
                for n in range(5):
                    assert abs(tail[n]) <= envelope_bound(r, n, 100), (r, n)

    def test_beyond_matches_midrange_brute_sum(self):
        with mp.workdps(40):
            ps_small = primes_upto(50)
            tail = prime_zeta_beyond(3, 3, ps_small, 30)
            mid = [mp.mpf(0)] * 4
            for p in primes_upto(20000):
                if p <= 50:
                    continue
                t = mp.mpf(p) ** (-3)
                mid[0] += t
                L = -mp.log(p)
                for n in range(1, 4):
                    t = t * L / n
                    mid[n] += t
            for n in range(4):
                assert abs(tail[n] - mid[n]) <= envelope_bound(3, n, 20000) + mp.mpf(
                    "1e-28"
                ), n

    def test_envelope_validation(self):
        for M in (float("inf"), float("-inf"), float("nan"), mp.inf, mp.nan,
                  complex(100, 0), "100", None):
            with pytest.raises(ValueError, match="M must be"):
                envelope_bound(2, 0, M)
        with pytest.raises(ValueError):
            envelope_bound(1, 0, 100)
        with pytest.raises(ValueError):
            envelope_bound(2, -1, 100)
        with pytest.raises(ValueError):
            envelope_bound(2, 0, 1)

    def test_envelope_decreases_in_cutoff(self):
        with mp.workdps(20):
            b1 = envelope_bound(2, 2, 100)
            b2 = envelope_bound(2, 2, 1000)
            assert b2 < b1

    @pytest.mark.parametrize("M", [2, 50, 59, 316, 67968])
    @pytest.mark.parametrize("r", [2, 3, 10, 14])
    def test_envelope_is_its_formula_rounded_up(self, r, M):
        # never below the formula at 60 digits, and within 10**-(digits+5)
        # of it relative; where n/r > log M the explicit stretch (M, M'] is
        # not empty: (r, n) = (2, 12) sums (M, 403] for every M <= 316
        for n in range(13):
            mprime = max(M, int(math.exp(n / r)) + 1)
            with mp.workdps(60):
                stretch = sum(mp.mpf(j) ** -r * mp.log(j) ** n
                              for j in range(M + 1, mprime + 1))
                L = mp.log(mprime)
                integral = sum(mp.factorial(n) / mp.factorial(i) * L**i
                               / mp.mpf(r - 1) ** (n + 1 - i) for i in range(n + 1))
                want = (stretch + mp.mpf(mprime) ** (1 - r) * integral) / mp.factorial(n)
                for digits in (15, 30):
                    got = envelope_bound(r, n, M, digits)
                    assert want <= got <= want * (1 + mp.mpf(10) ** -(digits + 5)), (n, digits)

    def test_envelope_leaves_the_log_table_alone(self):
        # log M' comes from mpmath rounded up, not from int_log's shared
        # table, which at M = 67968 would grow to 67968 entries
        before = len(zeta_numerics._logs[0])
        for n in (0, 4, 12):
            envelope_bound(3, n, 67968)
        envelope_bound(2, 12, 2)
        assert len(zeta_numerics._logs[0]) == before


class TestInstallHook:
    def test_install_and_clear(self):
        with mp.workdps(30):
            real = prime_zeta_taylor(5, 2, 20)
            fake = PrimeZetaCoeffs(5, tuple(c + 1 for c in real.coeffs), 25)
            install_prime_zeta(5, fake)
            try:
                got = prime_zeta_taylor(5, 2, 20)
                assert got is fake
            finally:
                install_prime_zeta(5, None)
            again = prime_zeta_taylor(5, 2, 20)
            assert abs(again.coeffs[0] - real.coeffs[0]) < mp.mpf("1e-18")

    def test_insufficient_entry_recomputed(self):
        with mp.workdps(30):
            real = prime_zeta_taylor(6, 2, 20)
            shallow = PrimeZetaCoeffs(6, real.coeffs[:2], 20)
            install_prime_zeta(6, shallow)
            try:
                got = prime_zeta_taylor(6, 2, 20)
                assert len(got.coeffs) >= 3
                weak = PrimeZetaCoeffs(6, real.coeffs, 10)
                install_prime_zeta(6, weak)
                got = prime_zeta_taylor(6, 2, 20)
                assert got.digits >= 20
            finally:
                install_prime_zeta(6, None)
