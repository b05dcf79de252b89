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

from zetamoments import zeta_numerics
from zetamoments.cli import save_pzeta
from zetamoments.oracles import mobius_int, prime_zeta_direct
from zetamoments.zeta_numerics import (
    HeadPrimes,
    PrimeZetaCoeffs,
    _em_fixed,
    _em_head_length,
    _em_mpf,
    _round_out,
    _series_log_list,
    bernoulli,
    envelope_bound,
    install_prime_zeta,
    int_log,
    prime_zeta_beyond,
    prime_zeta_taylor,
    primes_upto,
    stieltjes_cumulant,
    stieltjes_gamma,
    zeta_derivative,
    zeta_taylor,
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
        # a fresh process has neither table; lead5's log requests (j <= 509,
        # B <= 259) build the log table three times, and a smaller (j, B)
        # reads it without a build
        code = ("import zetamoments.cli\n"
                "from zetamoments import zeta_numerics as z\n"
                "print(len(z._logs[0]), len(z._bernoulli_ratios))")
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
        monkeypatch.setattr(zeta_numerics, "_bernoulli_ratios", [None])
        for n in range(201):
            p, q = mp.bernfrac(n)
            assert bernoulli(n) == Fraction(int(p), int(q)), n
        assert len(zeta_numerics._bernoulli_ratios) == 161

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
        monkeypatch.setattr(zeta_numerics, "_bernoulli_ratios", [None])
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
        assert len(zeta_numerics._bernoulli_ratios) > 1


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
        monkeypatch.setattr(zeta_numerics, "_em_head_length", lambda *args: 3)
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

    def test_tail_bounds_populated_and_small(self):
        with mp.workdps(30):
            pz = prime_zeta_taylor(2, 4, 25)
            assert len(pz.tail_bounds) == 5
            for tb in pz.tail_bounds:
                assert 0 < tb < mp.mpf("1e-20")

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
            prime_zeta_beyond(r, 2, HeadPrimes([2, 3]), 20)


def _mpf_stop_bound(r, nmax, digits, m):
    """The Moebius loop's stop test in mpf: the first m from the start with
    4 * m**nmax * 2**(-m*r) < 10**-(digits+10), and that bound."""
    thresh = mp.mpf(10) ** (-(digits + 10))
    while True:
        bound = 4 * mp.mpf(m) ** nmax * mp.mpf(2) ** (-m * r)
        if bound < thresh:
            return m, bound
        m += 1


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
        got = zeta_numerics._compute_prime_zeta.__wrapped__(r, nmax, digits)
        ref = _family_reference(r, nmax, digits + 20)
        # the exact sums; the half ulp is the rounding to digits + 5 digits
        # that prime_zeta_taylor adds on the way out
        half_ulp = mp.mpf(2) ** -dps_to_prec(digits + 5)
        with mp.workdps(digits + 40):
            for n in range(nmax + 1):
                tol = mp.mpf(10) ** (-(digits + 10)) + abs(ref[n]) * half_ulp
                assert abs(got.coeffs[n] - ref[n]) < tol, n

    @pytest.mark.parametrize("r, nmax, digits", _FAMILY_GRID)
    def test_stop_rule_keeps_the_mpf_tail_bounds(self, r, nmax, digits):
        # the public view adds the tail bounds to the memoized sums
        got = prime_zeta_taylor(r, nmax, digits)
        with mp.workdps(digits + 15):
            _, bound = _mpf_stop_bound(r, nmax, digits, 2 if r == 1 else 1)
            floor = mp.mpf(10) ** (-(digits + 2 if r == 1 else digits + 4))
            want = _round_out([4 * bound + floor] * (nmax + 1), digits)
        assert [v._mpf_ for v in got.tail_bounds] == [v._mpf_ for v in want]

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
        assert warm.tail_bounds == cold.tail_bounds

    @pytest.mark.parametrize("r", [2, 9])
    def test_higher_orders_take_no_mpf_series_log(self, r, monkeypatch):
        want = zeta_numerics._compute_prime_zeta.__wrapped__(r, 4, 30)

        def banned(*args, **kwargs):
            raise AssertionError("mpf series log called")

        monkeypatch.setattr(zeta_numerics, "_series_log_list", banned)
        got = zeta_numerics._compute_prime_zeta.__wrapped__(r, 4, 30)
        assert got == want


def _euler_bits(y, nmax, b):
    """The least t with which the Euler product is within its bound at y."""
    return max(2, -(-(b + 4 * nmax + 4) // (y - 1)))


class TestLogZetaRoutes:
    @pytest.mark.parametrize("b", [120, 260, 480])
    @pytest.mark.parametrize("nmax", [0, 4, 9, 16])
    def test_both_routes_agree_around_the_crossover(self, nmax, b):
        # each route is within 2**(2*nmax + 6) units of the exact log, on
        # the four arguments each side of the table's crossover
        y_em, _ = zeta_numerics._crossover(nmax, b)
        ys = range(y_em - 3, y_em + 5)
        assert ys[0] > nmax
        em = zeta_numerics._log_zeta_em(ys, nmax, b)
        for y, want in zip(ys, em):
            (euler,) = zeta_numerics._log_zeta_euler(
                range(y, y + 1), nmax, b, _euler_bits(y, nmax, b))
            for a in range(nmax + 1):
                assert abs(euler[a] - want[a]) < 2 ** (2 * nmax + 7), (y, a)

    @pytest.mark.parametrize("nmax, digits", [(0, 20), (4, 37), (0, 68), (9, 131)])
    def test_table_splits_at_the_crossover(self, nmax, digits, monkeypatch):
        # one Euler-Maclaurin pass over 1..y_em, one Euler product beyond,
        # its primes those below 2**t, enough for its first argument
        calls = []
        for name in ("_log_zeta_em", "_log_zeta_euler"):
            real = getattr(zeta_numerics, name)

            def counted(ys, *args, real=real, name=name):
                calls.append((name, ys[0], ys[-1]) + args[2:])
                return real(ys, *args)

            monkeypatch.setattr(zeta_numerics, name, counted)
        zeta_numerics._log_zeta_table.cache_clear()
        rows, mu, b = zeta_numerics._log_zeta_table(nmax, digits)
        zeta_numerics._log_zeta_table.cache_clear()
        y_em, t = zeta_numerics._crossover(nmax, b)
        top = len(rows) - 1
        assert calls == [("_log_zeta_em", 1, y_em),
                         ("_log_zeta_euler", y_em + 1, top, t)]
        assert t >= _euler_bits(y_em + 1, nmax, b) and 2 <= t <= 13
        assert rows[0] is None and all(len(r) == nmax + 1 for r in rows[1:])
        assert mu == zeta_numerics._mobius_sieve(top)

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
        with mp.workdps(d + 15):
            tol = mp.ldexp(2 ** (2 * nmax + 6), -b)
            gam = _mpmath_stieltjes() if nmax else ()
            pole = [1] + [(-1) ** n * gam[n] / mp.factorial(n) for n in range(nmax)]
            for y in range(1, len(rows)):
                if y == 1:
                    ref = _series_log_list(pole)
                else:
                    z = _em_mpf(mp.mpf(y), nmax, _em_head_length(y, nmax, d), d)
                    ref = _series_log_list([1] + [v / z[0] for v in z[1:]])
                    ref[0] = mp.log(z[0])
                for a in range(nmax + 1):
                    assert abs(mp.ldexp(rows[y][a], -b) - ref[a]) < tol, (y, a)

    @pytest.mark.parametrize("nmax", [0, 4, 16])
    def test_pole_is_the_log_of_the_stieltjes_series(self, nmax):
        # log(u * zeta(1 + u)) from mpmath's Stieltjes constants
        b = 300
        (got,) = zeta_numerics._log_zeta_em(range(1, 2), nmax, b)
        with mp.workdps(110):
            gam = _mpmath_stieltjes()
            s = [mp.mpf(1)] + [(-1) ** n * gam[n] / mp.factorial(n) for n in range(nmax)]
            ref = _series_log_list(s)
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
        ps = primes_upto(3200)
        head = HeadPrimes(ps)
        for r in range(2, 21):
            sums, B = head.sums(r, 4, 40)
            assert sums[0] == sum((1 << B) // p**r for p in ps), r

    @pytest.mark.parametrize(
        "pcut, nmax, digits", [(67968, 0, 60), (3200, 4, 40), (316, 4, 25)]
    )
    def test_shared_head_matches_fresh_list(self, pcut, nmax, digits):
        ps = primes_upto(pcut)
        head = HeadPrimes(ps)
        for r in range(2, 21):
            shared = prime_zeta_beyond(r, nmax, head, digits)
            fresh = prime_zeta_beyond(r, nmax, ps, digits)
            assert [v._mpf_ for v in shared] == [v._mpf_ for v in fresh], r

    def test_shared_head_restarts(self):
        ps = primes_upto(500)
        head = HeadPrimes(ps)
        # r stepping backwards, nmax growing, digits changing, the last r of
        # a chunk, and r past its end; each new chunk starts at the asked r
        for r, nmax, digits, r0 in [(9, 2, 30, 9), (5, 2, 30, 5), (6, 4, 30, 6),
                                    (7, 4, 45, 7), (22, 4, 45, 7), (23, 4, 45, 23)]:
            got = prime_zeta_beyond(r, nmax, head, digits)
            want = prime_zeta_beyond(r, nmax, ps, digits)
            assert [v._mpf_ for v in got] == [v._mpf_ for v in want], r
            assert head._r0 == r0

    @pytest.mark.parametrize(
        "primes", [[2.5], [2, 2], [1], [0], [-3], [True], [4], [2, 3, 9], [3, None]]
    )
    def test_bad_head_primes_rejected(self, primes):
        with pytest.raises(ValueError):
            HeadPrimes(primes)
        with pytest.raises(ValueError):
            prime_zeta_beyond(3, 0, primes, 20)

    def test_head_primes_past_the_cutoff_cap_rejected_before_the_sieve(self):
        # a sieve to 10**9 would take about 1 GB; the cap check allocates none
        tracemalloc.start()
        try:
            for primes in ([1_000_000_007], [2, 2_000_003]):
                with pytest.raises(ValueError):
                    HeadPrimes(primes)
                with pytest.raises(ValueError):
                    prime_zeta_beyond(2, 0, primes, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert HeadPrimes([1_999_993]).primes == [1_999_993]

    @pytest.mark.parametrize("x", [2, 631, 67_968])
    def test_upto_sieves_once(self, x, monkeypatch):
        # the validating constructor sieves the list a second time; upto
        # takes primes_upto's list as it is, with the same sums
        calls = []
        real = zeta_numerics._prime_flags
        monkeypatch.setattr(zeta_numerics, "_prime_flags",
                            lambda n: calls.append(n) or real(n))
        head = HeadPrimes.upto(x)
        assert calls == [x]
        want = HeadPrimes(primes_upto(x))
        assert head.primes == want.primes and head.span == want.span
        assert head.sums(3, 2, 30) == want.sums(3, 2, 30)

    def test_empty_head_sums_are_zero(self):
        head = HeadPrimes.upto(1)
        assert head.sums(3, 2, 30)[0] == [0, 0, 0]
        assert head.sums(5, 0, 30, 5)[0] == [0]
        assert prime_zeta_beyond(3, 2, head, 30) == prime_zeta_beyond(3, 2, [], 30)

    def test_upto_rejects_past_the_cap(self):
        with pytest.raises(ValueError):
            HeadPrimes.upto(HeadPrimes.MAX_PRIME + 1)
        assert HeadPrimes.upto(HeadPrimes.MAX_PRIME).primes[-1] == 1_999_993
        assert HeadPrimes.upto(1).primes == HeadPrimes.upto(0).primes == []

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
