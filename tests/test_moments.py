"""Tests for the moment pipeline: exact tables, the W engine, assembly."""

import contextlib
import functools
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec, to_fixed

import zetamoments
from zetamoments import moments
from zetamoments.characters import power_dim_table
from zetamoments.cli import _check_assembly_routes, _check_head_log, _check_w_tail
from zetamoments.moments import (
    MomentPolynomial,
    NonConvergenceError,
    V_poly,
    W_coeff,
    _a_seqs,
    _b_series,
    _below_tol,
    _gauss_square_poly,
    _head_logs,
    _local_ratios,
    _ratio_numerators,
    _v_series,
    a_factor,
    c_coeff,
    d_table,
    f_table,
    g_factor,
    moment_polynomial,
)
from zetamoments.oracles import WPoly, d_table_symbolic
from zetamoments.partitions import centralizer_order, partitions_of
from zetamoments.symseries import (
    EMPTY_KEY,
    POWERSUM,
    KPoly,
    PairSeries,
    _plan,
    series_exp,
    series_log,
    series_mul,
)
from zetamoments import zeta_numerics
from zetamoments.zeta_numerics import HeadPrimes, _series_log_list, primes_upto

F = Fraction

# Reference values of the log table, sizes one to six, as full grids in the
# row order given alongside each; blank cells of the original grids are zeros.
GOLDEN_ORDERS = {
    1: [(1,)],
    2: [(2,), (1, 1)],
    3: [(1, 1, 1), (2, 1), (3,)],
    4: [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)],
    5: [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)],
    6: [(6,), (5, 1), (4, 2), (4, 1, 1), (3, 3), (3, 2, 1), (3, 1, 1, 1),
        (2, 2, 2), (2, 2, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)],
}
GOLDEN_GRIDS = {
    1: [[1]],
    2: [
        [F(1, 4), F(1, 4)],
        [F(1, 4), F(-1, 4)],
    ],
    3: [
        [F(1, 9), F(-1, 6), F(1, 18)],
        [F(-1, 6), 0, F(1, 6)],
        [F(1, 18), F(1, 6), F(1, 9)],
    ],
    4: [
        [F(1, 16), F(1, 12), F(1, 32), F(1, 16), F(1, 96)],
        [F(1, 12), 0, F(1, 24), F(-1, 12), F(-1, 24)],
        [F(1, 32), F(1, 24), F(-1, 64), F(-1, 32), F(-5, 192)],
        [F(1, 16), F(-1, 12), F(-1, 32), F(-1, 16), F(11, 96)],
        [F(1, 96), F(-1, 24), F(-5, 192), F(11, 96), F(-11, 192)],
    ],
    5: [
        [F(1, 25), F(1, 20), F(1, 30), F(1, 30), F(1, 40), F(1, 60), F(1, 600)],
        [F(1, 20), 0, F(1, 24), F(-1, 24), 0, F(-1, 24), F(-1, 120)],
        [F(1, 30), F(1, 24), 0, 0, F(-1, 48), F(-1, 24), F(-1, 80)],
        [F(1, 30), F(-1, 24), 0, 0, F(-1, 16), F(1, 24), F(7, 240)],
        [F(1, 40), 0, F(-1, 48), F(-1, 16), 0, F(1, 48), F(3, 80)],
        [F(1, 60), F(-1, 24), F(-1, 24), F(1, 24), F(1, 48), F(1, 12), F(-19, 240)],
        [F(1, 600), F(-1, 120), F(-1, 80), F(7, 240), F(3, 80), F(-19, 240), F(19, 600)],
    ],
    6: [
        [F(1, 36), F(1, 30), F(1, 48), F(1, 48), F(1, 108), F(1, 36), F(1, 108),
         F(1, 288), F(1, 96), F(1, 288), F(1, 4320)],
        [F(1, 30), 0, F(1, 40), F(-1, 40), F(1, 90), 0, F(-1, 45),
         F(1, 240), F(-1, 80), F(-1, 80), F(-1, 720)],
        [F(1, 48), F(1, 40), 0, 0, F(1, 144), 0, F(-1, 72),
         F(-1, 192), F(-1, 64), F(-1, 64), F(-7, 2880)],
        [F(1, 48), F(-1, 40), 0, 0, F(1, 144), F(-1, 24), F(1, 36),
         F(-1, 192), F(-1, 64), F(5, 192), F(17, 2880)],
        [F(1, 108), F(1, 90), F(1, 144), F(1, 144), F(-1, 324), F(-1, 108), F(-1, 324),
         F(1, 864), F(-1, 96), F(-7, 864), F(-19, 12960)],
        [F(1, 36), 0, 0, F(-1, 24), F(-1, 108), F(-1, 36), F(-1, 108),
         F(-1, 144), 0, F(7, 144), F(1, 54)],
        [F(1, 108), F(-1, 45), F(-1, 72), F(1, 36), F(-1, 324), F(-1, 108), F(-1, 324),
         F(-1, 108), F(1, 16), F(-1, 54), F(-131, 6480)],
        [F(1, 288), F(1, 240), F(-1, 192), F(-1, 192), F(1, 864), F(-1, 144), F(-1, 108),
         F(1, 576), F(1, 192), F(1, 144), F(17, 4320)],
        [F(1, 96), F(-1, 80), F(-1, 64), F(-1, 64), F(-1, 96), 0, F(1, 16),
         F(1, 192), F(1, 64), 0, F(-19, 480)],
        [F(1, 288), F(-1, 80), F(-1, 64), F(5, 192), F(-7, 864), F(7, 144), F(-1, 54),
         F(1, 144), 0, F(-49, 576), F(473, 8640)],
        [F(1, 4320), F(-1, 720), F(-7, 2880), F(17, 2880), F(-19, 12960), F(1, 54),
         F(-131, 6480), F(17, 4320), F(-19, 480), F(473, 8640), F(-473, 25920)],
    ],
}


def golden_entries(size):
    order = GOLDEN_ORDERS[size]
    grid = GOLDEN_GRIDS[size]
    for i, ka in enumerate(order):
        for j, la in enumerate(order):
            yield (ka, la), grid[i][j]


PARTS_W4 = [m for a in range(5) for m in partitions_of(a)]


class TestFTable:
    def test_golden_tables(self):
        ft = f_table(6)
        for size in range(1, 7):
            expected = {key: v for key, v in golden_entries(size) if v != 0}
            got = {
                key: v for key, v in ft.entries.items() if sum(key[0]) == size
            }
            assert got == expected, "size %d" % size

    def test_requested_depth_is_the_cut(self):
        small = f_table(2)
        assert small.max_weight == 2
        assert all(sum(key[0]) <= 2 for key in small.entries)
        # a deeper earlier build must not leak deeper entries
        f_table(5)
        again = f_table(2)
        assert set(again.entries) == set(small.entries)

    def test_symmetry(self):
        ft = f_table(6)
        for (ka, la), v in ft.entries.items():
            assert ft.entries.get((la, ka), 0) == v

    def test_equal_weight_keys_only(self):
        ft = f_table(5)
        assert all(sum(ka) == sum(la) for ka, la in ft.entries)

    def test_exp_recovers_the_source_series(self):
        # log and exp are mutually inverse on the exact series, weight 6
        ft = f_table(3)
        log_side = PairSeries(POWERSUM, 6, dict(ft.entries))
        back = series_exp(log_side)
        for a in range(1, 4):
            for ka in partitions_of(a):
                for la in partitions_of(a):
                    want = F(1, centralizer_order(ka) * centralizer_order(la))
                    assert back.get(ka, la) == want
        # cross-weight coefficients of the source vanish
        assert back.get((2,), (1,)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            f_table(0)
        with pytest.raises(ValueError):
            f_table(-3)


class TestVPoly:
    def test_empty_pair_is_k_squared(self):
        assert V_poly(1, (), ()) == KPoly((0, 0, 1))

    def test_single_boxes(self):
        assert V_poly(1, (1,), (1,)) == 2
        assert V_poly(1, (1,), ()) == KPoly((0, 1))
        assert V_poly(1, (2,), ()) == KPoly((0, 1))

    def test_zero_when_slot_needs_more_points(self):
        # a two-row slot cannot hit a one-part partition of the same size
        assert V_poly(1, (1, 1), ()) == KPoly()

    @settings(deadline=None, max_examples=60)
    @given(
        r=st.integers(1, 4),
        mu=st.sampled_from(PARTS_W4),
        nu=st.sampled_from(PARTS_W4),
    )
    def test_symmetry_and_degree_bound(self, r, mu, nu):
        v = V_poly(r, mu, nu)
        assert v == V_poly(r, nu, mu)
        if v.coeffs:
            assert v.degree <= 2 * r - len(mu) - len(nu)

    def test_matches_fixed_k_tables(self):
        # the engine's Q-series route against the f-table contraction
        for k in (2, 3):
            tail = _v_series(k, 4, 6)[0]
            for r in range(1, 7):
                for mu, nu in _plan(4).keys:
                    assert V_poly(r, mu, nu)(k) == tail[r].get((mu, nu), 0)

    def test_empty_pair_matches_local_log_coefficients(self):
        # two independent builds of the same scalar sequence
        for k in (2, 3, 4):
            b = _b_series(k, 8)
            for r in range(1, 9):
                assert V_poly(r, (), ())(k) == b[r]
                assert _v_series(k, 0, 8)[0][r][EMPTY_KEY] == b[r]
                assert _v_series(k, 2, 8)[0][r][EMPTY_KEY] == b[r]

    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_local_log_matches_power_expansion(self, k, absolute):
        # the local log through the scalar recurrence against the sum over m
        # of (+-x)**m / m, x the Gauss square polynomial less 1
        R = 80
        x = [F(0)] * (R + 1)
        for j in range(1, min(k - 1, R) + 1):
            x[j] = _gauss_square_poly(k)[j]
        cur = [F(1)] + [F(0)] * R
        want = [F(0)] * (R + 1)
        for m in range(1, R + 1):
            new = [F(0)] * (R + 1)
            for i, ci in enumerate(cur):
                if ci:
                    for j in range(1, min(k - 1, R - i) + 1):
                        new[i + j] += ci * x[j]
            cur = new
            sgn = 1 if (m % 2 or absolute) else -1
            for i in range(R + 1):
                want[i] += sgn * F(cur[i], m)
        for r in range(1, R + 1):
            want[r] += F(2 * k - 1, r)
        assert _b_series(k, R, absolute) == tuple(want)

    @pytest.mark.parametrize("absolute", [False, True])
    @pytest.mark.parametrize("R", [16, 32, 40, 80])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_newton_identity_matches_series_log(self, k, R, absolute):
        assert _b_series(k, R, absolute) == _b_series_by_series_log(k, R, absolute)

    def test_arithmetic_factor_does_not_depend_on_the_route(self, monkeypatch):
        # a_factor reads b_r as _b_series(k, r)[r]
        with mp.workdps(50):
            got = [mp.nstr(a_factor(k, 40), 50) for k in range(1, 6)]
        monkeypatch.setattr(moments, "_b_series", _b_series_by_series_log)
        with mp.workdps(50):
            want = [mp.nstr(a_factor(k, 40), 50) for k in range(1, 6)]
        assert got == want

    def test_tail_does_not_depend_on_the_truncation(self):
        short, long_ = _v_series(2, 3, 8), _v_series(2, 3, 16)
        for r in range(1, 9):
            assert short[0][r] == long_[0][r]
            assert short[1][r] == long_[1][r]

    @pytest.mark.parametrize("k,wmax", [(1, 2), (2, 4), (3, 4)])
    def test_majorant_bounds_every_value(self, k, wmax):
        vr, vb = _v_series(k, wmax, 14)
        for r in range(1, 15):
            for key, v in vr[r].items():
                assert abs(v) <= vb[r][key], (r, key)

    def test_packed_route_matches_v_poly(self):
        # the integer Kronecker-packed log against the f-table contraction,
        # k = 2..5, every key of weight <= 5, r <= 8
        keys = _plan(5).keys
        tables = {k: _v_series(k, 5, 8)[0] for k in range(2, 6)}
        for r in range(1, 9):
            for mu, nu in keys:
                poly = V_poly(r, mu, nu)
                for k, tail in tables.items():
                    assert poly(k) == tail[r].get((mu, nu), 0), (k, r, mu, nu)

    def test_packed_route_matches_series_log_over_q(self):
        # both tables against the pair-series log of 1 + X and of 1 - |X|
        # with X a polynomial in Q (KPoly), cut after Q**R
        k, wmax, R = 3, 4, 8
        aseq = _a_seqs(k, wmax, R)
        z0 = KPoly([a * a for a in aseq[()]])
        inv = [F(1)] + [F(0)] * R
        for u in range(1, R + 1):
            inv[u] = -sum(z0.coeffs[i] * inv[u - i] for i in range(1, u + 1))
        signed, absolute = {EMPTY_KEY: 1}, {EMPTY_KEY: 1}
        for m, nu in _plan(wmax).keys[1:]:
            nd = moments._norm_den(m) * moments._norm_den(nu)
            z = KPoly([a * b for a, b in zip(aseq[m], aseq[nu])]) * KPoly(inv)
            x = [F(c, nd) for c in z.coeffs[:R + 1]]
            signed[(m, nu)] = KPoly(x)
            absolute[(m, nu)] = KPoly([-abs(c) for c in x])
        vr, vb = _v_series(k, wmax, R)
        for table, series, sign in ((vr, signed, 1), (vb, absolute, -1)):
            lg = series_log(PairSeries(POWERSUM, wmax, series)).coeffs
            for key in _plan(wmax).keys[1:]:
                c = lg.get(key, KPoly()).coeffs
                fact = sign * math.factorial(sum(key[0]) + sum(key[1]))
                for r in range(1, R + 1):
                    want = fact * c[r] if r < len(c) else 0
                    got = table[r].get(key, 0)
                    assert got == want and type(got) is int, (key, r)

    @pytest.mark.parametrize("k", [5, 6])
    def test_majorant_bounds_the_widest_slots(self, k):
        vr, vb = _v_series(k, 5, 32)
        for r in range(1, 33):
            assert vr[r].keys() <= vb[r].keys()
            for key, v in vr[r].items():
                assert abs(v) <= vb[r][key], (r, key)

    def test_order_16_is_a_prefix_of_order_32(self):
        short, long_ = _v_series(4, 6, 16), _v_series(4, 6, 32)
        for r in range(1, 17):
            assert short[0][r] == long_[0][r]
            assert short[1][r] == long_[1][r]

    def test_validation(self):
        with pytest.raises(ValueError):
            V_poly(0, (), ())
        with pytest.raises(ValueError):
            V_poly(1, (1, 2), ())


def _b_series_by_series_log(k, R, absolute=False):
    """The local log coefficients by the scalar series log of 1 +- x, the
    route _b_series' Newton identity replaced."""
    sign = -1 if absolute else 1
    s = [F(1)] + [F(0)] * R
    for j in range(1, min(k - 1, R) + 1):
        s[j] = sign * _gauss_square_poly(k)[j]
    lg = _series_log_list(s)
    return (F(0),) + tuple(sign * lg[r] + F(2 * k - 1, r) for r in range(1, R + 1))


def _empty_key_reference(k, primes, wdps):
    """The head part of W at the empty key as a per-prime mpf loop: the local
    factor z0 summed from its integer coefficient row, then log z0 - k**2/p."""
    with mp.workdps(wdps):
        u_top = int((wdps * math.log(10) + 30) / math.log(2)) + 30
        row = _a_seqs(k, 0, u_top)[()]
        out = mp.mpf(0)
        for p in primes:
            up = min(u_top, int((wdps * math.log(10) + 30) / math.log(p)) + 30)
            d = sum(row[u] ** 2 * p ** (up - u) for u in range(up + 1))
            z0 = mp.mpf(d) * mp.mpf(p) ** (-up)
            out += mp.log(z0) - mp.mpf(k * k) / p
        return out


class TestEmptyKeyHead:
    WDPS = 65

    def _check(self, k, primes):
        with mp.workdps(self.WDPS):
            got = _head_logs(k, 0, primes)[EMPTY_KEY]
        ref = _empty_key_reference(k, primes, self.WDPS + 20)
        with mp.workdps(self.WDPS + 20):
            assert abs(got - ref) < mp.mpf(10) ** -(self.WDPS + 2), (k, len(primes))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_per_prime_logs(self, k):
        self._check(k, primes_upto(67968))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("primes", [[], [2], [2, 3, 5, 7]])
    def test_short_lists(self, k, primes):
        self._check(k, primes)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_local_factor_closed_form(self, k):
        # sum_u a_mu(u) a_nu(u) Q**u * (1-Q)**(D+1), D = 2k-2+|mu|+|nu|, is a
        # polynomial of degree <= D for every key of weight <= 6, exactly, as
        # integer series cut at Q**40; for the empty key it is the Gauss
        # square polynomial, and the engine's numerators are its first terms
        U, wmax = 40, 6
        aseq = _a_seqs(k, wmax, U)
        numer = _ratio_numerators(k, wmax)
        for m, nu in _plan(wmax).keys:
            D = 2 * k - 2 + sum(m) + sum(nu)
            z = [a * b for a, b in zip(aseq[m], aseq[nu])]
            for _ in range(D + 1):
                z = [z[0]] + [z[u] - z[u - 1] for u in range(1, U + 1)]
            assert z[D + 1:] == [0] * (U - D), (m, nu)
            if (m, nu) == EMPTY_KEY:
                pol = list(_gauss_square_poly(k))
                assert z == pol + [0] * (U + 1 - len(pol))
            else:
                pair = (m, nu) if m <= nu else (nu, m)
                assert numer[pair][:2] == (sum(m) + sum(nu), z[: D + 1]), (m, nu)


def _ratio_reference(k, wmax, p, bits):
    """X_{mu nu}(1/p) / nd for every pair of _ratio_numerators(k, wmax) as
    exact fractions of the integer rows z_{mu nu} and z_0 cut at Q**up,
    where the dropped tails are far below 2**-bits."""
    up = int((bits + 100) / math.log2(p)) + 60
    aseq = _a_seqs(k, wmax, up)

    def z(m, nu):
        return sum(aseq[m][u] * aseq[nu][u] * p ** (up - u) for u in range(up + 1))

    z0 = z((), ())
    return {pair: Fraction(z(*pair), z0 * nd)
            for pair, (_, _, nd) in _ratio_numerators(k, wmax).items()}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 313])
def test_local_ratios_match_truncated_dot_products(k, p):
    B, wmax = 120, 4
    A = sum(c * p ** (k - 1 - j) for j, c in enumerate(_gauss_square_poly(k)))
    got = _local_ratios(k, p, A, _ratio_numerators(k, wmax), B)
    ref = _ratio_reference(k, wmax, p, B)
    assert set(got) == set(ref)
    slack = Fraction(1, 2**20)
    for pair, s in got.items():
        assert -slack < ref[pair] * 2**B - s < 1 + slack, pair


class TestHeadLogs:
    """The integer head against the mpf pair-series log it replaced, with
    the leading 1/p part removed from the single-part keys."""

    @pytest.mark.parametrize("k,wmax,digits", [(3, 4, 15), (2, 4, 30), (3, 9, 30)])
    def test_matches_mpf_series_log(self, k, wmax, digits):
        # p = 2, 3 and the last head prime, against the oracle at digits + 30
        _check_head_log(k, wmax, digits)

    def test_primes_add_up(self):
        primes = [2, 3, 5, 7, 11]
        with mp.workdps(30):
            whole = _head_logs(3, 3, primes)
            parts = [_head_logs(3, 3, [p]) for p in primes]
            tol = len(primes) * mp.ldexp(1, -(mp.prec + 9))
        with mp.workdps(60):
            for key, v in whole.items():
                assert abs(v - sum(part[key] for part in parts)) <= tol, key

    def test_no_primes_is_zero(self):
        with mp.workdps(20):
            got = _head_logs(2, 3, [])
        assert set(got) == set(_plan(3).keys)
        assert all(v == 0 for v in got.values())


def _relative_families(monkeypatch, digits):
    """Make the W engine take every prime family to digits + 10 digits
    relative to its own size: beyond the cutoff that adds the cancelled
    ratio, r * log10(max prime / 2) + 8 digits."""

    def fixed(r, nmax, head, _, B, upto):
        extra = int(r * math.log10(head.primes[-1] / 2.0)) + 8 if r > 1 else 0
        return zeta_numerics.prime_zeta_fixed(
            r, nmax, HeadPrimes(head.primes, 1), digits + 10 + extra, B, upto)

    monkeypatch.setattr(moments, "prime_zeta_fixed", fixed)


PINNED_W_ERRORS = {
    3: ['4.59979e-21', '1.64807e-20', '1.64807e-20', '1.70316e-20', '1.10025e-19',
        '2.29721e-19', '1.70316e-20', '1.10025e-19', '1.87451e-20', '3.08466e-19',
        '6.4127e-19', '2.90748e-19', '2.12541e-18', '2.90748e-19', '2.12541e-18',
        '1.87451e-20', '3.08466e-19', '6.4127e-19', '7.85137e-20', '2.36618e-19',
        '2.15677e-19', '2.9691e-18', '2.65202e-18', '3.32593e-19', '5.99381e-18',
        '1.25783e-17', '3.38674e-19', '2.72051e-18', '2.72051e-18', '1.99547e-17',
        '3.32593e-19', '5.99381e-18', '1.25783e-17', '7.85137e-20', '2.36618e-19',
        '2.15677e-19', '2.9691e-18', '2.65202e-18'],
    2: ['1.49787e-16', '2.72797e-16', '2.72797e-16', '1.33766e-16', '1.38359e-14',
        '2.14869e-16', '1.33766e-16', '1.38359e-14', '4.42134e-16', '3.05053e-16',
        '4.06054e-12', '4.22767e-16', '2.31965e-13', '4.22767e-16', '2.31965e-13',
        '4.42134e-16', '3.05053e-16', '4.06054e-12', '3.59919e-15', '1.36031e-15',
        '7.55952e-16', '7.27083e-16', '3.07004e-13', '5.89448e-15', '2.31533e-15',
        '6.05962e-11', '6.7556e-15', '2.12523e-16', '2.12523e-16', '1.96454e-12',
        '5.89448e-15', '2.31533e-15', '6.05962e-11', '3.59919e-15', '1.36031e-15',
        '7.55952e-16', '7.27083e-16', '3.07004e-13'],
}


def _fraction(x):
    """An mpf as the exact Fraction it stands for."""
    sign, man, exp, _ = x._mpf_
    return F(-man if sign else man) * F(2) ** exp


class TestWEngine:
    @pytest.mark.parametrize(
        "k, wmax, digits", [(2, 4, 10), (3, 4, 15), (3, 0, 50), (4, 3, 12)]
    )
    def test_absolute_families_match_relative_ones(self, k, wmax, digits,
                                                   monkeypatch):
        tol_f = 10.0 ** -digits
        vals, errs, meta = moments._w_engine(k, wmax, digits, tol_f)
        _relative_families(monkeypatch, digits)
        want, want_errs, want_meta = moments._w_engine(k, wmax, digits, tol_f)
        assert meta == want_meta
        with mp.workdps(digits + 20):
            for key, v in want.items():
                diff = abs(vals[key] - v)
                assert diff <= want_errs[key], key
                # the families' part stays under a tenth of the reported floor
                assert diff <= mp.mpf(10) ** -(digits + 7) * (1 + abs(v)), key
                # the tail estimate is formed from the terms themselves, so
                # it moves in its last digits, never in the ones printed
                assert abs(errs[key] - want_errs[key]) <= 1e-9 * want_errs[key]

    @pytest.mark.parametrize(
        "k, wmax, digits",
        [(2, 4, 10), (3, 4, 15), (3, 0, 50), (4, 3, 12), (2, 4, 45),
         (2, 3, 40)],
    )
    def test_integer_tail_matches_mpf_resummation(self, k, wmax, digits):
        # head + V_1 P(1) + sum_{r>=2} V_r P_beyond(r) in mpf at digits + 20,
        # over the engine's own r_max_used, within 10**-(digits+8) (1 + |v|);
        # (2, 4, 45) and (2, 3, 40) stop at r = 17, past the first V table;
        # at (2, 3, 40) the R = 20 table raises L from 3 to 4 and the
        # integers shift left by 4 bits
        _check_w_tail(k, wmax, digits)

    def test_chunk_shift_matches_one_fixed_scale(self, monkeypatch):
        # (2, 3, 40) takes the R = 16 table, then the R = 20 one at r = 17,
        # which shifts every stored integer left by 4 bits; one scale above
        # both tables' from the start gives the same stop, values and errors
        real, orders = moments._v_chunk, []

        def record(*a):
            orders.append(a[2])
            return real(*a)

        monkeypatch.setattr(moments, "_v_chunk", record)
        got, got_errs, meta = moments._w_engine(2, 3, 40, 1e-40)
        assert orders == [16, 20]
        assert real(2, 3, 20, 40)[3] == real(2, 3, 16, 40)[3] + 4
        monkeypatch.setattr(moments, "_v_chunk", lambda *a: real(*a)[:3] + (400,))
        want, want_errs, want_meta = moments._w_engine(2, 3, 40, 1e-40)
        assert meta == want_meta and meta["r_max_used"] == 17
        with mp.workdps(70):
            for key, v in want.items():
                assert abs(got[key] - v) <= mp.mpf(10) ** -49 * (1 + abs(v)), key
                assert abs(got_errs[key] - want_errs[key]) <= 1e-9 * want_errs[key]

    @pytest.mark.parametrize("tol_f", [1e-10, 1e-15, 3.7e-12, 1e-50, 2.0**-30])
    def test_stop_test_is_exact(self, tol_f):
        # one unit either side of the boundary tol * (2**B + |v|), and on
        # it where it is an integer, against the same test in exact mpf
        tn, td = tol_f.as_integer_ratio()
        for B in (64, 200, 400):
            one = 1 << B
            for v in (0, 12345 << (B - 20), -(3 << B) + 7, -(5 << B)):
                edge = F(tn, td) * (one + abs(v))
                lo, hi = math.floor(edge), math.ceil(edge)
                for mag in (lo - 1, lo, hi, hi + 1):
                    with mp.workprec(2 * B + 200):
                        want = mp.ldexp(mag, -B) < mp.mpf(tol_f) * (
                            1 + mp.ldexp(abs(v), -B))
                    assert _below_tol(mag, v, tn, td, B) == want, (B, v, mag)
                    assert want == (mag < edge)

    def test_one_head_pass_serves_c0(self, monkeypatch):
        # c_0(3) at 50 digits stops at r = 14: one chunk, one absolute digit
        # count, so the 6,771 head primes take one integer pass, its rows
        # r = 2..16 as far as the V table of order 16 reaches
        calls = []
        real = HeadPrimes._pass

        def counted(self, r0, rows, nmax, digits):
            calls.append((r0, rows))
            return real(self, r0, rows, nmax, digits)

        monkeypatch.setattr(HeadPrimes, "_pass", counted)
        monkeypatch.setattr(moments, "_w_cache", {})
        c_coeff(0, 3, 50)
        assert calls == [(2, 15)]

    @pytest.mark.parametrize("wmax, digits", [(4, 15), (0, 50)])
    def test_integer_families_match_the_public_views(self, wmax, digits):
        # lead5's and c0's families, r = 1..16, at the engine's family
        # digits, against the mpf views in units their rounding stays under
        pcut = moments._prime_cutoff(3, digits, 10.0**-digits)
        head = HeadPrimes.upto(pcut)
        fam_digits = moments._v_chunk(3, wmax, 16, digits)[2]
        B = dps_to_prec(fam_digits)
        for r in range(1, 17):
            got = zeta_numerics.prime_zeta_fixed(r, wmax, head, fam_digits, B)
            view = (zeta_numerics.prime_zeta_beyond(r, wmax, head, fam_digits)
                    if r > 1 else
                    zeta_numerics.prime_zeta_taylor(1, wmax, fam_digits).coeffs)
            want = [to_fixed(c._mpf_, B) for c in view]
            assert len(got) == wmax + 1, r
            assert all(abs(a - b) <= 2 for a, b in zip(got, want)), r

    def test_c0_builds_one_log_zeta_table(self, monkeypatch):
        # c_0(3) at 50 digits reads log zeta at 243 arguments from one table:
        # one Euler-Maclaurin pass and one Euler-product pass in all
        calls = []
        for name in ("_em_fixed", "_log_zeta_euler"):
            real = getattr(zeta_numerics, name)

            def counted(ys, *args, real=real, name=name):
                calls.append((name, ys[0], ys[-1]))
                return real(ys, *args)

            monkeypatch.setattr(zeta_numerics, name, counted)
        monkeypatch.setattr(zeta_numerics, "_installed_pzeta", {})
        monkeypatch.setattr(moments, "_w_cache", {})
        zeta_numerics._log_zeta_table.cache_clear()
        zeta_numerics._compute_prime_zeta.cache_clear()
        c_coeff(0, 3, 50)
        assert zeta_numerics._log_zeta_table.cache_info().currsize == 1
        (em, lo, y_em), (euler, start, top) = calls
        assert (em, lo, euler, start) == ("_em_fixed", 1, "_log_zeta_euler", y_em + 1)
        assert y_em < 40 and top >= 243

    @pytest.mark.parametrize("k, wmax, digits", [(2, 4, 10), (3, 4, 15), (4, 3, 12)])
    def test_values_and_errors_exactly_symmetric(self, k, wmax, digits):
        # _exp_w sums one key of each mirror pair of exp W and its error
        # series, which holds only while W and its errors are symmetric
        vals, errs, _ = moments._w_engine(k, wmax, digits, 10.0 ** -digits)
        for (m, nu), v in vals.items():
            assert v._mpf_ == vals[(nu, m)]._mpf_, (m, nu)
            assert errs[(m, nu)]._mpf_ == errs[(nu, m)]._mpf_, (m, nu)

    @pytest.mark.parametrize("k, digits", [(3, 15), (2, 10)])
    def test_errors_pinned(self, k, digits):
        # lead5's table and P_2(10)'s, in _plan(4) order, to six digits, as
        # the closure gave them in mpf before it moved to integers
        _, errs, _ = moments._w_engine(k, 4, digits, 10.0 ** -digits)
        got = [mp.nstr(errs[key], 6) for key in _plan(4).keys]
        assert got == PINNED_W_ERRORS[k]

    def test_errors_round_up(self, monkeypatch):
        # each error converts from its integer bound rounded up
        seen, real = [], moments.from_man_exp

        def spy(man, exp, *rest):
            got = real(man, exp, *rest)
            if rest[1:] == ("u",):
                seen.append((F(man) * F(2) ** exp, got))
            return got

        monkeypatch.setattr(moments, "from_man_exp", spy)
        _, errs, _ = moments._w_engine(3, 4, 15, 1e-15)
        assert len(seen) == len(errs)
        assert all(_fraction(mp.make_mpf(got)) >= bound for bound, got in seen)
        assert any(_fraction(mp.make_mpf(got)) > bound for bound, got in seen)

    def test_empty_key_at_k1_vanishes(self):
        got = W_coeff((), (), 1, digits=20)
        assert abs(got.value) <= got.error
        assert abs(got.value) < mp.mpf("1e-18")

    def test_single_box_at_k1_is_euler_gamma(self):
        got = W_coeff((1,), (), 1, digits=20)
        with mp.workdps(30):
            assert abs(got.value - mp.euler) < mp.mpf("1e-19")
            assert abs(got.value - mp.euler) <= got.error

    def test_empty_key_at_k2_closed_form(self):
        got = W_coeff((), (), 2, digits=25)
        with mp.workdps(35):
            want = mp.log(6 / mp.pi**2)
            assert abs(got.value - want) < mp.mpf("1e-24")
        assert abs(got.value - want) <= got.error

    def test_symmetry_within_error(self):
        with mp.workdps(35):
            for mu, nu in [((1,), (2,)), ((2, 1), (1,)), ((3,), (1,))]:
                a = W_coeff(mu, nu, 2, digits=25)
                b = W_coeff(nu, mu, 2, digits=25)
                assert abs(a.value - b.value) <= a.error + b.error
                assert abs(a.value - b.value) < mp.mpf("1e-24")

    def test_reported_errors_are_honest(self):
        # low-digit values against a much more precise run of the same keys
        with mp.workdps(40):
            for mu, nu in [((), ()), ((1,), (1,)), ((2,), (1, 1)), ((4,), ())]:
                lo = W_coeff(mu, nu, 2, digits=10)
                hi = W_coeff(mu, nu, 2, digits=25)
                assert abs(lo.value - hi.value) <= lo.error
                assert lo.error < mp.mpf("1e-8")

    def test_engine_does_not_depend_on_the_history(self):
        # the memos kept across requests (the plan, log zeta values, prime
        # zeta families) must not move a result: the same run in a fresh
        # process and after other requests agrees bit for bit
        src = os.path.dirname(os.path.dirname(moments.__file__))
        code = ("from zetamoments.moments import _w_engine\n"
                "v, e, m = _w_engine(3, 4, 15, 1e-15)\n"
                "print(sorted((repr(k), v[k]._mpf_, e[k]._mpf_) for k in v), m)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        fresh = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout
        moment_polynomial(2, 12)
        moments._w_engine(3, 6, 30, 1e-30)
        moments._w_engine(3, 4, 50, 1e-50)
        a_factor(3, 60)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(code, {})
        assert out.getvalue() == fresh

    def test_errors_at_the_stop_are_within_tolerance(self):
        # the stop rule tests the error it reports: tail part below tol
        vals, errs, meta = moments._w_full(2, 4, 10)
        tol, floor = mp.mpf(10) ** -10, mp.mpf(10) ** -16
        assert meta["r_max_used"] >= 8
        for key, err in errs.items():
            scale = 1 + abs(vals[key])
            assert 0 < err <= (tol + floor) * scale * (1 + mp.mpf(10) ** -15)

    def test_tol_loosens_the_target(self):
        loose = W_coeff((1,), (1,), 2, digits=12, tol=1e-6)
        tight = W_coeff((1,), (1,), 2, digits=12)
        assert abs(loose.value - tight.value) <= loose.error + tight.error

    def test_unreachable_precision_raises(self):
        with pytest.raises(NonConvergenceError) as info:
            W_coeff((), (), 1, digits=120)
        assert info.value.meta["digits"] == 120

    def test_validation(self):
        with pytest.raises(ValueError):
            W_coeff((), (), 0)
        with pytest.raises(ValueError):
            W_coeff((1, 2), (), 2)


# every memo in the package, each paying on the c_N path or serving an oracle
# route (frobenius_schur, dim_paths, monomial_eval); a new one needs a reason
MEMOS = {
    "characters": {"_char_beta", "character_table"},
    "frobenius_schur": {"_faulhaber_half", "_hook_class_data",
                        "complement_point", "e_half_odds", "fs_hook",
                        "super_power_sum"},
    "partitions": {"conjugate", "dim_paths", "partitions_of"},
    "symseries": {"_plan", "monomial_eval"},
    "zeta_numerics": {"_compute_prime_zeta", "_log_zeta_table"},
}


def test_memo_census():
    found = {}
    for info in pkgutil.iter_modules(zetamoments.__path__):
        mod = importlib.import_module("zetamoments." + info.name)
        names = {name for name, obj in vars(mod).items()
                 if isinstance(obj, functools._lru_cache_wrapper)
                 and obj.__module__ == mod.__name__}
        if names:
            found[info.name] = names
    assert found == MEMOS


class TestDTable:
    def test_empty_entry_is_exp_of_empty_w(self):
        d = d_table(2, 4, digits=25)
        w = W_coeff((), (), 2, digits=25)
        with mp.workdps(35):
            rel = abs(d[EMPTY_KEY].value - mp.exp(w.value)) / mp.exp(w.value)
            assert rel < mp.mpf("1e-23")

    def test_empty_entry_matches_euler_product(self):
        for k in (1, 2, 3):
            d = d_table(k, 0, digits=20)[EMPTY_KEY]
            a = a_factor(k, digits=20)
            with mp.workdps(30):
                assert abs(d.value - a) / a < mp.mpf("1e-18")
                assert abs(d.value - a) <= d.error

    def test_symmetry_within_error(self):
        d = d_table(2, 4, digits=25)
        for (kap, lam), got in d.items():
            other = d[(lam, kap)]
            assert abs(got.value - other.value) <= got.error + other.error

    def test_entries_positive_errors(self):
        d = d_table(2, 2, digits=15)
        assert all(e.error > 0 for e in d.values())

    def test_grading_ignores_out_of_grade_keys(self, monkeypatch):
        # a W table with every key zero but three, each exact and, like
        # the engine's, symmetric in the two slots
        def table(entries):
            def w_full(k, wmax, digits, tol=None):
                vals = {key: entries.get(key, mp.mpf(0)) for key in _plan(wmax).keys}
                return vals, {key: mp.mpf(0) for key in vals}, {}
            return w_full

        base = {((1,), (1,)): mp.mpf("0.25"), ((2,), ()): mp.mpf("0.125"),
                ((), (2,)): mp.mpf("0.125")}
        monkeypatch.setattr(moments, "_w_full", table(base))
        d1 = d_table(2, 2, digits=15)
        bumped = dict(base)
        bumped[((2,), ())] = bumped[((), (2,))] = mp.mpf("0.5")
        monkeypatch.setattr(moments, "_w_full", table(bumped))
        d2 = d_table(2, 2, digits=15)
        # the entry in grade with the bumped key moves, the others hold still
        assert d1[((1,), (1,))].value == d2[((1,), (1,))].value == mp.mpf("0.25")
        assert d1[((2,), ())].value == mp.mpf("0.125")
        assert d2[((2,), ())].value == mp.mpf("0.5")
        assert d1[EMPTY_KEY].value == d2[EMPTY_KEY].value == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            d_table(0, 0)
        with pytest.raises(ValueError):
            d_table(2, -1)
        with pytest.raises(ValueError):
            d_table(2, 5)


class TestDTableSymbolic:
    def test_weight_two_closed_forms(self):
        d = d_table_symbolic(2)
        w11 = WPoly.symbol((1,), (1,))
        w2 = WPoly.symbol((2,), ())
        w11o = WPoly.symbol((1, 1), ())
        w1 = WPoly.symbol((1,), ())
        assert d[EMPTY_KEY] == WPoly.constant(1)
        assert d[((1,), (1,))] == w11 + w1 * WPoly.symbol((), (1,))
        assert d[((2,), ())] == w2 + w11o + F(1, 2) * (w1 * w1)
        assert d[((1, 1), ())] == -1 * w2 + w11o + F(1, 2) * (w1 * w1)

    def test_slotwise_weight_grading(self):
        d = d_table_symbolic(3)
        for (kap, lam), poly in d.items():
            for mono in poly.terms:
                assert sum(sum(mu) for mu, _ in mono) == sum(kap)
                assert sum(sum(nu) for _, nu in mono) == sum(lam)

    def test_substitution_matches_numeric(self):
        digits = 15
        from zetamoments.moments import _w_full

        vals, _, _ = _w_full(2, 3, digits)
        sym = d_table_symbolic(3)
        num = d_table(2, 3, digits=digits)
        with mp.workdps(25):
            scale = mp.exp(vals[EMPTY_KEY])
            for key, poly in sym.items():
                want = num[key]
                got = scale * poly.substitute(vals)
                assert abs(got - want.value) <= want.error + mp.mpf("1e-18")

    def test_validation(self):
        with pytest.raises(ValueError):
            d_table_symbolic(4)
        with pytest.raises(ValueError):
            d_table_symbolic(-1)


class TestWPoly:
    def test_arithmetic(self):
        x = WPoly.symbol((1,), ())
        y = WPoly.symbol((), (1,))
        p = (x + y) * (x - y)
        q = x * x - y * y
        assert p == q
        assert x + 0 == x
        assert 0 + x == x
        assert x * 1 == x
        assert x * 0 == WPoly()
        assert WPoly() == 0
        assert WPoly.constant(F(3, 2)) == F(3, 2)
        assert (x - x) == 0

    def test_substitute(self):
        x = WPoly.symbol((1,), ())
        p = F(1, 2) * (x * x) + 3
        assert p.substitute({((1,), ()): F(4)}) == F(11)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)), max_size=4))
    def test_mul_commutes_with_substitution(self, recipe):
        syms = [WPoly.symbol((1,), ()), WPoly.symbol((2,), ()), WPoly.symbol((), (1,))]
        p = WPoly.constant(1)
        q = WPoly.constant(2)
        for c, i in recipe:
            p = p + c * syms[i]
            q = q * (syms[i] + c)
        values = {((1,), ()): F(2), ((2,), ()): F(-1, 3), ((), (1,)): F(5)}
        assert (p * q).substitute(values) == p.substitute(values) * q.substitute(values)
        assert (p + q).substitute(values) == p.substitute(values) + q.substitute(values)


class TestAssembly:
    def test_g_sequence(self):
        assert [g_factor(k) for k in range(7)] == [
            1, 1, 2, 42, 24024, 701149020, 1671643033734960,
        ]
        with pytest.raises(ValueError):
            g_factor(-1)

    def test_a_first_values(self):
        assert a_factor(0) == 1
        assert a_factor(1, digits=20) == 1
        with mp.workdps(40):
            want = 6 / mp.pi**2
            assert abs(a_factor(2, digits=30) - want) < mp.mpf("1e-29")

    def test_a_agrees_with_engine_route(self):
        w = W_coeff((), (), 3, digits=15)
        a = a_factor(3, digits=15)
        with mp.workdps(25):
            assert abs(a - mp.exp(w.value)) / a < mp.mpf("1e-13")

    def test_first_moment(self):
        p = moment_polynomial(1, 25)
        assert p.k == 1 and p.digits == 25
        (n0, c0, e0), (n1, c1, e1) = p.coefficients
        assert (n0, n1) == (0, 1)
        with mp.workdps(35):
            assert abs(c0 - 1) < mp.mpf("1e-20")
            assert abs(c1 - 2 * mp.euler) < mp.mpf("1e-20")
            assert abs(c1 - 2 * mp.euler) <= e1
        x = mp.mpf("2.5")
        with mp.workdps(35):
            assert abs(p.evaluate(x) - (c0 * x + c1)) < mp.mpf("1e-20")

    def test_evaluate_keeps_the_polynomial_digits(self):
        # at the default 15 digits, Horner runs at the polynomial's 40
        p = moment_polynomial(2, 30)
        got = p.evaluate(10)
        with mp.workdps(45):
            want = sum(v * mp.mpf(10) ** (4 - n) for n, v, _ in p.coefficients)
            assert abs(got - want) < mp.mpf("1e-32") * want
            assert abs(got - mp.mpf("1481.6635270103112444")) < mp.mpf("1e-16")

    @pytest.mark.parametrize("k, n_max, digits", [(2, 4, 10), (3, 6, 15)])
    def test_integer_exp_and_error_series(self, k, n_max, digits):
        # e within 10**-(digits+10) of the exact exp of the W values, and ee
        # the exact product of |e| and the errors ceiled to 2**-C
        (aval, a_err, e, ee, C), _ = moments._exp_w(k, n_max, digits, None)
        vals, errs, _ = moments._w_full(k, n_max, digits)
        keys = _plan(n_max).keys
        w = {key: _fraction(vals[key]) for key in keys[1:]}
        exact = series_exp(PairSeries(POWERSUM, n_max, w))
        for key in keys:
            assert abs(F(e[key], 2**C) - exact.get(*key)) <= F(1, 10 ** (digits + 10))
        up = {key: -math.floor(-_fraction(errs[key]) * 2**C) for key in keys[1:]}
        prod = series_mul(PairSeries(POWERSUM, n_max, {key: abs(v) for key, v in e.items()}),
                          PairSeries(POWERSUM, n_max, up))
        assert all(ee[key] == prod.get(*key) for key in keys)

    @pytest.mark.parametrize("k, digits", [(2, 10), (3, 15), (2, 25)])
    def test_bars_round_up(self, k, digits):
        # every c_N bar at least the same bar recomputed exactly in Fraction
        # from _exp_w's output, and above it by no more than the roundings;
        # at (2, 25) N = 1 a division rounded down would land below it
        expw, _ = moments._exp_w(k, k * k, digits, None)
        aval, a_err, e, ee, C = expw
        for N in range(k * k + 1):
            dims = power_dim_table(k, N)
            dot = sum(e[key] * dv for key, dv in dims.items())
            bar = sum(ee[key] * abs(dv) for key, dv in dims.items())
            want = (_fraction(aval) * F(bar, 2 ** (2 * C))
                    + _fraction(a_err) * F(abs(dot), 2**C)) / math.factorial(k * k - N)
            got = _fraction(moments._assemble(N, k, digits, expw).error)
            assert want <= got <= want * (1 + F(1, 10 ** (digits + 8))), N
        # N = 0's bar is a_err g_k / (k**2)!: a_err bounds exp(W_empty) over
        # its whole error interval, the rounding of exp included
        vals, errs, _ = moments._w_full(k, k * k, digits)
        w, err = vals[EMPTY_KEY], errs[EMPTY_KEY]
        with mp.workdps(2 * digits + 40):
            for x in (w - err, w + err):
                assert abs(mp.exp(x) - aval) < a_err

    @pytest.mark.parametrize("err", [None, "2", "8"])
    def test_exp_bar_holds_for_any_w_error(self, monkeypatch, err):
        # at a loose tol, with the engine's W_empty error or one widened past
        # 1, where expm1(err) > err (1 + err), a_err still bounds exp(W_empty)
        real = moments._w_full

        def widened(*args):
            vals, errs, meta = real(*args)
            return vals, {**errs, EMPTY_KEY: mp.mpf(err)}, meta

        if err is not None:
            monkeypatch.setattr(moments, "_w_full", widened)
        (aval, a_err, *_), _ = moments._exp_w(3, 0, 10, 0.5)
        vals, errs, _ = moments._w_full(3, 0, 10, 0.5)
        w, e0 = vals[EMPTY_KEY], errs[EMPTY_KEY]
        with mp.workdps(60):
            for x in (w - e0, w + e0):
                assert abs(mp.exp(x) - aval) < a_err

    @pytest.mark.parametrize("k", [2, 3])
    def test_power_sum_route_within_schur_oracle(self, k):
        # each c_N inside the d-table route's error, its own error no larger
        _check_assembly_routes(k, 15)

    def test_c1_at_k1_standalone(self):
        got = c_coeff(1, 1, digits=25)
        with mp.workdps(35):
            assert abs(got.value - 2 * mp.euler) < mp.mpf("1e-20")

    def test_leading_coefficient_closed_form(self):
        # a_2 g_2 / 4! collapses to 1/(2 pi^2)
        got = c_coeff(0, 2, digits=25)
        with mp.workdps(35):
            want = 1 / (2 * mp.pi**2)
            assert abs(got.value - want) / want < mp.mpf("1e-23")

    def test_zeroth_moment_is_constant_one(self):
        p = moment_polynomial(0, 10)
        assert p.coefficients == ((0, mp.mpf(1), mp.mpf(0)),)
        assert p.evaluate(7) == 1

    def test_leading_coefficient_after_higher_weights(self, monkeypatch):
        # c_0 reuses the W table of the largest weight the process built at
        # the same digits and tolerance, so its error depends on the call
        # history, but not on the order the larger tables came in; every
        # history stays within its own reported error of a 30-digit run
        want = c_coeff(0, 3, digits=30).value
        got = {}
        for first in ((), (2,), (4,), (2, 4)):
            monkeypatch.setattr(moments, "_w_cache", {})
            for n in first:
                c_coeff(n, 3, digits=15)
            got[first] = c_coeff(0, 3, digits=15)
            with mp.workdps(40):
                assert abs(got[first].value - want) <= got[first].error, first
        assert got[(2, 4)].error._mpf_ == got[(4,)].error._mpf_
        assert got[(2, 4)].value._mpf_ == got[(4,)].value._mpf_

    def test_degenerate_index_warns_and_is_zero(self):
        with pytest.warns(UserWarning):
            got = c_coeff(5, 2, digits=10)
        assert got.value == 0 and got.error == 0

    def test_digit_doubling_stays_inside_reported_error(self):
        lo = moment_polynomial(2, 12)
        hi = moment_polynomial(2, 24)
        with mp.workdps(34):
            for (n, v, e), (_, vh, _) in zip(lo.coefficients, hi.coefficients):
                assert abs(v - vh) <= e, "coefficient %d" % n

    def test_metadata(self):
        p = moment_polynomial(2, 12)
        assert p.metadata["prime_cutoff"] > 0
        assert p.metadata["r_max_used"] >= 5
        assert p.metadata["tol"] == 1e-12
        assert "zetamoments" in p.metadata["cache_versions"]

    def test_validation(self):
        with pytest.raises(ValueError):
            moment_polynomial(-1)
        with pytest.raises(ValueError):
            moment_polynomial(2, 0)
        with pytest.raises(ValueError):
            c_coeff(-1, 2)


# (k, digits, tol) requests every public entry point refuses with ValueError
BAD_REQUESTS = [
    (True, 10, None),
    (1.0, 10, None),
    (1, 0, None),
    (1, -3, None),
    (1, True, None),
    (1, "x", None),
    (1, 10, float("nan")),
    (1, 10, float("inf")),
    (1, 10, 0),
    (1, 10, -1.0),
    (1, 10, True),
    (1, 10, "1e-5"),
]

# entry points with a bad integer argument other than k, digits and tol
BAD_INDICES = [
    (c_coeff, (True, 2), "N"),
    (c_coeff, (1.0, 2), "N"),
    (d_table, (2, True), "n_max"),
    (d_table, (2, 1.0), "n_max"),
    (d_table_symbolic, (True,), "n_max"),
    (d_table_symbolic, (1.0,), "n_max"),
    (g_factor, (True,), "k"),
    (g_factor, (2.0,), "k"),
    (f_table, (True,), "n_max"),
    (f_table, (2.0,), "n_max"),
    (a_factor, (True,), "k"),
    (a_factor, (2.0,), "k"),
    (a_factor, (2, True), "digits"),
    (V_poly, (True, (), ()), "r"),
    (V_poly, (1.0, (), ()), "r"),
]


class TestInputContract:
    @pytest.mark.parametrize("k,digits,tol", BAD_REQUESTS)
    def test_c_coeff(self, k, digits, tol):
        with pytest.raises(ValueError):
            c_coeff(0, k, digits=digits, tol=tol)

    @pytest.mark.parametrize("k,digits,tol", BAD_REQUESTS)
    def test_W_coeff(self, k, digits, tol):
        before = len(moments._w_cache)
        with pytest.raises(ValueError):
            W_coeff((1,), (), k, digits=digits, tol=tol)
        assert len(moments._w_cache) == before

    @pytest.mark.parametrize("k,digits,tol", BAD_REQUESTS)
    def test_d_table(self, k, digits, tol):
        with pytest.raises(ValueError):
            d_table(k, 0, digits=digits, tol=tol)

    @pytest.mark.parametrize("k,digits,tol", BAD_REQUESTS)
    def test_moment_polynomial(self, k, digits, tol):
        with pytest.raises(ValueError):
            moment_polynomial(k, digits=digits, tol=tol)

    @pytest.mark.parametrize("fn,args,name", BAD_INDICES,
                             ids=["-".join([f.__name__] + [repr(x) for x in a])
                                  for f, a, _ in BAD_INDICES])
    def test_other_integer_arguments(self, fn, args, name):
        # booleans and floats are refused on entry, before any W work
        before = len(moments._w_cache)
        with pytest.raises(ValueError, match="^%s must be" % name):
            fn(*args)
        assert len(moments._w_cache) == before

    def test_good_tol_values_pass(self):
        assert W_coeff((), (), 1, digits=10, tol=1e-8).error > 0
        assert W_coeff((), (), 1, digits=10, tol=1).error > 0


@pytest.mark.slow
@pytest.mark.parametrize("k, digits, deeper", [(2, 30, 60), (3, 15, 45)])
def test_bars_hold_against_a_deeper_request(k, digits, deeper):
    # each bar covers its distance from the same request at more digits,
    # that request's own bar included
    got = moment_polynomial(k, digits).coefficients
    want = moment_polynomial(k, deeper).coefficients
    with mp.workdps(deeper + 10):
        for (N, v, e), (_, w, ew) in zip(got, want):
            assert abs(v - w) + ew <= e, N
