"""Tests for the moment pipeline: exact tables, the W engine, assembly."""

import contextlib
import functools
import hashlib
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
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, mpf_add, mpf_div,
                          mpf_mul, to_fixed)

import zetamoments
from zetamoments import moments
from zetamoments.characters import character_table, character_value, power_dim_table
from zetamoments.frobenius_schur import complement_point
from zetamoments.moments import (
    MomentPolynomial,
    NonConvergenceError,
    W_coeff,
    _a_seqs,
    _b_series,
    _below_tol,
    _gauss_square_poly,
    _head_logs,
    _head_polys,
    _ratio_numerators,
    _v_series,
    a_factor,
    c_coeff,
    d_table,
    g_factor,
    moment_polynomial,
)
from zetamoments.oracles import (
    V_poly,
    WPoly,
    _check_assembly_routes,
    _check_head_log,
    _check_w_tail,
    _power_sums_mpf,
    _series_log_list,
    d_table_symbolic,
    f_table,
)
from zetamoments.partitions import (
    centralizer_order,
    complement,
    conjugate,
    dim_complement,
    dim_hook,
    dim_paths,
    frobenius_coords,
    partitions_of,
)
from zetamoments.symseries import (
    EMPTY_KEY,
    POWERSUM,
    KPoly,
    PairSeries,
    _plan,
    _unpack,
    series_exp,
    series_log,
    series_mul,
)
from zetamoments import zeta_numerics
from zetamoments.zeta_numerics import (
    MAX_WEIGHT, head_power_sums, prime_zeta_beyond, primes_upto)

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


def _v_tables(k, wmax, R):
    """The engine's V and majorant tables to order R, from the head's logs."""
    return _v_series(k, wmax, R, _head_polys(k, wmax))


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
            tail = _v_tables(k, 4, 6)[0]
            for r in range(1, 7):
                for mu, nu in _plan(4).keys:
                    assert V_poly(r, mu, nu)(k) == tail[r].get((mu, nu), 0)

    def test_empty_pair_matches_local_log_coefficients(self):
        # two independent builds of the same scalar sequence
        for k in (2, 3, 4):
            b = _b_series(k, 8)
            for r in range(1, 9):
                assert V_poly(r, (), ())(k) == b[r]
                assert _v_tables(k, 0, 8)[0][r][EMPTY_KEY] == b[r]
                assert _v_tables(k, 2, 8)[0][r][EMPTY_KEY] == b[r]

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
        short, long_ = _v_tables(2, 3, 8), _v_tables(2, 3, 16)
        for r in range(1, 9):
            assert short[0][r] == long_[0][r]
            assert short[1][r] == long_[1][r]

    @pytest.mark.parametrize("k,wmax", [(1, 2), (2, 4), (3, 4)])
    def test_majorant_bounds_every_value(self, k, wmax):
        vr, vb = _v_tables(k, wmax, 14)
        for r in range(1, 15):
            for key, v in vr[r].items():
                assert abs(v) <= vb[r][key], (r, key)

    def test_packed_route_matches_v_poly(self):
        # V from the head's packed log against the f-table contraction, k =
        # 1..6 (k = 1: Drev = 1 - Q), every key of weight <= 5, r <= 8
        keys = _plan(5).keys
        tables = {k: _v_tables(k, 5, 8)[0] for k in range(1, 7)}
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
        vr, vb = _v_tables(k, wmax, R)
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
        vr, vb = _v_tables(k, 5, 32)
        for r in range(1, 33):
            assert vr[r].keys() <= vb[r].keys()
            for key, v in vr[r].items():
                assert abs(v) <= vb[r][key], (r, key)

    def test_order_16_is_a_prefix_of_order_32(self):
        short, long_ = _v_tables(4, 6, 16), _v_tables(4, 6, 32)
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
    factor z0 summed from its integer coefficient row, then log z0."""
    with mp.workdps(wdps):
        u_top = int((wdps * math.log(10) + 30) / math.log(2)) + 30
        row = _a_seqs(k, 0, u_top)[()]
        out = mp.mpf(0)
        for p in primes:
            up = min(u_top, int((wdps * math.log(10) + 30) / math.log(p)) + 30)
            d = sum(row[u] ** 2 * p ** (up - u) for u in range(up + 1))
            z0 = mp.mpf(d) * mp.mpf(p) ** (-up)
            out += mp.log(z0)
        return out


class TestEmptyKeyHead:
    WDPS = 65

    def _check(self, k, primes):
        with mp.workdps(self.WDPS):
            got = _head_logs(k, 0, primes, _head_polys(k, 0))[EMPTY_KEY]
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 313])
def test_head_polys_are_the_exact_log(k, p):
    # Lhat(p) = n! lg(p) D(p)**n exactly, lg the Fraction pair-series log of
    # 1 + X(1/p), D = p**(k-1) A_k(p) (p-1), each of degree <= (2k-1) n; the
    # closed-form X is within 2**-120 of the truncated dot products
    wmax = {1: 3, 2: 4, 3: 4, 4: 5}[k]
    plan, numer = _plan(wmax), _ratio_numerators(k, wmax)
    A = sum(c * p ** (k - 1 - j) for j, c in enumerate(_gauss_square_poly(k)))
    D = p ** (k - 1) * A * (p - 1)
    x = {}
    for pair, (n, N, nd) in numer.items():
        x[pair] = x[pair[::-1]] = Fraction(
            sum(c * p ** (len(N) - 1 - i) for i, c in enumerate(N)),
            p ** (k - 1) * A * (p - 1) ** n * nd)
    ref = _ratio_reference(k, wmax, p, 120)
    assert all(abs(x[pair] - v) < Fraction(1, 2**120) for pair, v in ref.items())
    lg = series_log(PairSeries(POWERSUM, wmax, {EMPTY_KEY: 1, **x}))
    K, L, *_ = _head_polys(k, wmax)
    width = (2 * k - 1) * wmax + 1
    for i, key in enumerate(plan.keys[1:], 1):
        n = sum(key[0]) + sum(key[1])
        c = _unpack(L[i], K, width)
        assert c[(2 * k - 1) * n + 1:] == [0] * ((2 * k - 1) * (wmax - n)), key
        got = sum(v * p**u for u, v in enumerate(c))
        assert got == lg.get(*key) * math.factorial(n) * D**n, key


class TestHeadLogs:
    """The integer head against the mpf pair-series log it replaced, each
    head prime's whole local log."""

    @pytest.mark.parametrize("k,wmax,digits", [(3, 4, 15), (2, 4, 30), (3, 9, 30),
                                               (1, 1, 15), (1, 2, 15), (1, 3, 15),
                                               (4, 6, 15)])
    def test_matches_mpf_series_log(self, k, wmax, digits):
        # p = 2, 3 and the last head prime, against the oracle at digits + 30
        _check_head_log((k, wmax, digits))

    def test_primes_add_up(self):
        primes = [2, 3, 5, 7, 11]
        with mp.workdps(30):
            polys = _head_polys(3, 3)
            whole = _head_logs(3, 3, primes, polys)
            parts = [_head_logs(3, 3, [p], polys) for p in primes]
            tol = len(primes) * mp.ldexp(1, -(mp.prec + 9))
        with mp.workdps(60):
            for key, v in whole.items():
                assert abs(v - sum(part[key] for part in parts)) <= tol, key

    def test_no_primes_is_zero(self):
        with mp.workdps(20):
            got = _head_logs(2, 3, [], _head_polys(2, 3))
        assert set(got) == set(_plan(3).keys)
        assert all(v == 0 for v in got.values())


@pytest.mark.parametrize("k, wmax", [(1, 3), (2, 4), (3, 4), (4, 6)])
def test_v1_is_each_key_leading_inverse_p_part(k, wmax):
    # V_1 times the head primes' r = 1 power sum is the 1/p part of the
    # head's local logs, which the tail subtracts like any other order: V_1
    # is k**2 at the empty key, k**(2-len(mu)-len(nu)) C(n, |mu|) where both
    # partitions have at most one part, and absent at every other key
    v1 = _v_series(k, wmax, 1, _head_polys(k, wmax))[0][1]
    want = {EMPTY_KEY: k * k}
    for m, nu in _plan(wmax).keys[1:]:
        if len(m) <= 1 and len(nu) <= 1:
            n = sum(m) + sum(nu)
            want[(m, nu)] = k ** (2 - len(m) - len(nu)) * math.comb(n, sum(m))
    assert v1 == want
    assert all(F(v).denominator == 1 for v in v1.values())


def _relative_families(monkeypatch, digits):
    """Make the W engine take every prime family to digits + 10 digits
    relative to its own size: beyond the cutoff that adds the cancelled
    ratio, r * log10(max prime / 2) + 8 digits."""

    seen, taylor, sieve = {}, moments.prime_zeta_taylor, moments.primes_upto

    def primes_upto(x):
        seen["primes"] = sieve(x)
        return seen["primes"]

    def prime_zeta_taylor(r, *args):
        seen["r"] = r
        return taylor(r, *args)

    def fixed(_, nmax, B, __, ___):
        r, ps = seen["r"], seen["primes"]
        extra = int(r * math.log10(ps[-1] / 2.0)) + 8 if r > 1 else 0
        fam_digits = digits + 10 + extra
        Bh, (row,) = head_power_sums(ps, r, r, nmax, fam_digits)
        return zeta_numerics.prime_zeta_fixed(
            taylor(r, nmax, fam_digits).coeffs, nmax, B, row, Bh)

    monkeypatch.setattr(moments, "primes_upto", primes_upto)
    monkeypatch.setattr(moments, "prime_zeta_taylor", prime_zeta_taylor)
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
            orders.append(a[2:4])
            return real(*a)

        def fixed_scale(*a):
            v_tab, vb_tab, fam_digits, _, head = real(*a)
            return v_tab, vb_tab, fam_digits, 400, head

        monkeypatch.setattr(moments, "_v_chunk", record)
        got, got_errs, meta = moments._w_engine(2, 3, 40, 1e-40)
        assert orders == [(1, 16), (17, 20)]
        polys = _head_polys(2, 3)
        assert (real(2, 3, 17, 20, 40, [], polys)[3]
                == real(2, 3, 1, 16, 40, [], polys)[3] + 4)
        monkeypatch.setattr(moments, "_v_chunk", fixed_scale)
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
        # one head pass per V chunk, over the orders it adds, r = 1 among
        # them: c_0(3) at 50 digits takes pcut 990 and R = 28 and stops at
        # r = 23, so its 166 head primes take one pass, r = 1..28; c_4(3)
        # at 15 digits stays within R = 16; W at (2, 3, 40) adds the R = 20
        # table at r = 17
        calls, real = [], moments.head_power_sums

        def counted(primes, r0, r1, nmax, digits):
            calls.append((r0, r1))
            return real(primes, r0, r1, nmax, digits)

        monkeypatch.setattr(moments, "head_power_sums", counted)
        monkeypatch.setattr(moments, "_w_cache", {})
        for run, want in [(lambda: c_coeff(0, 3, 50), [(1, 28)]),
                          (lambda: c_coeff(4, 3, 15), [(1, 16)]),
                          (lambda: moments._w_engine(2, 3, 40, 1e-40),
                           [(1, 16), (17, 20)])]:
            calls.clear()
            run()
            assert calls == want

    @pytest.mark.parametrize("wmax, digits", [(4, 15), (0, 50)])
    def test_integer_families_match_the_public_views(self, wmax, digits):
        # lead5's and c0's families, r = 1..R of their first V table (c0:
        # pcut 990, R = 28), at the engine's family digits and head rows,
        # against the mpf views in units their rounding stays under; r = 1
        # is the regularized family less an mpf loop over the head primes
        pcut, R = moments._truncation(3, wmax, digits, 10.0**-digits)
        primes = primes_upto(pcut)
        _, _, fam_digits, _, (Bh, rows) = moments._v_chunk(
            3, wmax, 1, R, digits, primes, _head_polys(3, wmax))
        B = dps_to_prec(fam_digits)
        assert len(rows) == R
        for r, row in enumerate(rows, 1):
            got = zeta_numerics.prime_zeta_fixed(
                zeta_numerics.prime_zeta_taylor(r, wmax, fam_digits).coeffs,
                wmax, B, row, Bh)
            if r > 1:
                view = zeta_numerics.prime_zeta_beyond(r, wmax, primes, fam_digits)
            else:
                with mp.workdps(fam_digits + 10):
                    view = [c - (-1) ** n * h for n, (c, h) in enumerate(zip(
                        zeta_numerics.prime_zeta_taylor(1, wmax, fam_digits).coeffs,
                        _power_sums_mpf(primes, 1, wmax)))]
            want = [to_fixed(c._mpf_, B) for c in view]
            assert len(got) == wmax + 1, r
            assert all(abs(a - b) <= 2 for a, b in zip(got, want)), r

    def test_every_family_comes_from_the_one_lookup(self, monkeypatch):
        # each family the tail reads, r = 1..r_max_used, is the one
        # prime_zeta_taylor served for that r
        served, read = {}, []
        taylor, fixed = moments.prime_zeta_taylor, moments.prime_zeta_fixed

        def taylor_spy(r, nmax, digits):
            entry = taylor(r, nmax, digits)
            served[r] = entry.coeffs
            return entry

        def fixed_spy(coeffs, *args):
            read.append(next(r for r, c in served.items() if c is coeffs))
            return fixed(coeffs, *args)

        monkeypatch.setattr(moments, "prime_zeta_taylor", taylor_spy)
        monkeypatch.setattr(moments, "prime_zeta_fixed", fixed_spy)
        _, _, meta = moments._w_engine(3, 4, 15, 1e-15)
        want = range(1, meta["r_max_used"] + 1)
        assert read == list(want)
        assert sorted(served) == list(want)

    def test_families_are_asked_at_digits_plus_3_plus_l(self, monkeypatch):
        # lead5's W table: |V_r| < 10**12 over its R = 16 table, so every
        # family, r = 1..r_max_used, is asked at 15 + 3 + 12 digits
        asked, taylor = [], moments.prime_zeta_taylor

        def taylor_spy(r, nmax, digits):
            asked.append((r, digits))
            return taylor(r, nmax, digits)

        monkeypatch.setattr(moments, "prime_zeta_taylor", taylor_spy)
        _, _, meta = moments._w_engine(3, 4, 15, 1e-15)
        _, R = moments._truncation(3, 4, 15, 1e-15)
        v_tab, _ = _v_series(3, 4, R, _head_polys(3, 4))
        L = len(str(max(int(abs(f)) for vr in v_tab for f in vr.values())))
        assert L == 12 and meta["r_max_used"] <= R
        assert asked == [(r, 15 + 3 + L) for r in range(1, meta["r_max_used"] + 1)]

    @pytest.mark.parametrize("k, wmax, digits", [(3, 4, 15), (2, 4, 45)])
    def test_families_ten_digits_deeper_move_w_inside_the_budget(
            self, monkeypatch, k, wmax, digits):
        # the families' share of the W budget is 10**-(digits+9) (1 + |W|):
        # the same run with every family and head row 10 digits deeper, B
        # unchanged, lands within it; (2, 4, 45) also adds the R = 20 table
        got, _, meta = moments._w_engine(k, wmax, digits, 10.0**-digits)
        real = moments._v_chunk

        def deeper(k, wmax, r0, R, digits, primes, head):
            v_tab, vb_tab, fam_digits, B, _ = real(k, wmax, r0, R, digits, primes, head)
            return (v_tab, vb_tab, fam_digits + 10, B,
                    head_power_sums(primes, r0, R, wmax, fam_digits + 10))

        monkeypatch.setattr(moments, "_v_chunk", deeper)
        want, _, want_meta = moments._w_engine(k, wmax, digits, 10.0**-digits)
        assert meta == want_meta
        with mp.workdps(digits + 30):
            for key, v in want.items():
                assert abs(got[key] - v) <= mp.mpf(10) ** -(digits + 9) * (1 + abs(v)), key

    def test_c0_builds_one_log_zeta_table(self, monkeypatch):
        # c_0(3) at 50 digits asks every family at one digit count D and
        # reads log zeta_11 at the _moebius_stop(1, 0, D) - 1 = 75 arguments
        # of one table: one Borwein pass and one Euler-product pass in all
        calls, asked, taylor = [], set(), moments.prime_zeta_taylor
        for name in ("_zeta_borwein", "_log_zeta_euler"):
            real = getattr(zeta_numerics, name)

            def counted(ys, *args, real=real, name=name):
                calls.append((name, ys[0], ys[-1], args))
                return real(ys, *args)

            monkeypatch.setattr(zeta_numerics, name, counted)

        def taylor_spy(r, nmax, digits):
            asked.add(digits)
            return taylor(r, nmax, digits)

        monkeypatch.setattr(moments, "prime_zeta_taylor", taylor_spy)
        monkeypatch.setattr(zeta_numerics, "_installed_pzeta", {})
        monkeypatch.setattr(moments, "_w_cache", {})
        zeta_numerics._log_zeta_table.cache_clear()
        zeta_numerics._compute_prime_zeta.cache_clear()
        c_coeff(0, 3, 50)
        assert zeta_numerics._log_zeta_table.cache_info().currsize == 1
        (eta, lo, y_eta, _), (euler, start, top, (nmax, b, t)) = calls
        assert (eta, lo, euler, start) == ("_zeta_borwein", 1, "_log_zeta_euler", y_eta + 1)
        assert (y_eta, t) == zeta_numerics._crossover(nmax, b)
        (fam_digits,) = asked
        assert top == zeta_numerics._moebius_stop(1, nmax, fam_digits) - 1 == 75

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

    @pytest.mark.parametrize("N,k,tol", [(0, 1, 1e-30), (1, 2, 1e-30),
                                         (2, 3, 1e-20), (6, 3, 1e-20)],
                             ids=["0-1", "1-2", "2-3", "6-3"])
    def test_tol_far_below_digits_is_served(self, N, k, tol):
        # a tol past 10**-digits raises the families', the working, the
        # exponential's and the assembly's digits with the tail's target,
        # which they would otherwise leave behind; the value lies within its
        # bar of a deeper request, and at these points the bar lies under
        # tol (1 + |c_N|), where 5 digits alone leave it above 1e-19
        got = c_coeff(N, k, 5, tol=tol)
        want = c_coeff(N, k, 40)
        with mp.workdps(50):
            assert abs(got.value - want.value) <= got.error + want.error
            assert got.error <= tol * (1 + abs(got.value))

    @pytest.mark.parametrize("tol,want", [(1e-12, 12), (1e-6, 12), (3e-20, 20),
                                          (1e-30, 30)])
    def test_family_digits_follow_tol(self, monkeypatch, tol, want):
        # max(digits, ceil(-log10 tol)), so the default tol keeps digits
        seen, real = [], moments._v_chunk

        def spy(k, wmax, r0, R, digits, primes, head):
            seen.append(digits)
            return real(k, wmax, r0, R, digits, primes, head)

        monkeypatch.setattr(moments, "_v_chunk", spy)
        assert moments._w_engine(2, 2, 12, tol)[2]["digits"] == 12
        assert set(seen) == {want}

    @pytest.mark.parametrize("k, wmax, digits, tol", [(2, 3, 40, 1e-40),
                                                      (3, 4, 15, 1e-15),
                                                      (3, 0, 50, 1e-50)])
    def test_one_head_log_serves_every_chunk(self, monkeypatch, k, wmax,
                                             digits, tol):
        # _head_polys runs once per engine run, and its output reaches the
        # head sums and every V chunk, (2, 3, 40)'s (1, 16) and (17, 20)
        # included; _a_seqs never runs past order 2k - 1 + wmax
        built, seen, orders = [], [], []
        polys, logs, chunk, aseqs = (moments._head_polys, moments._head_logs,
                                     moments._v_chunk, moments._a_seqs)

        def count(*a):
            built.append(polys(*a))
            return built[-1]

        def head_logs(k, wmax, primes, head):
            seen.append(head)
            return logs(k, wmax, primes, head)

        def v_chunk(*a):
            seen.append(a[-1])
            orders.append(a[2:4])
            return chunk(*a)

        def a_seqs(k, wmax, U):
            assert U <= 2 * k - 1 + wmax
            return aseqs(k, wmax, U)

        for name, fn in (("_head_polys", count), ("_head_logs", head_logs),
                         ("_v_chunk", v_chunk), ("_a_seqs", a_seqs)):
            monkeypatch.setattr(moments, name, fn)
        moments._w_engine(k, wmax, digits, tol)
        assert len(built) == 1 and all(h is built[0] for h in seen)
        assert len(seen) == 1 + len(orders)
        if k == 2:
            assert orders == [(1, 16), (17, 20)]

    def test_unreachable_precision_raises(self):
        # weight 1 keeps the 16-order cutoff, past MAX_HEAD_PRIME at
        # 120 digits; weight 0 passes it from 151 digits at k = 1
        for mu, digits in [((1,), 120), ((), 200)]:
            with pytest.raises(NonConvergenceError) as info:
                W_coeff(mu, (), 1, digits=digits)
            assert info.value.meta["digits"] == digits

    def test_default_tol_underflow_is_non_convergence(self, monkeypatch):
        # from 324 digits on the default tol, 10.0**-digits, is 0.0: the
        # cutoff comes from t = 12 + digits (k = 2: rho = 2), and the request
        # is refused before any sieve or V table
        def banned(*args):
            raise AssertionError("work before the refusal")

        monkeypatch.setattr(zeta_numerics, "_prime_flags", banned)
        monkeypatch.setattr(moments, "_v_series", banned)
        monkeypatch.setattr(moments, "_w_cache", {})
        for call, digits, orders in [(lambda: c_coeff(0, 2, 330), 330, 28),
                                     (lambda: W_coeff((1,), (), 2, digits=400),
                                      400, 16)]:
            with pytest.raises(NonConvergenceError) as info:
                call()
            assert info.value.meta == {"k": 2, "digits": digits, "tol": 0.0}
            cut = 2 * 10 ** ((12 + digits) / (orders - 1))
            assert "prime cutoff %.0f beyond" % cut in str(info.value)
        # past 4,600 digits the 16-order cutoff leaves the float range
        with pytest.raises(NonConvergenceError, match="prime cutoff inf"):
            W_coeff((1,), (), 2, digits=5000)

    @pytest.mark.parametrize("k", [518, 600])
    def test_rho_past_the_float_range_is_non_convergence(self, k, monkeypatch):
        # from k = 518 rho(k) is an int no float holds; the cutoff is taken
        # in log10, reads inf and is refused before any sieve
        def banned(*args):
            raise AssertionError("work before the refusal")

        monkeypatch.setattr(zeta_numerics, "_prime_flags", banned)
        monkeypatch.setattr(moments, "_w_cache", {})
        assert math.log10(moments._rho_inv(k)) > 308
        for call in (lambda: W_coeff((1,), (), k, 10), lambda: c_coeff(0, k, 10)):
            with pytest.raises(NonConvergenceError, match="prime cutoff inf"):
                call()

    def test_weight_zero_past_the_old_wall(self):
        # A_1 = 1: the empty key's W at k = 1 is exactly 0
        got = W_coeff((), (), 1, digits=120)
        assert abs(got.value) <= got.error < mp.mpf(10) ** -120

    def test_validation(self):
        with pytest.raises(ValueError):
            W_coeff((), (), 0)
        with pytest.raises(ValueError):
            W_coeff((1, 2), (), 2)


def _c0_against_the_euler_product(monkeypatch, k, digits):
    # a fresh c_0 against a_k g_k / (k**2)!, a_factor at digits + 15: within
    # its bar, and the bar within the request
    monkeypatch.setattr(moments, "_w_cache", {})
    got = c_coeff(0, k, digits)
    with mp.workdps(digits + 30):
        want = a_factor(k, digits + 15) * g_factor(k) / math.factorial(k * k)
        assert abs(got.value - want) <= got.error
        assert got.error <= mp.mpf(10) ** -digits * abs(got.value)


class TestTruncation:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_weight_one_and_up_keep_the_16_order_cutoff(self, k):
        # every weight >= 1 request keeps _prime_cutoff's head and R = 16,
        # or its refusal; the last two cases set a tolerance of their own
        cases = [(d, 10.0 ** -d) for d in (5, 10, 15, 30, 50)]
        cases += [(12, 1e-30), (10, 1e-80)]
        for wmax in range(1, min(k * k, 9) + 1):
            for digits, tol_f in cases:
                try:
                    want = moments._prime_cutoff(k, digits, tol_f), 16
                except NonConvergenceError as refused:
                    with pytest.raises(NonConvergenceError) as info:
                        moments._truncation(k, wmax, digits, tol_f)
                    assert str(info.value) == str(refused)
                    assert info.value.meta == refused.meta
                    continue
                assert moments._truncation(k, wmax, digits, tol_f) == want

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_first_table_reaches_the_first_stop(self, k):
        # the first V table reaches the first order the tail may stop at,
        # so P_4 builds one table (R = 20 at weight 16, where the 16-order
        # cutoff alone gives 16 against a first stop of 19); below weight
        # 14 R stays weight 1's
        for digits in (5, 10, 15, 30):
            tol_f = 10.0 ** -digits
            try:
                pcut, R1 = moments._truncation(k, 1, digits, tol_f)
            except NonConvergenceError:
                continue
            for wmax in range(1, MAX_WEIGHT + 1):
                got = moments._truncation(k, wmax, digits, tol_f)
                assert got[1] >= moments._min_stop(wmax), (digits, wmax)
                assert got == (pcut, R1 if wmax <= 13 else max(R1, 20)), (
                    digits, wmax)

    @pytest.mark.parametrize("k, digits", [
        (k, d) for k in (1, 2, 3, 4, 5, 8) for d in (10, 15, 30, 50)
        if (k, d) != (8, 50)])
    def test_c0_against_the_euler_product(self, monkeypatch, k, digits):
        _c0_against_the_euler_product(monkeypatch, k, digits)

    @pytest.mark.slow
    @pytest.mark.parametrize("k, digits", [(11, 15), (8, 50), (2, 100)])
    def test_c0_past_the_16_order_walls(self, monkeypatch, k, digits):
        # each refused by _prime_cutoff, served by weight 0's own cutoff
        with pytest.raises(NonConvergenceError):
            moments._prime_cutoff(k, digits, 10.0 ** -digits)
        _c0_against_the_euler_product(monkeypatch, k, digits)

    def test_weights_past_max_weight_are_refused(self, monkeypatch):
        # P_5 and any other weight past P_4's 16 stop in _truncation, before
        # a plan that would not finish; the cutoff's refusals come first
        plan = moments._plan

        def guarded(wmax):
            assert wmax <= MAX_WEIGHT, "_plan(%d) started" % wmax
            return plan(wmax)

        monkeypatch.setattr(moments, "_plan", guarded)
        for call in (lambda: moment_polynomial(5, 5),
                     lambda: c_coeff(17, 5, 5),
                     lambda: W_coeff((9,), (8,), 5, 5),
                     lambda: d_table(5, 17, 5)):
            with pytest.raises(NonConvergenceError, match="MAX_WEIGHT = 16"):
                call()
        for k, digits in ((11, 15), (2, 324)):
            with pytest.raises(NonConvergenceError) as low:
                moments._truncation(k, 1, digits, 10.0 ** -digits)
            with pytest.raises(NonConvergenceError) as high:
                moments._truncation(k, 25, digits, 10.0 ** -digits)
            assert str(high.value) == str(low.value)
            assert "prime cutoff" in str(high.value)


# md5 digests of the exact tables at (k, wmax, R), each sorted by key:
# _v_series's V and majorant M and the head's unpacked Lhat, which every
# change to their routes keeps bit-identical
EXACT_TABLE_DIGESTS = {
    (3, 4, 16): ("639699d44e0bdb52939b39a249adb4d3",
                 "1641d6a66f037e0c6cefe44857708fbd",
                 "ebbe9251b461c58e3518cf793edcd596"),
    (2, 4, 16): ("d4684993374a7da398b27850e99a2e7d",
                 "eb1d014c7fe916b48d0c506be3e81d2d",
                 "5a9b31239b962c46d908992d889ba7db"),
    (3, 9, 20): ("6330be8c10c5e79f5335ac77f3f331d3",
                 "80b7f1512f0d2d7f8bf0c50722a3fcfe",
                 "d519620ad066a08bf6d63ff63a2af58d"),
    (4, 8, 16): ("ddfa5791c6c375f95b3f92d1cdbc59b9",
                 "11ead6dff7b9a6299f4d79cdeb88be91",
                 "748be2a809910561a79e24b037e00187"),
}


@pytest.mark.parametrize("k, wmax, R", list(EXACT_TABLE_DIGESTS))
def test_exact_tables_match_their_digests(k, wmax, R):
    def digest(x):
        return hashlib.md5(repr(x).encode()).hexdigest()

    head = _head_polys(k, wmax)
    V, M = _v_series(k, wmax, R, head)
    K, L = head[:2]
    width = (2 * k - 1) * wmax + 1
    lhat = sorted(zip(_plan(wmax).keys[1:], (_unpack(v, K, width) for v in L[1:])))
    assert (digest([sorted(t.items()) for t in V]),
            digest([sorted(t.items()) for t in M]),
            digest(lhat)) == EXACT_TABLE_DIGESTS[(k, wmax, R)]


# every memo in the package, each paying on the c_N path or serving an oracle
# route (frobenius_schur, dim_paths, monomial_eval); a new one needs a reason;
# partitions' memos sit behind the wrapper that refuses unhashable input
MEMOS = {
    "characters": {"_char_beta", "character_table"},
    "frobenius_schur": {"_faulhaber_half", "_hook_class_data",
                        "complement_point", "e_half_odds", "fs_hook",
                        "super_power_sum"},
    "oracles": {"_log_zeta_mpf", "monomial_eval"},
    "partitions": {"conjugate", "dim_paths", "partitions_of"},
    "symseries": {"_plan"},
    "zeta_numerics": {"_compute_prime_zeta", "_log_zeta_table"},
}


def test_memo_census():
    found = {}
    for info in pkgutil.iter_modules(zetamoments.__path__):
        mod = importlib.import_module("zetamoments." + info.name)
        names = {name for name, obj in vars(mod).items()
                 if (isinstance(obj, functools._lru_cache_wrapper)
                     or isinstance(getattr(obj, "__wrapped__", None),
                                   functools._lru_cache_wrapper))
                 and obj.__module__ == mod.__name__}
        if names:
            found[info.name] = names
    assert found == MEMOS


class TestDTable:
    def test_tol_far_below_digits_is_served(self):
        # the d-table works at max(digits, -log10 tol) with the W engine,
        # so every entry lies within its bar of a 40-digit request
        got, want = d_table(3, 4, 5, tol=1e-20), d_table(3, 4, 40)
        with mp.workdps(60):
            for key, v in got.items():
                assert abs(v.value - want[key].value) <= v.error + want[key].error, key

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

    def test_a_families_share_one_digit_level(self, monkeypatch):
        # each family at digits + 8 + L or more, |b_r| < 10**L, and at k = 3
        # all at one level, so they read one log zeta table, not 14
        seen, real = [], moments.prime_zeta_taylor

        def spy(r, nmax, digits):
            seen.append((r, digits))
            return real(r, nmax, digits)

        monkeypatch.setattr(moments, "prime_zeta_taylor", spy)
        a_factor(3, 50)
        for r, d in seen:
            br = moments._b_series(3, r)[r] - Fraction(9, r)
            assert d >= 58 + len(str(abs(br.numerator) // br.denominator)), r
        assert len(seen) > 20 and len({d for _, d in seen}) == 1

    def test_a_head_takes_one_pass_to_the_predicted_r(self, monkeypatch):
        # one head pass over r = 2..the predicted last r; with the
        # prediction cut to r = 3, each later r takes a pass of its own and
        # the product moves by under its digits
        calls, real = [], moments.head_power_sums

        def counted(primes, r0, r1, nmax, digits):
            calls.append((r0, r1))
            return real(primes, r0, r1, nmax, digits)

        monkeypatch.setattr(moments, "head_power_sums", counted)
        want = a_factor(3, 30)
        assert len(calls) == 1 and calls[0][0] == 2 and calls[0][1] > 12
        calls.clear()
        monkeypatch.setattr(moments, "envelope_bound", lambda *args: 0)
        got = a_factor(3, 30)
        assert calls[0] == (2, 3) and calls[1:] == [(r, r) for r in range(4, len(calls) + 3)]
        with mp.workdps(40):
            assert abs(got - want) < mp.mpf(10) ** -35

    def test_a_cutoff_past_the_head_cap_is_non_convergence(self, monkeypatch):
        # max(800, 4 rho(k)) passes MAX_HEAD_PRIME from k = 13 on: the
        # request is refused before any sieve runs
        def banned(n):
            raise AssertionError("sieved to %d" % n)

        monkeypatch.setattr(zeta_numerics, "_prime_flags", banned)
        with pytest.raises(NonConvergenceError) as info:
            a_factor(13, 5)
        assert info.value.meta == {"k": 13, "cutoff": 4 * (1 + math.comb(12, 6) ** 2)}

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
        vals, errs, _ = moments._w_full(k, k * k, digits)
        w, err = vals[EMPTY_KEY], errs[EMPTY_KEY]
        with mp.workdps(2 * digits + 40):
            top = _fraction(mp.exp(w + err))
        for N in range(k * k + 1):
            dims = power_dim_table(k, N)
            dot = sum(e[key] * dv for key, dv in dims.items())
            bar = sum(ee[key] * abs(dv) for key, dv in dims.items())
            fct = math.factorial(k * k - N)
            rest = _fraction(a_err) * F(abs(dot), 2**C) / fct
            want = (_fraction(aval) + _fraction(a_err)) * F(bar, 2 ** (2 * C)) / fct + rest
            got = _fraction(moments._assemble(N, k, digits, expw).error)
            assert want <= got <= want * (1 + F(1, 10 ** (digits + 8))), N
            # the ee term takes exp(W_empty) at the top of its interval, not
            # aval, which may lie below it
            assert top * F(bar, 2 ** (2 * C)) / fct + rest <= got, N
        # N = 0's bar is a_err g_k / (k**2)!: a_err bounds exp(W_empty) over
        # its whole error interval, the rounding of exp included
        with mp.workdps(2 * digits + 40):
            for x in (w - err, w + err):
                assert abs(mp.exp(x) - aval) < a_err

    @pytest.mark.parametrize("k, nmax, digits", [(3, 9, 15), (4, 8, 8)])
    def test_mirror_pair_sums_match_the_full_sums(self, k, nmax, digits):
        # _assemble sums e D_k and ee |D_k| once per mirror pair, twice off
        # the diagonal: every c_N of P_3(15), and c_0..c_8 of P_4 at 8
        # digits, is the same mpf as the sums over the full table give
        expw, _ = moments._exp_w(k, nmax, digits, None)
        aval, a_err, e, ee, C = expw
        prec = dps_to_prec(digits + 10)
        for N in range(nmax + 1):
            dims = power_dim_table(k, N)
            dot = sum(e[key] * dv for key, dv in dims.items())
            bar = sum(ee[key] * abs(dv) for key, dv in dims.items())
            fct = from_int(math.factorial(k * k - N))
            ahi = mpf_add(aval._mpf_, a_err._mpf_, prec, "u")
            err = mpf_add(mpf_mul(ahi, from_man_exp(bar, -2 * C), prec, "u"),
                          mpf_mul(a_err._mpf_, from_man_exp(abs(dot), -C), prec, "u"),
                          prec, "u")
            value = mpf_div(mpf_mul(aval._mpf_, from_man_exp(dot, -C)), fct, prec, "n")
            want = (mp.make_mpf(value), mp.make_mpf(mpf_div(err, fct, prec, "u")))
            got = moments._assemble(N, k, digits, expw)
            assert repr(tuple(got)) == repr(want), N

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

# entry points with a bad integer argument other than k, digits and tol, or
# a malformed partition
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
    (character_table, (-1,), "n"),
    (character_table, (2.0,), "n"),
    (W_coeff, (5, (), 2), "partition"),
    (W_coeff, ((1,), None, 2), "partition"),
    (character_value, (3, (3,)), "partition"),
    (dim_complement, (2, (1,), 2), "partition"),
    (PairSeries, (POWERSUM, 2, {(1, (1,)): 1}), "partition"),
    (prime_zeta_beyond, (2, 1, None), "head primes"),
    (power_dim_table, (None, 0), "k"),
    (power_dim_table, ("2", 1), "k"),
    (dim_hook, ((2, 3),), "partition parts"),
    (dim_hook, (None,), "partition"),
    (frobenius_coords, ((1, 2),), "partition parts"),
    (complement, ((1,), 2.0, 2), "K"),
    (partitions_of, (2.0,), "n"),
    (conjugate, ((1, 2),), "partition parts"),
    (conjugate, ([2, 1],), "partition"),
    (partitions_of, ([2],), "n"),
    (dim_paths, ([1], [2]), "partition"),
    (PairSeries, (POWERSUM, True), "max_weight"),
    (character_table, ([2],), "n"),
    (complement_point, ([1],), "partition"),
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

    def test_bool_part_is_refused(self):
        # True would read as the part 1, (True,) as the key (1,)
        before = dict(moments._w_cache)
        with pytest.raises(ValueError, match="partition parts"):
            W_coeff((True,), (), 2)
        assert moments._w_cache == before

    def test_good_tol_values_pass(self):
        assert W_coeff((), (), 1, digits=10, tol=1e-8).error > 0
        assert W_coeff((), (), 1, digits=10, tol=1).error > 0


_AUDIT_GRID = [
    # (k, Ns, digits, tol, deeper): Ns None asks for the whole polynomial
    (2, None, 30, None, 60),
    (2, None, 45, None, 60),
    (3, None, 15, None, 45),
    (3, None, 30, None, 60),
    (5, (12,), 15, None, 30),
    (8, (4,), 15, None, 25),
    (4, tuple(range(10, -1, -1)), 12, None, 20),
    (3, None, 5, 1e-20, 25),
]


@pytest.mark.slow
@pytest.mark.parametrize("k, Ns, digits, tol, deeper", _AUDIT_GRID, ids=[
    "k%d-%s-d%d-%s-vs%d" % (k, "N%d..%d" % (Ns[0], Ns[-1]) if Ns else "poly",
                            digits, "tol%g" % tol if tol else "tolNone", deeper)
    for k, Ns, digits, tol, deeper in _AUDIT_GRID])
def test_bars_hold_against_a_deeper_request(k, Ns, digits, tol, deeper):
    # each bar covers its distance from the same request at more digits,
    # that request's own bar included; c_N are asked one at a time in the
    # order Ns gives, and each side starts from an empty W cache.  P_2 at 45
    # digits stops at r = 17, whose beyond-cutoff family lies below its own
    # absolute accuracy, so its closure reads terms nearest the families'
    # floor.  On failure, the sharpness log10((bar + deeper bar) /
    # |difference|) per coefficient says how sharp each bar was
    def side(d, t):
        moments._w_cache.clear()
        if Ns is None:
            return list(moment_polynomial(k, d, t).coefficients)
        return [(N, *c_coeff(N, k, d, t)) for N in Ns]

    got, want = side(digits, tol), side(deeper, None)
    with mp.workdps(deeper + 10):
        sharp = [(N, mp.nstr(mp.log10((e + ew) / abs(v - w)), 4) if v != w else "inf")
                 for (N, v, e), (_, w, ew) in zip(got, want)]
        for (N, v, e), (_, w, ew) in zip(got, want):
            assert abs(v - w) + ew <= e, (N, sharp)
