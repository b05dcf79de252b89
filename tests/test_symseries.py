import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from zetamoments.characters import character_value
from zetamoments import oracles
from zetamoments.oracles import (
    WPoly,
    _check_fixed_exp_log,
    bump_gamburd_residual,
    d_table_symbolic,
    f_table,
    monomial_eval,
    multinomial,
    schur_eval,
    schur_to_p,
)
from zetamoments.partitions import centralizer_order, contains, partitions_of
from zetamoments.symseries import (
    EMPTY_KEY,
    POWERSUM,
    SCHUR,
    KPoly,
    PairSeries,
    _log_l1,
    _low_product,
    _pack,
    _packed_log,
    _plan,
    _unpack,
    p_to_schur,
    series_exp,
    series_log,
    series_mul,
)


class TestKPoly:
    def test_basic_arithmetic(self):
        one_plus_k = KPoly((1, 1))
        sq = one_plus_k * one_plus_k
        assert sq.coeffs == (1, 2, 1)
        assert (sq - KPoly((1, 2, 1))) == 0
        assert (one_plus_k + 2).coeffs == (3, 1)
        assert (-one_plus_k).coeffs == (-1, -1)

    def test_zero_normalization(self):
        assert KPoly((0, 0, 0)).coeffs == ()
        assert KPoly((1, 0)).coeffs == (1,)
        assert KPoly() == 0
        assert KPoly((5,)) == 5
        assert KPoly((0, 1)) != 0

    def test_degree_and_eval(self):
        p = KPoly((Fraction(1, 2), 0, 3))
        assert p.degree == 2
        assert p(2) == Fraction(25, 2)
        assert KPoly().degree == -1
        assert KPoly()(7) == 0

    def test_rational_scaling_stays_exact(self):
        p = KPoly((1, 2)) * Fraction(1, 3)
        assert p.coeffs == (Fraction(1, 3), Fraction(2, 3))

    def test_float_scaling_floats_coefficients(self):
        p = KPoly((1, 2)) * mp.mpf("0.5")
        assert all(isinstance(c, mp.mpf) for c in p.coeffs)
        assert p(2) == mp.mpf("2.5")

    def test_variable_powers(self):
        k = KPoly.variable()
        assert (k * k * k).coeffs == (0, 0, 0, 1)
        assert (2 * k + 1)(10) == 21


class TestMultinomial:
    def test_values(self):
        assert multinomial(0, ()) == 1
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(6, (3, 3)) == 20

    def test_sum_mismatch_raises(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))
        with pytest.raises(ValueError):
            multinomial(3, (2, -1, 2))


class TestMonomialEval:
    def test_small_cases(self):
        assert monomial_eval((), (5, 7)) == 1
        assert monomial_eval((1,), (2, 3, 4)) == 9
        assert monomial_eval((2, 1), (2, 3)) == 2 * 2 * 3 + 3 * 3 * 2
        assert monomial_eval((1, 1), (2, 3)) == 6
        assert monomial_eval((1, 1), (5,)) == 0

    def test_repeated_parts_have_no_multiplicity_factor(self):
        # m_(1,1)(x, y, z) = xy + xz + yz
        assert monomial_eval((1, 1), (1, 1, 1)) == 3
        assert monomial_eval((2, 2), (1, 2, 3)) == 4 + 9 + 36

    def test_monomials_sum_to_powersum_products(self):
        # sum over partitions of n of (number of distinct rearrangements)
        # is checked indirectly: m_(n) is the powersum itself
        for n in range(1, 5):
            assert monomial_eval((n,), (2, 5)) == 2 ** n + 5 ** n


def powersum_eval(mu, xs):
    out = 1
    for r in mu:
        out *= sum(x ** r for x in xs)
    return out


class TestSchurEval:
    def test_small_shapes(self):
        x, y = Fraction(2), Fraction(3)
        assert schur_eval((1,), (x, y)) == 5
        assert schur_eval((2,), (x, y)) == x * x + x * y + y * y
        assert schur_eval((1, 1), (x, y)) == x * y
        assert schur_eval((2, 1), (x, y)) == x * y * (x + y)

    def test_empty_cases(self):
        assert schur_eval((), ()) == 1
        assert schur_eval((), (Fraction(4),)) == 1
        assert schur_eval((1, 1), (Fraction(4),)) == 0

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            schur_eval((1,), (Fraction(2), Fraction(2)))

    def test_matches_character_expansion(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(1, 4)
            xs = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)
            )
            if len(set(xs)) < n:
                continue
            for wt in range(1, 6):
                for lam in partitions_of(wt):
                    expect = sum(
                        Fraction(character_value(lam, mu), centralizer_order(mu))
                        * powersum_eval(mu, xs)
                        for mu in partitions_of(wt)
                    )
                    assert schur_eval(lam, xs) == expect


pair_keys = [
    (mu, nu)
    for w in range(1, 7)
    for a in range(w + 1)
    for mu in partitions_of(a)
    for nu in partitions_of(w - a)
]

coeff_st = st.fractions(min_value=-3, max_value=3, max_denominator=6)
series_dict_st = st.dictionaries(st.sampled_from(pair_keys), coeff_st, max_size=6)


class TestPairSeriesBasics:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PairSeries("fock", 4)
        with pytest.raises(ValueError):
            PairSeries(POWERSUM, -1)
        with pytest.raises(ValueError):
            PairSeries(POWERSUM, 2, {((2, 1), ()): 1})
        with pytest.raises(ValueError):
            PairSeries(POWERSUM, 4, {((1, 2), ()): 1})

    def test_zero_values_dropped(self):
        s = PairSeries(POWERSUM, 4, {((1,), ()): 0, ((2,), ()): 1})
        assert ((1,), ()) not in s.coeffs
        assert s.get((2,), ()) == 1
        assert s.get((1, 1), ()) == 0

    def test_mul_merges_part_multisets(self):
        a = PairSeries(POWERSUM, 6, {EMPTY_KEY: 1, ((2,), ()): 3})
        b = PairSeries(POWERSUM, 6, {EMPTY_KEY: 1, ((1,), (1,)): 5})
        c = series_mul(a, b)
        assert c.get((), ()) == 1
        assert c.get((2,), ()) == 3
        assert c.get((1,), (1,)) == 5
        assert c.get((2, 1), (1,)) == 15

    def test_mul_truncates_to_smaller_order(self):
        a = PairSeries(POWERSUM, 3, {((2,), ()): 1})
        b = PairSeries(POWERSUM, 5, {((2,), ()): 1})
        c = series_mul(a, b)
        assert c.max_weight == 3
        assert c.coeffs == {}

    def test_mul_basis_errors(self):
        a = PairSeries(POWERSUM, 3)
        b = PairSeries(SCHUR, 3)
        with pytest.raises(ValueError):
            series_mul(a, b)
        with pytest.raises(ValueError):
            series_mul(b, b)

    def test_log_exp_preconditions(self):
        with pytest.raises(ValueError):
            series_log(PairSeries(POWERSUM, 3, {EMPTY_KEY: 2}))
        with pytest.raises(ValueError):
            series_log(PairSeries(POWERSUM, 3))
        with pytest.raises(ValueError):
            series_exp(PairSeries(POWERSUM, 3, {EMPTY_KEY: 1}))
        with pytest.raises(ValueError):
            series_exp(PairSeries(SCHUR, 3))


def all_products(plan, w, j):
    """Every (out, a, b) with keys[a] of weight j and keys[b] of weight w - j,
    keys[out] their partitions merged, independent of plan.products."""
    index = {key: i for i, key in enumerate(plan.keys)}
    return [(index[tuple(tuple(sorted(x + y, reverse=True))
                         for x, y in zip(plan.keys[a], plan.keys[b]))], a, b)
            for a in range(plan.starts[j], plan.starts[j + 1])
            for b in range(plan.starts[w - j], plan.starts[w - j + 1])]


class TestExpLog:
    @given(series_dict_st)
    def test_exp_then_log_roundtrip(self, d):
        a = PairSeries(POWERSUM, 6, d)
        assert series_log(series_exp(a)) == a

    @given(series_dict_st)
    def test_log_then_exp_roundtrip(self, d):
        coeffs = dict(d)
        coeffs[EMPTY_KEY] = Fraction(1)
        s = PairSeries(POWERSUM, 6, coeffs)
        assert series_exp(series_log(s)) == s

    def test_log_matches_defining_series(self):
        s = PairSeries(
            POWERSUM,
            6,
            {
                EMPTY_KEY: 1,
                ((1,), ()): Fraction(1, 2),
                ((1,), (1,)): Fraction(1, 3),
                ((2,), (2, 1)): 2,
            },
        )
        x = s.copy()
        del x.coeffs[EMPTY_KEY]
        total = PairSeries(POWERSUM, 6)
        power = PairSeries(POWERSUM, 6, {EMPTY_KEY: 1})
        for m in range(1, 7):
            power = series_mul(power, x)
            for key, val in power.coeffs.items():
                cur = total.coeffs.get(key, 0) + Fraction((-1) ** (m + 1), m) * val
                if cur == 0:
                    total.coeffs.pop(key, None)
                else:
                    total.coeffs[key] = cur
        assert series_log(s) == total

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mirror_halved_log_matches_full_recurrence(self, seed):
        # _packed_log sums only the plan's outputs, each the first of its
        # mirror pair, and copies the mirrors; on symmetric input that is
        # the full recurrence over every product of two keys, here merged
        # by brute force, on Q-series of 3 slots each
        rng = random.Random(seed)
        wmax, slots = 6, 3
        plan = _plan(wmax)
        assert all(plan.keys[t] == key[::-1]
                   for key, t in zip(plan.keys, plan.twin))
        s = [[0] * slots]
        for i in range(1, len(plan.keys)):
            t = plan.twin[i]
            s.append(s[t] if t < i else
                     [rng.randrange(-2**20, 2**20) for _ in range(slots)])
        full = [list(c) for c in s]
        for w in range(2, wmax + 1):
            for j in range(1, w):
                c = math.comb(w - 1, j - 1)
                for out, a, b in all_products(plan, w, j):
                    for u in range(slots):
                        full[out][u] -= c * sum(full[a][i] * s[b][u - i]
                                                for i in range(u + 1))
        t = [sum(sum(map(abs, s[i])) for i in range(plan.starts[w], plan.starts[w + 1]))
             for w in range(wmax + 1)]
        K = max(_log_l1(t)).bit_length() + 1
        got = _packed_log(plan, [_pack(x, K) for x in s], K, slots)
        assert [_unpack(v, K, slots) for v in got[1:]] == full[1:]
        assert all(got[i] is got[t] for i, t in enumerate(plan.twin) if t < i)

    def test_plan_stores_each_mirror_pair_once(self):
        # the plan keeps exactly the products whose output is the first of
        # its mirror pair; with the mirrors (twin[o], twin[a], twin[b]) of
        # those whose output is not its own mirror they make up every
        # product once
        for wmax in range(9):
            plan = _plan(wmax)
            twin = plan.twin
            for w in range(wmax + 1):
                for j in range(w + 1):
                    got, full = list(plan.products[w][j]), all_products(plan, w, j)
                    assert got == [t for t in full if twin[t[0]] >= t[0]]
                    mirrors = [(twin[o], twin[a], twin[b])
                               for o, a, b in got if twin[o] > o]
                    assert sorted(got + mirrors) == sorted(full)
        assert sum(len(t) for row in _plan(12).products for t in row) == 37903

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixed_point_exp_and_log_match_fractions(self, seed):
        # the selftest row's check on three more series: _exp_fixed against
        # Fraction series_exp within its docstring bound, and _packed_log
        # exactly n! times Fraction series_log
        _check_fixed_exp_log(seed)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixed_point_log_within_its_bound(self, seed):
        # the integer log L = n! log(1 + X) of a positive symmetric S = n! X
        # through _packed_log is exact, and each weight's sum of |L| is under
        # _log_l1's bound Lam, which sets its slot width
        rng = random.Random(seed)
        wmax = 5
        plan = _plan(wmax)
        S, n = {}, {key: sum(key[0]) + sum(key[1]) for key in plan.keys}
        for key in plan.keys[1:]:
            S[key] = S.get(key[::-1]) or rng.randrange(1, 2**12)
        exact = series_log(PairSeries(POWERSUM, wmax, {EMPTY_KEY: 1, **{
            key: Fraction(v, math.factorial(n[key])) for key, v in S.items()}}))
        t = [sum(v for key, v in S.items() if n[key] == w) for w in range(wmax + 1)]
        lam = _log_l1(t)
        K = max(lam).bit_length() + 1
        got = _packed_log(plan, [0] + [S[key] for key in plan.keys[1:]], K, 1)
        for w in range(1, wmax + 1):
            block = range(plan.starts[w], plan.starts[w + 1])
            L = [_unpack(got[i], K, 1)[0] for i in block]
            assert L == [exact.get(*plan.keys[i]) * math.factorial(w) for i in block]
            assert sum(map(abs, L)) <= lam[w], w

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("R", [0, 5, 18, 30])
    def test_low_product_matches_naive_convolution(self, seed, R):
        # signed series of 12 and 8 terms, whose product has 19: R = 0 and 5
        # cut it, R = 18 takes all of it, R = 30 reads zeros past its end;
        # the all-extreme pair puts |c_u| = (u + 1) max|a| max|b| at the
        # slot bound, with both signs
        rng = random.Random(seed)
        pairs = [([rng.randrange(-2**60, 2**60) for _ in range(12)],
                  [rng.randrange(-2**40, 2**40) for _ in range(8)]),
                 ([-(2**60 - 1)] * 12, [2**40 - 1] * 8),
                 ([2**seed - 1] * 12, [-1, 1] * 4)]
        for a, b in pairs:
            want = [sum(a[i] * b[u - i] for i in range(len(a))
                        if 0 <= u - i < len(b)) for u in range(R + 1)]
            assert _low_product(a, b, R) == want

    def test_exp_of_single_powersum(self):
        # exp(c * p_1 x 1) has coefficient c^m / m! on the m-fold key
        c = Fraction(3, 2)
        a = PairSeries(POWERSUM, 5, {((1,), ()): c})
        e = series_exp(a)
        fact = [1, 1, 2, 6, 24, 120]
        for m in range(6):
            key = ((1,) * m, ())
            assert e.coeffs.get(key, 0) == c ** m * Fraction(1, fact[m])


# a small log-side series over the nonempty keys up to weight 4, one seed
# value per key; each ring below builds its coefficients from these
RING_KEYS = [key for key in _plan(4).keys[1:] if len(key[0]) + len(key[1]) <= 2]


def ring_series(ring):
    coeffs = {}
    for i, key in enumerate(RING_KEYS):
        if ring == "mpf":
            coeffs[key] = mp.mpf(i % 5 - 2) / (i + 3)
        elif ring == "kpoly":
            coeffs[key] = KPoly((Fraction(i % 3 - 1, i + 2), 2, -i))
        else:
            coeffs[key] = WPoly.symbol(*key) * Fraction(1, i + 1)
    return PairSeries(POWERSUM, 4, coeffs)


def same_series(a, b, ring):
    if ring != "mpf":
        return a == b
    tol = mp.mpf(10) ** (5 - mp.dps)
    keys = set(a.coeffs) | set(b.coeffs)
    return a.max_weight == b.max_weight and all(
        abs(a.get(*key) - b.get(*key)) <= tol for key in keys
    )


class TestPlanAcrossRings:
    @pytest.mark.parametrize("ring", ["mpf", "kpoly", "wpoly"])
    def test_exp_then_log_then_exp(self, ring):
        with mp.workdps(30):
            a = ring_series(ring)
            e = series_exp(a)
            assert e.coeffs[EMPTY_KEY] == 1
            assert same_series(series_log(e), a, ring)
            assert same_series(series_exp(series_log(e)), e, ring)

    @pytest.mark.parametrize("ring", ["mpf", "kpoly", "wpoly"])
    def test_mul_matches_exp_of_sum(self, ring):
        # exp(a) * exp(a) = exp(2a), and an unequal order truncates
        with mp.workdps(30):
            a = ring_series(ring)
            e = series_exp(a)
            two = PairSeries(POWERSUM, 4, {k: v * 2 for k, v in a.coeffs.items()})
            assert same_series(series_mul(e, e), series_exp(two), ring)
            low = PairSeries(POWERSUM, 2, {
                k: v for k, v in e.coeffs.items() if sum(k[0]) + sum(k[1]) <= 2
            })
            got = series_mul(low, e)
            assert got.max_weight == 2
            assert same_series(got, series_mul(low, low), ring)

    def test_weight_zero(self):
        one = PairSeries(POWERSUM, 0, {EMPTY_KEY: 1})
        assert series_log(one).coeffs == {}
        assert series_exp(PairSeries(POWERSUM, 0)) == one
        assert series_mul(one, PairSeries(POWERSUM, 3, {EMPTY_KEY: 5})) == (
            PairSeries(POWERSUM, 0, {EMPTY_KEY: 5})
        )

    def test_symbolic_route_builds_no_plan(self, monkeypatch):
        # series_mul, series_exp and series_log, the f-table built afresh and
        # d_table_symbolic run on the coefficient dicts alone
        before = _plan.cache_info()
        s = PairSeries(POWERSUM, 5, {EMPTY_KEY: 1, ((1,), (2,)): 3})
        series_exp(series_log(s))
        series_mul(s, s)
        monkeypatch.setitem(oracles._f_store, "built", None)
        f_table(3)
        d_table_symbolic(3)
        after = _plan.cache_info()
        assert after.hits + after.misses == before.hits + before.misses

    def test_plan_layout(self):
        plan = _plan(3)
        assert plan.keys[0] == EMPTY_KEY
        for w in range(4):
            block = plan.keys[plan.starts[w]:plan.starts[w + 1]]
            assert {sum(m) + sum(n) for m, n in block} <= {w}
            for j in range(w + 1):
                for out, a, b in plan.products[w][j]:
                    (m1, n1), (m2, n2) = plan.keys[a], plan.keys[b]
                    assert sum(m1) + sum(n1) == j
                    assert sorted(plan.keys[out][0]) == sorted(m1 + m2)
                    assert sorted(plan.keys[out][1]) == sorted(n1 + n2)
        assert len(plan.keys) == len(set(plan.keys)) == 1 + 2 + 5 + 10


class TestBasisTransitions:
    def test_single_powersum_to_schur(self):
        s = PairSeries(POWERSUM, 2, {((2,), ()): 1})
        t = p_to_schur(s)
        assert t.basis == SCHUR
        assert t.coeffs == {((2,), ()): 1, ((1, 1), ()): -1}

    def test_single_schur_to_powersum(self):
        s = PairSeries(SCHUR, 2, {((1, 1), ()): 1})
        t = schur_to_p(s)
        assert t.coeffs == {
            ((1, 1), ()): Fraction(1, 2),
            ((2,), ()): Fraction(-1, 2),
        }

    @given(series_dict_st)
    @settings(max_examples=40)
    def test_roundtrip_both_ways(self, d):
        s = PairSeries(POWERSUM, 6, d)
        assert schur_to_p(p_to_schur(s)) == s
        t = PairSeries(SCHUR, 6, d)
        assert p_to_schur(schur_to_p(t)) == t

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            p_to_schur(PairSeries(SCHUR, 2))
        with pytest.raises(ValueError):
            schur_to_p(PairSeries(POWERSUM, 2))


def iter_cells(lam):
    for i, q in enumerate(lam):
        for j in range(q):
            yield (i, j)


def border_strip_sign(kap, lam):
    """Sign of lam/kap as a border strip, or None when it is not one."""
    if not contains(lam, kap):
        return None
    cells = set(iter_cells(lam)) - set(iter_cells(kap))
    if not cells:
        return None
    for (i, j) in cells:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cells:
            return None
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in cells and nb not in seen:
                stack.append(nb)
    if seen != cells:
        return None
    rows = {i for (i, j) in cells}
    return (-1) ** (len(rows) - 1)


class TestPowersumTimesSchur:
    def test_matches_border_strip_rule(self):
        # multiply a single Schur index by one powersum through the
        # powersum basis and compare with the direct strip expansion
        for total in range(2, 8):
            for u in range(1, total):
                for kap in partitions_of(total - u):
                    s = schur_to_p(PairSeries(SCHUR, total, {(kap, ()): 1}))
                    p = PairSeries(POWERSUM, total, {((u,), ()): 1})
                    out = p_to_schur(series_mul(s, p))
                    expect = {}
                    for lam in partitions_of(total):
                        sgn = border_strip_sign(kap, lam)
                        if sgn is not None:
                            expect[(lam, ())] = sgn
                    got = {k: v for k, v in out.coeffs.items() if v != 0}
                    assert got == expect


class TestSplitAlphabetResidual:
    def setup_method(self):
        self.saved = mp.dps
        mp.dps = 40

    def teardown_method(self):
        mp.dps = self.saved

    def alphabet(self, seed, size):
        rng = random.Random(seed)
        vals = []
        while len(vals) < size:
            x = mp.mpf(rng.randint(-4000, 4000)) / 1000
            if all(abs(x - v) >= mp.mpf("1e-3") for v in vals):
                vals.append(x)
        return tuple(vals)

    def test_shape_validation(self):
        pts = self.alphabet(1, 4)
        with pytest.raises(ValueError):
            bump_gamburd_residual((1, 1, 1), (), pts)
        with pytest.raises(ValueError):
            bump_gamburd_residual((1,), (), pts[:3])

    def test_residual_tiny_for_weight_two_pairs(self):
        pairs = [
            ((), ()),
            ((1,), ()),
            ((), (1,)),
            ((1,), (1,)),
            ((2,), ()),
            ((1, 1), ()),
            ((), (2,)),
            ((2,), (2,)),
            ((1, 1), (2,)),
        ]
        for seed in (3, 4):
            pts = self.alphabet(seed, 4)
            for kap, lam in pairs:
                r = bump_gamburd_residual(kap, lam, pts)
                assert r < mp.mpf("1e-30"), (kap, lam, r)

    def test_marker_case_right_side_collapses(self):
        # colliding merge forces the split sum itself to cancel
        pts = self.alphabet(9, 2)
        r = bump_gamburd_residual((), (), pts)
        assert r < mp.mpf("1e-30")
