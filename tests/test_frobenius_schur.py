from fractions import Fraction

import pytest

from zetamoments.frobenius_schur import (
    SkewDimPoly,
    complement_point,
    dim_complement_poly,
    dim_fs,
    e_half_odds,
    fs_hook,
    fs_schur,
    partition_point,
    square_point,
    super_power_sum,
)
from zetamoments.partitions import (
    complement,
    dim_complement,
    dim_hook,
    dim_paths,
    dim_skew_det,
    partitions_of,
)
from zetamoments.symseries import KPoly, _plan


def all_partitions_upto(n):
    for m in range(n + 1):
        yield from partitions_of(m)


class TestPoints:
    def test_partition_point_coordinates(self):
        pt = partition_point((2,))
        assert pt.x == (Fraction(3, 2),)
        assert pt.y == (Fraction(1, 2),)
        pt = partition_point(())
        assert pt.x == () and pt.y == ()

    def test_concrete_power_sums(self):
        pt = partition_point((2,))
        assert super_power_sum(1, pt) == 2
        assert super_power_sum(2, pt) == 2
        assert super_power_sum(3, pt) == Fraction(7, 2)

    def test_power_sum_order_validation(self):
        with pytest.raises(ValueError):
            super_power_sum(0, partition_point((1,)))

    def test_first_power_sum_is_weight(self):
        for lam in all_partitions_upto(8):
            assert super_power_sum(1, partition_point(lam)) == sum(lam)

    def test_square_point_even_orders_vanish(self):
        sq = square_point()
        for r in (2, 4, 6):
            assert super_power_sum(r, sq) == KPoly()

    def test_square_point_odd_orders(self):
        sq = square_point()
        p1 = super_power_sum(1, sq)
        assert p1.coeffs == (0, 0, 1)
        p3 = super_power_sum(3, sq)
        assert p3.degree == 4
        # symbolic values agree with the concrete square at each k
        for k in range(1, 7):
            concrete = partition_point((k,) * k)
            for r in range(1, 8):
                sym = super_power_sum(r, sq)
                val = sym(k) if isinstance(sym, KPoly) else sym
                assert val == super_power_sum(r, concrete)

    def test_complement_point_matches_concrete(self):
        for kap in [(), (1,), (2,), (1, 1), (2, 1), (3, 1)]:
            cp = complement_point(kap)
            start = max(2, (kap[0] + len(kap) + 1) if kap else 2)
            for k in range(start, start + 4):
                hat = complement(kap, k, k)
                concrete = partition_point(hat)
                for r in range(1, 7):
                    sym = cp.power_sum(r)
                    assert sym(k) == super_power_sum(r, concrete)

    def test_complement_point_of_empty_is_square(self):
        cp = complement_point(())
        sq = square_point()
        for r in range(1, 7):
            assert cp.power_sum(r) == super_power_sum(r, sq) + KPoly()


class TestHookMachinery:
    def test_e_half_odds_values(self):
        assert e_half_odds(0, 0) == 1
        assert e_half_odds(1, 2) == 2
        assert e_half_odds(2, 2) == Fraction(3, 4)
        assert e_half_odds(3, 2) == 0
        assert e_half_odds(1, 1) == Fraction(1, 2)

    def test_e_half_odds_validation(self):
        with pytest.raises(ValueError):
            e_half_odds(-1, 2)

    def test_single_hook_values(self):
        assert fs_hook(1, 0, partition_point((2,))) == 2
        assert fs_hook(0, 1, partition_point((1, 1))) == 2

    def test_fs_schur_empty_is_one(self):
        assert fs_schur((), partition_point((3, 1))) == 1

    def test_fs_schur_vanishes_off_containment(self):
        # same weight, different shape: the polynomial hits zero
        assert dim_fs((2,), (1, 1)) == 0
        assert dim_fs((3,), (2, 1)) == 0
        assert dim_fs((2, 2), (2, 1, 1)) == 0


class TestDimFs:
    def test_precondition(self):
        with pytest.raises(ValueError):
            dim_fs((2, 1), (1, 1))

    def test_matches_paths_and_determinant(self):
        for nu in all_partitions_upto(6):
            for mu in all_partitions_upto(sum(nu)):
                got = dim_fs(mu, nu)
                assert got == dim_paths(mu, nu)
                assert got == dim_skew_det(mu, nu)

    def test_empty_mu_gives_straight_dimension(self):
        for nu in all_partitions_upto(7):
            assert dim_fs((), nu) == dim_hook(nu)


class TestDimComplement:
    def test_empty_pair_gives_square_dimension(self):
        expect = {0: 1, 1: 1, 2: 2, 3: 42, 4: 24024}
        for k, g in expect.items():
            assert dim_complement((), (), k) == g

    def test_zero_when_kappa_does_not_fit(self):
        assert dim_complement((3,), (), 2) == 0
        assert dim_complement((1, 1, 1), (1,), 2) == 0

    def test_zero_when_lambda_outweighs_complement(self):
        assert dim_complement((), (2, 2, 1), 2) == 0
        assert dim_complement((2, 2), (1,), 2) == 0
        assert dim_complement((2, 1), (1, 1), 2) == 0

    def test_routes_agree(self):
        # the dimension polynomial against direct lattice-path counts
        for k in range(1, 5):
            for kap in all_partitions_upto(3):
                hat = complement(kap, k, k)
                for lam in all_partitions_upto(3):
                    want = 0
                    if hat is not None and sum(lam) <= sum(hat):
                        want = dim_paths(lam, hat)
                    assert dim_complement(kap, lam, k) == want

    def test_swap_symmetry(self):
        for k in range(1, 6):
            for kap in all_partitions_upto(4):
                for lam in all_partitions_upto(4 - sum(kap)):
                    assert dim_complement(kap, lam, k) == dim_complement(lam, kap, k)

    @pytest.mark.parametrize("k", [True, False, -1, 2.0, "3", None])
    def test_rejects_a_bad_k(self, k):
        with pytest.raises(ValueError):
            dim_complement((), (), k)

    @pytest.mark.parametrize("k,wmax", [(3, 9), (10, 4)])
    def test_engine_route_matches_fs(self, k, wmax):
        # every key of P_3, and the weight <= 4 keys at k = 10, against the
        # dimension polynomial; paths are the second oracle where they are
        # cheap (at k = 10 they take half a minute)
        for kap, lam in _plan(wmax).keys:
            hat = complement(kap, k, k)
            want = 0
            if hat is not None and sum(lam) <= sum(hat):
                want = dim_fs(lam, hat)
                if k == 3:
                    assert dim_paths(lam, hat) == want
            assert dim_complement(kap, lam, k) == want, (kap, lam)


class TestDimComplementPoly:
    def test_empty_pair(self):
        poly = dim_complement_poly((), ())
        assert isinstance(poly, SkewDimPoly)
        assert poly.depth == 0
        assert poly.B == KPoly.constant(Fraction(1))

    def test_single_cell(self):
        poly = dim_complement_poly((1,), ())
        assert poly.depth == 1
        # value check through the defining identity at a few k
        for k in range(2, 6):
            g = dim_hook((k,) * k)
            ff = 1
            for i in range(poly.depth):
                ff *= k * k - i
            assert dim_complement((1,), (), k) * ff == poly.B(k) * g

    def test_matches_values_small_pairs(self):
        pairs = []
        for kap in all_partitions_upto(2):
            for lam in all_partitions_upto(2):
                pairs.append((kap, lam))
        for kap, lam in pairs:
            poly = dim_complement_poly(kap, lam)
            N = sum(kap) + sum(lam)
            assert poly.depth == N
            assert poly.B.degree <= 2 * N
            for k in range(2, 6):
                if complement(kap, k, k) is None or k * k < N:
                    continue
                g = dim_hook((k,) * k)
                ff = 1
                for i in range(N):
                    ff *= k * k - i
                assert dim_complement(kap, lam, k) * ff == poly.B(k) * g
