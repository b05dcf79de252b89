import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetamoments.frobenius_schur import _laplace_det
from zetamoments.partitions import (
    ZERO_MARKER,
    _det,
    centralizer_order,
    check_partition,
    complement,
    conjugate,
    contains,
    dim_hook,
    dim_paths,
    dim_skew_det,
    frobenius_coords,
    partitions_of,
    shifted_frobenius,
    sort_merge,
    weight,
)


def all_partitions_upto(n):
    for m in range(n + 1):
        yield from partitions_of(m)


def subpartitions_of_rectangle(K, L):
    """Every partition fitting in K rows by L columns."""
    out = [()]

    def rec(prev, row, acc):
        if row == K:
            return
        for q in range(prev, 0, -1):
            cur = acc + (q,)
            out.append(cur)
            rec(q, row + 1, cur)

    rec(L, 0, ())
    return out


partition_st = st.lists(st.integers(min_value=1, max_value=9), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestBasics:
    def test_partitions_of_counts(self):
        # p(0..10) = 1,1,2,3,5,7,11,15,22,30,42
        counts = [len(partitions_of(n)) for n in range(11)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_partitions_are_valid_and_distinct(self):
        for n in range(9):
            ps = partitions_of(n)
            assert len(set(ps)) == len(ps)
            for lam in ps:
                assert check_partition(lam) == lam
                assert weight(lam) == n

    def test_check_partition_rejects(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))
        with pytest.raises(ValueError):
            check_partition((2, 0))
        with pytest.raises(ValueError):
            check_partition((2, -1))
        with pytest.raises(ValueError):
            check_partition((True,))
        with pytest.raises(ValueError):
            check_partition((2, True))

    @given(partition_st)
    def test_conjugate_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert weight(conjugate(lam)) == weight(lam)

    def test_conjugate_example(self):
        assert conjugate((9, 7, 5, 5, 1)) == (5, 4, 4, 4, 4, 2, 2, 1, 1)

    def test_centralizer_orders_sum_to_group_order(self):
        # sum over cycle types of the class sizes n!/z recovers n!
        for n in range(1, 9):
            total = sum(
                Fraction(math.factorial(n), centralizer_order(lam))
                for lam in partitions_of(n)
            )
            assert total == math.factorial(n)

    def test_centralizer_values(self):
        assert centralizer_order(()) == 1
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((3,)) == 3
        assert centralizer_order((2, 2, 1)) == 8


class TestFrobeniusCoordinates:
    def test_known_shape(self):
        fc = frobenius_coords((9, 5, 5, 3, 1))
        assert fc.p == (8, 3, 2)
        assert fc.q == (4, 2, 1)

    def test_empty(self):
        fc = frobenius_coords(())
        assert fc.p == () and fc.q == ()

    @given(partition_st)
    def test_shifted_sums_give_weight(self, lam):
        x, y = shifted_frobenius(lam)
        assert sum(x) + sum(y) == weight(lam)
        # strictly decreasing positive half-integers
        assert all(a > b for a, b in zip(x, x[1:]))
        assert all(a > b for a, b in zip(y, y[1:]))
        assert all(2 * a % 2 == 1 for a in x + y)

    @given(partition_st)
    def test_conjugate_swaps_coordinates(self, lam):
        fc = frobenius_coords(lam)
        fct = frobenius_coords(conjugate(lam))
        assert fct.p == fc.q and fct.q == fc.p


class TestComplement:
    def test_rectangle_example(self):
        assert complement((9, 5, 5, 3, 1), 5, 10) == (5, 4, 4, 4, 4, 2, 2, 1, 1)

    def test_empty_gives_full_square(self):
        for k in range(1, 6):
            assert complement((), k, k) == (k,) * k

    def test_does_not_fit(self):
        assert complement((3,), 2, 2) is None
        assert complement((1, 1, 1), 2, 5) is None
        assert complement((6,), 3, 5) is None

    def test_involution_squares(self):
        for k in range(1, 5):
            for lam in subpartitions_of_rectangle(k, k):
                hat = complement(lam, k, k)
                assert hat is not None
                assert weight(lam) + weight(hat) == k * k
                assert complement(hat, k, k) == lam

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_involution_rectangles(self, K, L, data):
        lam = data.draw(st.sampled_from(subpartitions_of_rectangle(K, L)))
        hat = complement(lam, K, L)
        assert hat is not None
        assert weight(lam) + weight(hat) == K * L
        # the complement lives in the transposed rectangle
        assert len(hat) <= L and (not hat or hat[0] <= K)
        assert complement(hat, L, K) == lam


class TestSortMerge:
    def test_single_cell_both_sides(self):
        assert sort_merge((1,), (), 1, 1) == ((), 1)
        assert sort_merge((), (1,), 1, 1) == ((), -1)

    def test_marker_when_entries_collide(self):
        # kappa side gives entry 0, lambda side gives entry 0 as well
        assert sort_merge((), (), 1, 1) is ZERO_MARKER

    def test_too_long_raises(self):
        with pytest.raises(ValueError):
            sort_merge((1, 1), (), 1, 3)
        with pytest.raises(ValueError):
            sort_merge((), (2, 1, 1), 2, 2)

    def test_merge_produces_partition(self):
        for kap in all_partitions_upto(4):
            for lam in all_partitions_upto(4):
                res = sort_merge(kap, lam, 4, 4)
                if res is ZERO_MARKER:
                    continue
                mu, omega = res
                assert check_partition(mu) == mu
                assert omega in (1, -1)
                assert weight(mu) == weight(kap) + weight(lam)

    def test_complementary_pair_law(self):
        # merging kappa with its square complement collapses to the empty
        # partition, with sign (-1)**weight(complement); any other partner
        # either collides or leaves a nonempty index
        for k in range(1, 5):
            shapes = subpartitions_of_rectangle(k, k)
            for kap in shapes:
                hat = complement(kap, k, k)
                assert sort_merge(kap, hat, k, k) == ((), (-1) ** weight(hat))
                for lam in shapes:
                    if lam == hat:
                        continue
                    res = sort_merge(kap, lam, k, k)
                    assert res is ZERO_MARKER or res[0] != ()


class TestDimensions:
    def test_hook_small_values(self):
        assert dim_hook(()) == 1
        assert dim_hook((1,)) == 1
        assert dim_hook((3, 3, 3)) == 42
        assert dim_hook((2, 1)) == 2

    def test_hook_conjugation_invariant(self):
        for lam in all_partitions_upto(9):
            assert dim_hook(lam) == dim_hook(conjugate(lam))

    def test_squared_dims_sum_to_factorial(self):
        for n in range(11):
            assert sum(dim_hook(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)

    def test_paths_match_hook_on_straight_shapes(self):
        for n in range(13):
            for lam in partitions_of(n):
                assert dim_paths((), lam) == dim_hook(lam)

    def test_paths_match_determinant_on_skew_shapes(self):
        for lam in all_partitions_upto(6):
            for kap in all_partitions_upto(weight(lam)):
                assert dim_paths(kap, lam) == dim_skew_det(kap, lam)

    @settings(max_examples=80)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_determinant_matches_cofactor_expansion(self, rows):
        # small entries make zero pivots and singular matrices common; integer
        # entries stay exact, and Fractions divide exactly
        want = _laplace_det(rows) if rows else 1
        got = _det(rows)
        assert got == want and type(got) is int
        thirds = [[Fraction(x, 3) for x in r] for r in rows]
        assert _det(thirds) == want * Fraction(1, 3) ** len(rows)

    def test_not_contained_gives_zero(self):
        assert dim_paths((2,), (1, 1)) == 0
        assert dim_skew_det((2,), (1, 1)) == 0
        assert not contains((1, 1), (2,))

    def test_skew_example(self):
        # (2,1)/(1): two cells in different rows and columns, two orders
        assert dim_paths((1,), (2, 1)) == 2

    def test_square_complement_symmetry(self):
        # paths from kappa up to the full square match the straight dimension
        # of the complement (rotate the skew diagram half a turn)
        for k in range(1, 6):
            sq = (k,) * k
            for kap in subpartitions_of_rectangle(k, k):
                assert dim_paths(kap, sq) == dim_hook(complement(kap, k, k))

    @settings(max_examples=40)
    @given(partition_st, st.data())
    def test_paths_compose_through_one_level(self, lam, data):
        # removing one corner at a time partitions the path count
        if weight(lam) == 0 or weight(lam) > 9:
            return
        total = 0
        for i in range(len(lam)):
            nxt = lam[i + 1] if i + 1 < len(lam) else 0
            if lam[i] - 1 >= nxt:
                down = tuple(x for x in lam[:i] + (lam[i] - 1,) + lam[i + 1 :] if x)
                total += dim_hook(down)
        assert total == dim_hook(lam)
