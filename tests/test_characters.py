import math
from fractions import Fraction

import pytest

from zetamoments.characters import character_table, character_value, power_dim_table
from zetamoments.frobenius_schur import dim_complement_poly
from zetamoments.moments import g_factor
from zetamoments.partitions import centralizer_order, conjugate, dim_hook, partitions_of


def test_weight_one_and_empty():
    assert character_value((), ()) == 1
    assert character_value((1,), (1,)) == 1


def test_s3_table():
    assert character_value((3,), (1, 1, 1)) == 1
    assert character_value((3,), (2, 1)) == 1
    assert character_value((3,), (3,)) == 1
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((2, 1), (2, 1)) == 0
    assert character_value((2, 1), (3,)) == -1
    assert character_value((1, 1, 1), (1, 1, 1)) == 1
    assert character_value((1, 1, 1), (2, 1)) == -1
    assert character_value((1, 1, 1), (3,)) == 1


def test_weight_mismatch_raises():
    with pytest.raises(ValueError):
        character_value((2,), (1,))
    with pytest.raises(ValueError):
        character_value((), (1,))


def test_identity_class_gives_dimension():
    for n in range(11):
        e = (1,) * n
        for lam in partitions_of(n):
            assert character_value(lam, e) == dim_hook(lam)


def test_row_orthogonality():
    for n in range(1, 9):
        parts = partitions_of(n)
        tab = character_table(n)
        for la in parts:
            for lb in parts:
                s = sum(
                    Fraction(tab[(la, mu)] * tab[(lb, mu)], centralizer_order(mu))
                    for mu in parts
                )
                assert s == (1 if la == lb else 0)


def test_column_orthogonality():
    for n in range(1, 9):
        parts = partitions_of(n)
        tab = character_table(n)
        for mu in parts:
            for nu in parts:
                s = sum(tab[(lam, mu)] * tab[(lam, nu)] for lam in parts)
                assert s == (centralizer_order(mu) if mu == nu else 0)


def test_conjugate_twists_by_class_sign():
    for n in range(1, 8):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                sign = (-1) ** (n - len(mu))
                assert character_value(conjugate(lam), mu) == sign * character_value(lam, mu)


def test_table_is_complete_and_consistent():
    for n in range(7):
        parts = partitions_of(n)
        tab = character_table(n)
        assert len(tab) == len(parts) ** 2
        for key, val in tab.items():
            assert character_value(*key) == val


def test_table_is_built_once_per_weight():
    character_table.cache_clear()
    before = character_table.cache_info().misses
    first = character_table(4)
    assert character_table.cache_info().misses == before + 1
    assert character_table(4) is first
    assert character_table.cache_info().misses == before + 1


def test_table_is_read_only():
    tab = character_table(3)
    with pytest.raises(TypeError):
        tab[((3,), (3,))] = 7
    assert character_table(3)[((3,), (3,))] == 1


def test_first_column_sum_counts_involutions():
    # sum over lam of dim equals the number of involutions in the group
    def involutions(n):
        if n < 2:
            return 1
        return involutions(n - 1) + (n - 1) * involutions(n - 2)

    for n in range(1, 10):
        tot = sum(character_value(lam, (1,) * n) for lam in partitions_of(n))
        assert tot == involutions(n)


def test_power_sum_expansion_of_products():
    # chi values on the full cycle vanish unless the shape is a hook
    for n in range(2, 9):
        for lam in partitions_of(n):
            v = character_value(lam, (n,))
            is_hook = len(lam) == 1 or (lam[0] >= 1 and all(x == 1 for x in lam[1:]))
            if is_hook:
                assert v == (-1) ** (len(lam) - 1)
            else:
                assert v == 0


@pytest.mark.parametrize("k", range(1, 6))
def test_power_dim_table_is_symmetric(k):
    for N in range(min(k * k, 8) + 1):
        d = power_dim_table(k, N)
        assert len(d) == sum(len(partitions_of(a)) * len(partitions_of(N - a))
                             for a in range(N + 1))
        for (mu, nu), v in d.items():
            assert isinstance(v, int) and v == d[(nu, mu)]


def test_power_dim_table_empty_entry_is_g():
    for k in range(9):
        assert power_dim_table(k, 0)[((), ())] == g_factor(k)


@pytest.mark.parametrize("k", range(2, 7))
def test_power_dim_table_is_the_k_polynomial(k):
    # D_k (k**2)_N / g_k = sum chi^kappa(mu) chi^lambda(nu) B_{kappa lambda}(k)
    for N in range(min(k * k, 4) + 1):
        g = g_factor(k)
        for (mu, nu), v in power_dim_table(k, N).items():
            a, b = sum(mu), sum(nu)
            want = sum(
                character_value(kap, mu) * character_value(lam, nu)
                * dim_complement_poly(kap, lam).B(k)
                for kap in partitions_of(a) for lam in partitions_of(b)
            )
            assert Fraction(v * math.perm(k * k, N), g) == want, (k, mu, nu)


def test_power_dim_table_is_not_shared():
    # each call builds its own table, so a caller's edit reaches no other
    power_dim_table(2, 1)[((1,), ())] = 0
    assert power_dim_table(2, 1)[((1,), ())] != 0


@pytest.mark.parametrize("k,N", [(2, -1), (2, True), (2, 1.0), (2, 5), (2, 100),
                                 (3, "1"), (1, 2)])
def test_power_dim_table_refuses_bad_n(k, N):
    # refused before any table work, as d_table refuses n_max: N = 100 at
    # k = 2 would otherwise run for minutes, True would read as 1
    with pytest.raises(ValueError, match="^N "):
        power_dim_table(k, N)
