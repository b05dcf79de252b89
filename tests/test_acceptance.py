"""Acceptance battery: every shipping criterion, one pass or fail line each.

Runs under pytest in definition order, or standalone via

    python3 tests/test_acceptance.py

which prints one line per criterion and exits nonzero on any failure.
Each criterion carries its stated tolerance and, where one applies, a wall
clock box; exceeding the box fails the criterion even when the values check
out.
"""

import random
import sys
import time
from fractions import Fraction

from mpmath import mp

from test_moments import golden_entries
from zetamoments.characters import character_table
from zetamoments.frobenius_schur import (
    dim_complement,
    dim_complement_poly,
    dim_fs,
)
from zetamoments.moments import (
    V_poly,
    W_coeff,
    a_factor,
    c_coeff,
    d_table,
    f_table,
    g_factor,
    moment_polynomial,
)
from zetamoments.partitions import (
    centralizer_order,
    dim_hook,
    dim_paths,
    dim_skew_det,
    partitions_of,
)
from zetamoments.symseries import bump_gamburd_residual
from zetamoments.oracles import prime_zeta_direct
from zetamoments.zeta_numerics import prime_zeta_taylor


def run(number, label, box, fn):
    t0 = time.perf_counter()
    err = None
    try:
        fn()
    except Exception as exc:
        err = exc
    elapsed = time.perf_counter() - t0
    over = box is not None and elapsed >= box
    status = "PASS" if err is None and not over else "FAIL"
    boxtxt = ", box %ds" % box if box is not None else ""
    print("[criterion %02d] %s  %s (%.1fs%s)" % (number, status, label,
                                                 elapsed, boxtxt))
    if err is not None:
        raise err
    assert not over, "time box exceeded: %.1fs, box %ds" % (elapsed, box)


def crit_coupling_table():
    ft = f_table(6)
    want_nonzero = 0
    for size in range(1, 7):
        for (ka, la), want in golden_entries(size):
            assert ft.entries.get((ka, la), 0) == want, (ka, la)
            if want != 0:
                want_nonzero += 1
    have_nonzero = sum(1 for v in ft.entries.values() if v != 0)
    assert have_nonzero == want_nonzero
    assert ft.entries[((1,), (1,))] == 1
    assert ft.entries.get(((2, 1), (2, 1)), 0) == 0
    assert ft.entries[((1, 1, 1, 1), (1, 1, 1, 1))] == Fraction(-11, 192)
    assert ft.entries[((1,) * 6, (1,) * 6)] == Fraction(-473, 25920)


def crit_square_dimensions():
    want = [1, 1, 2, 42, 24024, 701149020, 1671643033734960]
    assert [g_factor(k) for k in range(7)] == want


def crit_prime_zeta():
    pz = prime_zeta_taylor(1, 0, 30)
    with mp.workdps(40):
        assert abs(pz.coeffs[0] - mp.mpf("-0.315718452")) < mp.mpf("5e-10")
    for r in range(2, 11):
        a = prime_zeta_taylor(r, 6, 30)
        b = prime_zeta_direct(r, 6, 30)
        with mp.workdps(40):
            for n in range(7):
                diff = abs(a.coeffs[n] - b[n])
                assert diff < mp.mpf("1e-25"), (r, n, diff)


def crit_euler_product_consistency():
    with mp.workdps(60):
        for k in range(1, 5):
            af = a_factor(k, digits=40)
            dphi = d_table(k, 0, digits=40)[((), ())].value
            assert abs(dphi - af) / af < mp.mpf("1e-15"), k
            c0 = c_coeff(0, k, digits=40).value
            want = af * g_factor(k) / mp.factorial(k * k)
            assert abs(c0 - want) / want < mp.mpf("1e-15"), k


def crit_first_moment():
    poly = moment_polynomial(1, digits=30)
    (n0, v0, _), (n1, v1, _) = poly.coefficients
    assert (n0, n1) == (0, 1)
    with mp.workdps(45):
        assert abs(v0 - 1) < mp.mpf("1e-20")
        assert abs(v1 - 2 * mp.euler) < mp.mpf("1e-20")


def crit_skew_dimensions():
    for b in range(9):
        for nu in partitions_of(b):
            for a in range(min(b, 4) + 1):
                for mu in partitions_of(a):
                    want = dim_paths(mu, nu)
                    assert dim_skew_det(mu, nu) == want, (mu, nu)
                    assert dim_fs(mu, nu) == want, (mu, nu)
    for total in range(5):
        for a in range(total + 1):
            for kap in partitions_of(a):
                for lam in partitions_of(total - a):
                    poly = dim_complement_poly(kap, lam)
                    assert len(poly.B.coeffs) - 1 <= 2 * total, (kap, lam)
                    assert poly.depth == total
                    for k in range(2, 7):
                        fall = 1
                        for i in range(total):
                            fall *= k * k - i
                        lhs = dim_complement(kap, lam, k) * fall
                        rhs = poly.B(k) * dim_hook((k,) * k)
                        assert lhs == rhs, (kap, lam, k)


def crit_split_alphabet():
    rng = random.Random(94117)
    two_rows = [
        p for t in range(5) for p in partitions_of(t) if len(p) <= 2
    ]
    with mp.workdps(40):
        for _ in range(20):
            while True:
                points = [mp.mpf(rng.randint(1, 10**6)) / 10**5
                          for _ in range(4)]
                if len(set(points)) == 4:
                    break
            for kap in two_rows:
                for lam in two_rows:
                    if sum(kap) + sum(lam) > 4:
                        continue
                    res = bump_gamburd_residual(kap, lam, points)
                    assert res < mp.mpf("1e-30"), (kap, lam, res)


def crit_symmetry_suite():
    parts3 = [p for t in range(4) for p in partitions_of(t)]
    for r in range(1, 6):
        for mu in parts3:
            for nu in parts3:
                assert V_poly(r, mu, nu) == V_poly(r, nu, mu), (r, mu, nu)
    for mu, nu in [((1,), (2,)), ((2, 1), ()), ((1, 1), (1,))]:
        a = W_coeff(mu, nu, 2, digits=12)
        b = W_coeff(nu, mu, 2, digits=12)
        assert abs(a.value - b.value) <= a.error + b.error, (mu, nu)
    dt = d_table(3, 6, digits=12)
    for (kap, lam), got in dt.items():
        other = dt[(lam, kap)]
        assert abs(got.value - other.value) <= got.error + other.error, (
            kap, lam)
    for total in range(5):
        for a in range(total + 1):
            for kap in partitions_of(a):
                for lam in partitions_of(total - a):
                    for k in range(2, 6):
                        assert dim_complement(kap, lam, k) == dim_complement(
                            lam, kap, k), (kap, lam, k)


def crit_characters():
    for n in range(9):
        table = character_table(n)
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                dot = sum(
                    Fraction(table[(lam, nu)] * table[(mu, nu)],
                             centralizer_order(nu))
                    for nu in parts
                )
                assert dot == (1 if lam == mu else 0), (lam, mu)
    for n in range(1, 11):
        table = character_table(n)
        ones = (1,) * n
        for lam in partitions_of(n):
            assert table[(lam, ones)] == dim_hook(lam), lam


def crit_stability():
    for k in (1, 2, 3):
        base = moment_polynomial(k, digits=15)
        finer_tol = moment_polynomial(k, digits=15, tol=5e-16)
        t0 = time.perf_counter()
        finer_dig = moment_polynomial(k, digits=30)
        elapsed = time.perf_counter() - t0
        if k == 3:
            assert elapsed < 120, "k=3 at 30 digits took %.0fs" % elapsed
        for (n, v, e), (_, vt, _), (_, vd, _) in zip(
            base.coefficients, finer_tol.coefficients, finer_dig.coefficients
        ):
            with mp.workdps(45):
                assert abs(v - vt) <= e, (k, n, "tol")
                assert abs(v - vd) <= e, (k, n, "digits")


CRITERIA = [
    (1, "coupling table matches the reference grids exactly", 10,
     crit_coupling_table),
    (2, "square block dimensions k=0..6", 1, crit_square_dimensions),
    (3, "prime zeta head value and two-route agreement r=2..10", 60,
     crit_prime_zeta),
    (4, "Euler product consistency k=1..4 at 40 digits", 300,
     crit_euler_product_consistency),
    (5, "first moment equals [1, 2*gamma0] at 30 digits", 120,
     crit_first_moment),
    (6, "skew dimensions: three routes and the k-generic polynomial", 300,
     crit_skew_dimensions),
    (7, "split alphabet residuals under 1e-30, 20 random alphabets", 120,
     crit_split_alphabet),
    (8, "symmetry under swapping the two indices, all layers", None,
     crit_symmetry_suite),
    (9, "character orthogonality n<=8 and dimensions n<=10", 60,
     crit_characters),
    (10, "halved tol and doubled digits stay inside reported errors", None,
     crit_stability),
]


def test_criterion_01_coupling_table():
    run(*CRITERIA[0])


def test_criterion_02_square_dimensions():
    run(*CRITERIA[1])


def test_criterion_03_prime_zeta_two_routes():
    run(*CRITERIA[2])


def test_criterion_04_euler_product_consistency():
    run(*CRITERIA[3])


def test_criterion_05_first_moment():
    run(*CRITERIA[4])


def test_criterion_06_skew_dimensions():
    run(*CRITERIA[5])


def test_criterion_07_split_alphabet():
    run(*CRITERIA[6])


def test_criterion_08_symmetry_suite():
    run(*CRITERIA[7])


def test_criterion_09_characters():
    run(*CRITERIA[8])


def test_criterion_10_stability():
    run(*CRITERIA[9])


def main():
    failures = 0
    for row in CRITERIA:
        try:
            run(*row)
        except Exception as exc:
            failures += 1
            print("    reason: %r" % (exc,))
    total = len(CRITERIA)
    print("%d/%d acceptance criteria satisfied" % (total - failures, total))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
