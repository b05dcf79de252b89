"""Symmetric group characters via border strip removal on beta-sets.

character_value(lam, mu) is the exact integer value of the irreducible
character indexed by lam on the conjugacy class of cycle type mu.  Values are
memoized per (lam, mu) pair; character_table(n) materializes the full table
for one weight, once per process.  power_dim_pairs(k, N) carries the
complement skew dimensions of the k x k square to the power-sum basis of
both slots, exactly, once per mirror pair and anew on each call: a request
asks once per N; power_dim_table(k, N) adds the mirrors.
"""

from functools import lru_cache
from types import MappingProxyType

from .partitions import (_check_index, _memo, check_partition, dim_complement,
                         partitions_of)


def _strip_removals(beta, r):
    """All ways to lower one beta entry by r without collision.

    Yields (new_beta, sign).  beta is a sorted-descending tuple of distinct
    nonnegative integers.
    """
    s = set(beta)
    for i, b in enumerate(beta):
        t = b - r
        if t < 0 or t in s:
            continue
        crossed = sum(1 for c in beta if t < c < b)
        sign = -1 if crossed % 2 else 1
        nb = tuple(sorted((x if x != b else t for x in beta), reverse=True))
        yield nb, sign


@lru_cache(maxsize=None)
def _char_beta(beta, mu):
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    tot = 0
    for nb, sign in _strip_removals(beta, r):
        tot += sign * _char_beta(nb, rest)
    return tot


def _beta_set(lam):
    L = len(lam)
    return tuple(lam[i] + (L - 1 - i) for i in range(L))


def character_value(lam, mu):
    """Irreducible character chi_lam evaluated on class mu; both must share a weight."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(
            "character index and class have different weights: %r vs %r" % (lam, mu)
        )
    return _char_beta(_beta_set(lam), mu)


@_memo("n", "an integer >= 0")
def character_table(n):
    """Full character table of the symmetric group on n letters, as a
    read-only flat {(lam, mu): value} view built on the first call."""
    _check_index(n, "n")
    return MappingProxyType({
        (lam, mu): _char_beta(_beta_set(lam), mu)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
    })


def power_dim_pairs(k, N):
    """D_k once per mirror pair of total weight N <= k**2, a new dict per
    call: D_k(mu, nu) = sum chi^kappa(mu) chi^lambda(nu) dim(lambda,
    complement of kappa in the k x k square) over kappa |- |mu| and lambda
    |- |nu|, exact integers, over |mu| < |nu| and, where |mu| = |nu|, nu
    not before mu in partitions_of's order.  Block (a, N - a) is X_a^T M
    X_{N-a}, X_n the weight-n character matrix and M the dimensions, one
    slot at a time, for a <= N - a; D_k(nu, mu) = D_k(mu, nu) gives the
    rest (power_dim_table)."""
    _check_index(k, "k")
    _check_index(N, "N")
    if N > k * k:
        raise ValueError("N cannot exceed k**2")
    pairs = {}
    for a in range(N // 2 + 1):
        ka, kb = partitions_of(a), partitions_of(N - a)
        ta, tb = character_table(a), character_table(N - a)
        dims = [[dim_complement(kap, lam, k) for lam in kb] for kap in ka]
        half = [[sum(d * tb[(lam, nu)] for d, lam in zip(row, kb) if d)
                 for nu in kb] for row in dims]
        for i, mu in enumerate(ka):
            col = [ta[(kap, mu)] for kap in ka]
            for j in range(i if 2 * a == N else 0, len(kb)):
                pairs[(mu, kb[j])] = sum(c * h[j] for c, h in zip(col, half))
    return pairs


def power_dim_table(k, N):
    """D_k over every pair (mu, nu) of total weight N <= k**2, a new dict
    per call, from power_dim_pairs and D_k(nu, mu) = D_k(mu, nu)."""
    pairs = power_dim_pairs(k, N)
    return {(mu, nu): pairs[(mu, nu)] if (mu, nu) in pairs else pairs[(nu, mu)]
            for a in range(N + 1) for mu in partitions_of(a)
            for nu in partitions_of(N - a)}
