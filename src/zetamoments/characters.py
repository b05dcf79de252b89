"""Symmetric group characters via border strip removal on beta-sets.

character_value(lam, mu) is the exact integer value of the irreducible
character indexed by lam on the conjugacy class of cycle type mu.  Values are
memoized per (lam, mu) pair; character_table(n) materializes the full table
for one weight, once per process.  Tables are cheap to rebuild, so none is
persisted.
"""

from functools import lru_cache
from types import MappingProxyType

from .partitions import check_partition, partitions_of


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


@lru_cache(maxsize=None)
def character_table(n):
    """Full character table of the symmetric group on n letters, as a
    read-only flat {(lam, mu): value} view built on the first call."""
    return MappingProxyType({
        (lam, mu): _char_beta(_beta_set(lam), mu)
        for lam in partitions_of(n)
        for mu in partitions_of(n)
    })
