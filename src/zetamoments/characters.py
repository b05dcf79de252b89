"""Symmetric group characters via border strip removal on beta-sets.

character_value(lam, mu) is the exact integer value of the irreducible
character indexed by lam on the conjugacy class of cycle type mu.  Values are
memoized per (lam, mu) pair; character_table(n) materializes the full table
for one weight.  install_table lets a cache layer hand back a previously
stored table so repeated runs skip the recursion.  All three share one table
per weight, so an installed or dropped table is seen by every later call.
"""

from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .partitions import check_partition, partitions_of

_tables = {}
_built = [0]


def install_table(n, table):
    """Register a precomputed {(lam, mu): value} table for weight n.

    Pass None to drop the stored table for n, installed or built; the next
    character_table(n) rebuilds it.  Installed entries win over the
    recursion, so feeding a wrong table gives wrong characters; the caller
    owns validation.
    """
    if table is None:
        _tables.pop(n, None)
    else:
        _tables[n] = dict(table)


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
    n = sum(lam)
    table = _tables.get(n)
    if table is not None:
        return table[(lam, mu)]
    return _char_beta(_beta_set(lam), mu)


def character_table(n):
    """Full character table of the symmetric group on n letters: a read-only
    flat view of the stored table, which the first call builds if none was
    installed."""
    table = _tables.get(n)
    if table is None:
        _built[0] += 1
        table = _tables[n] = {
            (lam, mu): _char_beta(_beta_set(lam), mu)
            for lam in partitions_of(n)
            for mu in partitions_of(n)
        }
    return MappingProxyType(table)


# tables built and weights held, under the names of lru_cache's cache_info
_StoreInfo = namedtuple("StoreInfo", "misses currsize")
character_table.cache_info = lambda: _StoreInfo(_built[0], len(_tables))
