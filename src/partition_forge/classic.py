"""Textbook integer-partition generators, predicates and one counter.

These are the independent oracles: deliberately naive, derived straight
from the classical definitions, and never routed through the colored
machinery they are used to check.  ``count(n, predicate)`` counts the
partitions of n that satisfy one of the predicates below.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def partitions_of(n, cap=None):
    """All partitions of n as weakly decreasing tuples, largest part <= cap."""
    if cap is None:
        cap = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def is_distinct(lam):
    return all(a > b for a, b in zip(lam, lam[1:]))


def is_all_odd(lam):
    return all(v % 2 for v in lam)


def is_distinct_odd(lam):
    return is_distinct(lam) and is_all_odd(lam)


def is_m_regular(lam, m):
    return all(v % m for v in lam)


def is_m_regular_distinct(lam, m):
    return is_m_regular(lam, m) and is_distinct(lam)


def occurrences_below(lam, m):
    return all(lam.count(v) < m for v in set(lam))


def is_m_flat(lam, m):
    if not lam:
        return True
    if lam[-1] >= m:
        return False
    return all(a - b < m for a, b in zip(lam, lam[1:]))


def is_second_kind_flat(lam, m):
    """Flat below m+1 with equal multiples of m and distinct equal residues."""
    if not lam:
        return True
    if lam[-1] >= m:
        return False
    for a, b in zip(lam, lam[1:]):
        if a - b > m:
            return False
        if a % m == 0 and b % m == 0 and a != b:
            return False
        if a % m and b % m and a % m == b % m and a == b:
            return False
    return True


def count(n, predicate):
    return sum(1 for lam in partitions_of(n) if predicate(lam))


def residue_vector(lam, m):
    """How many parts fall in each nonzero residue class mod m."""
    vec = [0] * (m - 1)
    for v in lam:
        if v % m:
            vec[v % m - 1] += 1
    return tuple(vec)
