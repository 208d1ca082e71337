"""Brute-force oracles that the library's fast paths are tested against.

They walk every permutation of the index set, so they refuse any order
above ORACLE_ORDER_BOUND before the first one.
"""
import itertools

from braceforge import CayleyTable, groups_of_order
from braceforge.errors import OrderTooLarge

ORACLE_ORDER_BOUND = 8


def group_tables(n: int, identity: int = 0) -> list[CayleyTable]:
    """All group tables on 0..n-1 with the given identity, sorted.

    Each is a relabeling of a catalogue group by a bijection sending its
    identity to `identity`; two bijections give the same table exactly
    when they differ by an automorphism, so the tables are deduplicated.
    This is the relabel-and-filter enumeration's table source, the oracle
    for enumerate_skew_braces.
    """
    if n > ORACLE_ORDER_BOUND:
        raise OrderTooLarge(
            f"group_tables walks {n}! permutations; order {n} is above "
            f"{ORACLE_ORDER_BOUND}")
    tables = set()
    for g in groups_of_order(n):
        for sigma in itertools.permutations(range(n)):
            if sigma[g.identity] != identity:
                continue
            sigma_inv = sorted(range(n), key=sigma.__getitem__)
            tables.add(tuple(tuple(sigma[g.table[a][b]] for b in sigma_inv)
                             for a in sigma_inv))
    return [CayleyTable(t, identity) for t in sorted(tables)]
