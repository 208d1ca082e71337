"""Oracles that the library's fast paths and rewritten formulas are tested
against.

group_tables walks every permutation of the index set, so it refuses any
order above ORACLE_ORDER_BOUND before the first one.  The padded formulas
below are the ones the one-leg interchange replaced: each passes a
coproduct leg past a carrier through an identity-padded legwise or an
explicit braiding.  interchanged_square_action is the square action
through a given interchange, which the carrier-product law never builds.
"""
import itertools

from braceforge import (CayleyTable, LeftModuleData, LinMap, braiding, compose,
                        gamma, groups_of_order, tensor)
from braceforge.errors import OrderTooLarge
from braceforge.linmap import legwise

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


def padded_tensor_square_action(m):
    """legwise(action, action, Delta_H, id_{M (x) M}), with the legs in the
    order of m's side."""
    id_square = LinMap.identity(m.hopf.field, m.carrier.tensor(m.carrier))
    legs = (m.hopf.coproduct, id_square)
    return legwise(m.action, m.action,
                   *(legs if isinstance(m, LeftModuleData) else legs[::-1]))


def interchanged_square_action(m, interchange):
    """H on M (x) M as (id (x) action) o (interchange (x) id), with the legs
    in the order of m's side."""
    id_m = LinMap.identity(m.hopf.field, m.carrier)
    far, near = (id_m, m.action), (interchange, id_m)
    if not isinstance(m, LeftModuleData):
        far, near = far[::-1], near[::-1]
    return compose(tensor(*far), tensor(*near))


def padded_compatibility(b):
    """h (x) x (x) y -> (h_1 . x) * (h_2 |> y), as
    product1 o legwise(product2, gamma, Delta, id_{H (x) H})."""
    id_square = LinMap.identity(b.field, b.space.tensor(b.space))
    return compose(b.product1, legwise(b.product2, gamma(b), b.coproduct, id_square))


def braided_antipode_exchange(b):
    """h (x) x -> S_1(h_1 . x) * h_2, the second leg of h swapped past x."""
    id_h = LinMap.identity(b.field, b.space)
    return compose(b.product1,
                   tensor(compose(b.antipode1, b.product2), id_h),
                   tensor(id_h, braiding(b.field, b.space, b.space)),
                   tensor(b.coproduct, id_h))


def braided_adjoint_action(h):
    """h (x) x -> h_1 x S(h_2), the second leg of h swapped past x."""
    id_h = LinMap.identity(h.field, h.space)
    return compose(h.product,
                   tensor(h.product, h.antipode),
                   tensor(id_h, braiding(h.field, h.space, h.space)),
                   tensor(h.coproduct, id_h))
