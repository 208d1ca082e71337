import hashlib
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest

from braceforge import (CayleyTable, QQ, SkewBraceData, automorphisms,
                        builtin_group, check_group, check_skew_brace, cyclic,
                        dihedral, direct_product, enumerate_skew_braces,
                        group_tables, groups_of_order, klein_4, linearize,
                        quaternion_8, symmetric_3)
from braceforge import skewbraces
from braceforge.errors import (NotAGroup, OrderTooLarge, PrereqFailed,
                               SkewBraceAxiomsFailed)


def test_builtin_tables_are_groups():
    tables = [cyclic(n) for n in range(1, 9)]
    tables += [klein_4(), symmetric_3(), dihedral(4), quaternion_8(),
               direct_product(cyclic(2), cyclic(4)),
               direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2)))]
    for t in tables:
        rep = check_group(t)
        assert rep.ok, t.label


def test_builtin_group_lookup():
    assert builtin_group("S3").table == symmetric_3().table
    with pytest.raises(ValueError):
        builtin_group("M11")
    for name in ("Z٣", "Z３"):
        with pytest.raises(ValueError, match="unknown builtin group"):
            builtin_group(name)


def test_group_witnesses_are_element_tuples():
    # swapping one entry of Z3 breaks associativity at a concrete triple
    t = CayleyTable(((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0)
    rep = check_group(t)
    assert not rep.ok
    wit = rep.entry("associativity").witness
    a, b, c = wit["a"], wit["b"], wit["c"]
    assert t.mul(t.mul(a, b), c) == wit["left"]
    assert t.mul(a, t.mul(b, c)) == wit["right"]
    assert wit["left"] != wit["right"]

    shifted = CayleyTable(((1, 0), (0, 1)), 0)
    rep = check_group(shifted)
    assert not rep.entry("identity").passed


def test_cayley_table_structural_validation():
    with pytest.raises(ValueError):
        CayleyTable(((0, 1), (1,)), 0)
    with pytest.raises(ValueError):
        CayleyTable(((0, 2), (1, 0)), 0)
    with pytest.raises(ValueError):
        CayleyTable(((0,),), 1)
    with pytest.raises(ValueError):
        CayleyTable((), 0)


@pytest.mark.parametrize("identity", [0.0, 1.0, True, False, "0", None])
def test_cayley_table_rejects_a_non_int_identity(identity):
    # check_group cannot index by a float, and storage refuses a bool identity
    with pytest.raises(ValueError, match="identity index"):
        CayleyTable(((0, 1), (1, 0)), identity)


def test_groups_of_order_census():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5}
    for n, count in expected.items():
        gs = groups_of_order(n)
        assert len(gs) == count, n
        for g in gs:
            assert check_group(g).ok


def test_group_tables_counts_match_automorphism_formula():
    # number of labeled tables is sum over iso classes of (n-1)!/|Aut|
    assert len(group_tables(1)) == 1
    assert len(group_tables(2)) == 1
    assert len(group_tables(3)) == 1        # 2!/2 for Z3
    assert len(group_tables(4)) == 4        # 3!/2 for Z4 + 3!/6 for V4
    assert len(group_tables(5)) == 6        # 4!/4
    tables8 = group_tables(8)
    assert len(tables8) == 2760             # 1260+630+30+630+210


def test_group_tables_every_result_is_a_group():
    for t in group_tables(4):
        assert check_group(t).ok
    assert len({t.table for t in group_tables(4)}) == 4


def _digest(tables) -> str:
    return hashlib.sha256(
        repr([(t.identity, t.table) for t in tables]).encode()).hexdigest()


def _relabel(g: CayleyTable, sigma) -> CayleyTable:
    """The table of g with every element a renamed sigma[a]."""
    rows = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            rows[sigma[a]][sigma[b]] = sigma[g.mul(a, b)]
    return CayleyTable(rows, sigma[g.identity])


# sha256 of [(identity, table), ...] as returned, frozen from the
# permutation-closure search that group_tables replaced
GROUP_TABLE_DIGESTS = {
    (1, 0): "be6bbdfeb82d38ef74be4a95bec3c3b2dc3a9fd59c894a6e08a3c6001aa50336",
    (2, 0): "71923a5b9d6b8ec7dba6241a8f8986247ac87668486320b89dd734daffec88a6",
    (3, 0): "a19c409f91f9f58f201911133370b58550d087515c11e4d212fe9be2633e28f1",
    (4, 0): "0d4c8b965542da44b6b9becaae42d796b7d19de55a9e1546db6cf1befe50d94c",
    (5, 0): "93729f44857a24597adec76baa75e22bd5c96ad054acb8c60e0e4bc11af235ba",
    (6, 0): "be99abefec3f7459a004ba6aff6c3982ec318a9582377fdef1a87d1c3aae24ca",
    (7, 0): "00b4b2cafb5111a07f9cc6e82655e8173cdb9cd81ce515e2dea90445670c601a",
    (8, 0): "19acbe3e8027e871c8fb7d44a0653cf36c4f7cdd7c5346dddcd19f6c2d8c8c7b",
    (4, 2): "eab192a5997625c8e7cad1ee06c3d7131f50342cc734b985574991ed3ebde148",
    (6, 3): "6a023fcc5ff27f50416bab04e5eb16be7ab9c52611062eedb0f3e3c45b5ebe46",
    (8, 5): "34eaaab60e51ca64048d16593b8a486729171de4ea7b3faafc8edaa7113a2f9a",
}


def test_group_tables_frozen_digests():
    for (n, identity), expected in GROUP_TABLE_DIGESTS.items():
        assert _digest(group_tables(n, identity)) == expected, (n, identity)


# -- skew brace enumeration -------------------------------------------------

def naive_skew_braces(dot: CayleyTable) -> list[tuple]:
    """Brute-force oracle: every circ table sharing the identity that is a
    group and satisfies a circ (b dot c) = (a circ b) dot inv(a) dot (a circ c)."""
    n, e = dot.order, dot.identity
    inv = [dot.inverse(a) for a in range(n)]
    rows = list(permutations(range(n)))
    found = []
    for combo in product(rows, repeat=n):
        if combo[e] != tuple(range(n)):
            continue
        if any(combo[a][e] != a for a in range(n)):
            continue
        t = CayleyTable(combo, e)
        if not check_group(t).ok:
            continue
        if all(t.mul(a, dot.mul(b, c))
               == dot.mul(dot.mul(t.mul(a, b), inv[a]), t.mul(a, c))
               for a in range(n) for b in range(n) for c in range(n)):
            found.append(combo)
    return found


def test_enumeration_matches_naive_oracle_small_orders():
    for order in range(1, 5):
        for g in groups_of_order(order):
            naive = sorted(naive_skew_braces(g))
            fast = [s.circ.table for s in enumerate_skew_braces(g)]
            assert fast == naive, g.label


def test_labeled_brace_counts_frozen():
    # orders <= 4 are verified against the brute-force oracle above; the
    # rest are regression snapshots of the enumerator
    counts = {}
    for order in range(1, 9):
        for g in groups_of_order(order):
            counts[g.label] = len(enumerate_skew_braces(g))
    assert counts == {"Z1": 1, "Z2": 1, "Z3": 1, "Z4": 2, "Z2xZ2": 4,
                      "Z5": 1, "Z6": 2, "S3": 8, "Z7": 1, "Z8": 6,
                      "Z2xZ4": 28, "Z2xZ2xZ2": 232, "D4": 20, "Q8": 28}
    for g in groups_of_order(8):
        for s in enumerate_skew_braces(g):
            assert check_skew_brace(s).ok


def test_trivial_brace_is_always_enumerated():
    for order in range(1, 7):
        for g in groups_of_order(order):
            braces = enumerate_skew_braces(g)
            assert any(s.circ.table == g.table for s in braces), g.label


# sha256 of the circ tables enumerate_skew_braces returns, frozen from the
# permutation-closure search; "D4@5" is D4 relabeled a -> a + 5 mod 8
CIRC_DIGESTS = {
    "Z1": "be6bbdfeb82d38ef74be4a95bec3c3b2dc3a9fd59c894a6e08a3c6001aa50336",
    "Z2": "71923a5b9d6b8ec7dba6241a8f8986247ac87668486320b89dd734daffec88a6",
    "Z3": "a19c409f91f9f58f201911133370b58550d087515c11e4d212fe9be2633e28f1",
    "Z4": "674a8f0188cb3de23a6cef30fd07d961f310ab0c9318d8128a45c752e20c841d",
    "Z2xZ2": "0d4c8b965542da44b6b9becaae42d796b7d19de55a9e1546db6cf1befe50d94c",
    "Z5": "92056971c4e03f67f712f9b05dcdbc80bf30ab74ae44fdbf1eabdc4466a96490",
    "Z6": "e5f3b81545a349dc8dbe8d9db3234900af8136babff876d1ce1883673c5799e5",
    "S3": "da5acd3555a028fbc36275ac26eece3c8d60d5a380460e7ad3c8c8b8dd252eb4",
    "Z7": "0c58ab895a46a0cd8a0de2596c9b7cc19eae4ee864f40aba50aab6d42ce0fb92",
    "Z8": "623c6072a048a1ec4120289c8d470a46dc66c96f3c30b052c27808b207278735",
    "Z2xZ4": "352f490ad52cb47d73b52f42038b92cdb984b53998ef6f1ec7bb35fe9d623374",
    "Z2xZ2xZ2": "ff01abbf0e94c1a5bf9ed109fe04d2c163144b9cf298fc19630910b52a918ed6",
    "D4": "acf6366f7fd55fe0c0c80a221031250074b7d16ba1c0eede2060c2ff7db41618",
    "Q8": "e6a15a741be406c816b4b0a6e7f1d8f736bfad70efd19ad3f91a16b87707c8ae",
    "D4@5": "5a0dc54dffbfa81352099b83dfb4a9555f26c894f2bd70dd79b04681088ead24",
}


def test_enumerated_circ_tables_frozen_digests():
    dots = {g.label: g for n in range(1, 9) for g in groups_of_order(n)}
    dots["D4@5"] = _relabel(dihedral(4), [(a + 5) % 8 for a in range(8)])
    assert dots.keys() == CIRC_DIGESTS.keys()
    for label, g in dots.items():
        circs = [s.circ for s in enumerate_skew_braces(g)]
        assert _digest(circs) == CIRC_DIGESTS[label], label


def test_enumeration_guards():
    with pytest.raises(OrderTooLarge):
        enumerate_skew_braces(cyclic(9))
    with pytest.raises(OrderTooLarge, match="no group catalogue for order 9"):
        group_tables(9)
    broken = CayleyTable(((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0)
    with pytest.raises(NotAGroup):
        enumerate_skew_braces(broken)


@lru_cache(maxsize=None)
def _cached_group_tables(n: int, identity: int) -> tuple:
    return tuple(group_tables(n, identity))


def relabel_and_filter(dot: CayleyTable) -> list[SkewBraceData]:
    """The enumeration the lambda search replaced: every group table on the
    index set with the shared identity that passes the compatibility law."""
    return [SkewBraceData(dot, circ)
            for circ in _cached_group_tables(dot.order, dot.identity)
            if skewbraces._compat_witness(dot, circ) is None]


def test_enumeration_equals_the_relabel_and_filter_oracle():
    dots = [g for n in range(1, 9) for g in groups_of_order(n)]
    dots += [_relabel(g, [(a + k) % 8 for a in range(8)])
             for k in (1, 3, 5) for g in groups_of_order(8)]
    for g in dots:
        assert enumerate_skew_braces(g) == relabel_and_filter(g), \
            (g.label, g.identity)


def test_enumeration_does_not_build_group_tables(count_calls):
    calls = count_calls(group_tables)
    for g in groups_of_order(8):
        enumerate_skew_braces(g)
    assert calls == {"group_tables": 0}


# -- automorphisms ------------------------------------------------------------

AUT_ORDERS = {"Z1": 1, "Z2": 1, "Z3": 2, "Z4": 2, "Z2xZ2": 6, "Z5": 4,
              "Z6": 2, "S3": 6, "Z7": 6, "Z8": 4, "Z2xZ4": 8,
              "Z2xZ2xZ2": 168, "D4": 8, "Q8": 24}


def test_automorphism_group_orders_frozen():
    found = {g.label: len(automorphisms(g))
             for n in range(1, 9) for g in groups_of_order(n)}
    assert found == AUT_ORDERS


def _is_automorphism(g: CayleyTable, phi) -> bool:
    n = g.order
    return (sorted(phi) == list(range(n)) and phi[g.identity] == g.identity
            and all(phi[g.mul(a, b)] == g.mul(phi[a], phi[b])
                    for a in range(n) for b in range(n)))


def test_automorphisms_are_distinct_bijective_homomorphisms():
    groups = [(g.label, g) for n in range(1, 9) for g in groups_of_order(n)]
    # an identity other than 0
    groups += [(g.label, _relabel(g, [(a + 3) % 8 for a in range(8)]))
               for g in groups_of_order(8)]
    for label, g in groups:
        auts = automorphisms(g)
        assert len(set(auts)) == len(auts) == AUT_ORDERS[label], label
        assert auts[0] == tuple(range(g.order)), label
        assert all(_is_automorphism(g, phi) for phi in auts), label


def test_automorphisms_reject_a_non_group():
    # 1 * 1 = 1 has no finite order, so the gate must come first
    idempotent = CayleyTable(((0, 1), (1, 1)), 0)
    with pytest.raises(NotAGroup):
        automorphisms(idempotent)


def test_labeled_table_count_is_the_automorphism_formula():
    expected = {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 80, 7: 120, 8: 2760}
    for n, count in expected.items():
        formula = sum(factorial(n - 1) // len(automorphisms(g))
                      for g in groups_of_order(n))
        assert formula == len(_cached_group_tables(n, 0)) == count, n


def _up_to_automorphism(g: CayleyTable) -> int:
    """Number of circ tables on g up to conjugation by Aut(g)."""
    n, seen, classes = g.order, set(), 0
    for s in enumerate_skew_braces(g):
        c = s.circ.table
        if c in seen:
            continue
        classes += 1
        for phi in automorphisms(g):
            inv = sorted(range(n), key=phi.__getitem__)
            seen.add(tuple(tuple(phi[c[inv[a]][inv[b]]] for b in range(n))
                           for a in range(n)))
    return classes


def test_skew_braces_up_to_isomorphism_frozen():
    # per order this is 1, 1, 1, 4, 1, 6, 1, 47: OEIS A294279
    found = {g.label: _up_to_automorphism(g)
             for n in range(1, 9) for g in groups_of_order(n)}
    assert found == {"Z1": 1, "Z2": 1, "Z3": 1, "Z4": 2, "Z2xZ2": 2,
                     "Z5": 1, "Z6": 2, "S3": 4, "Z7": 1, "Z8": 5,
                     "Z2xZ4": 14, "Z2xZ2xZ2": 8, "D4": 12, "Q8": 8}


def test_labeled_brace_counts_past_order_8_frozen(monkeypatch):
    # the lambda search needs no catalogue, so only the guard holds order 8
    monkeypatch.setattr(skewbraces, "ENUMERATION_ORDER_BOUND", 15)
    z, times = cyclic, direct_product
    groups = {"Z9": z(9), "Z3xZ3": times(z(3), z(3)), "Z10": z(10),
              "D5": dihedral(5), "Z11": z(11), "Z12": z(12),
              "Z2xZ6": times(z(2), z(6)), "D6": dihedral(6),
              "Dic3": skewbraces._two_generator_table(6, 3, "Dic3"),
              "Z13": z(13), "Z14": z(14), "D7": dihedral(7), "Z15": z(15)}
    counts = {}
    for label, g in groups.items():
        braces = enumerate_skew_braces(g)
        assert all(check_skew_brace(s).ok for s in braces), label
        counts[label] = len(braces)
    assert counts == {"Z9": 3, "Z3xZ3": 9, "Z10": 2, "D5": 12, "Z11": 1,
                      "Z12": 6, "Z2xZ6": 12, "D6": 28, "Dic3": 28, "Z13": 1,
                      "Z14": 2, "D7": 16, "Z15": 1}


# -- skew brace data and linearization ---------------------------------------

def test_check_skew_brace_witness():
    relabeled_v4 = CayleyTable(((0, 1, 2, 3), (1, 0, 3, 2),
                                (2, 3, 1, 0), (3, 2, 0, 1)), 0)
    assert check_group(relabeled_v4).ok
    s = SkewBraceData(dot=cyclic(4), circ=relabeled_v4)
    rep = check_skew_brace(s)
    assert not rep.ok
    wit = rep.entry("compatibility").witness
    a, b, c = wit["a"], wit["b"], wit["c"]
    dot, circ = s.dot, s.circ
    assert circ.mul(a, dot.mul(b, c)) != dot.mul(
        dot.mul(circ.mul(a, b), dot.inverse(a)), circ.mul(a, c))


def test_skew_brace_data_validation():
    with pytest.raises(ValueError):
        SkewBraceData(dot=cyclic(2), circ=cyclic(3))
    with pytest.raises(ValueError):
        SkewBraceData(dot=cyclic(2), circ=CayleyTable(((1, 0), (0, 1)), 1))


def test_linearize_rejects_invalid_brace():
    relabeled_v4 = CayleyTable(((0, 1, 2, 3), (1, 0, 3, 2),
                                (2, 3, 1, 0), (3, 2, 0, 1)), 0)
    s = SkewBraceData(dot=cyclic(4), circ=relabeled_v4)
    with pytest.raises(SkewBraceAxiomsFailed):
        linearize(s, QQ)
    broken = CayleyTable(((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0)
    with pytest.raises(PrereqFailed):
        check_skew_brace(SkewBraceData(dot=broken, circ=cyclic(3)))


def test_linearize_products_are_the_two_group_algebras():
    from braceforge import group_algebra
    s = enumerate_skew_braces(cyclic(4))[1]
    b = linearize(s, QQ)
    assert b.product1 == group_algebra(s.dot, QQ).product
    assert b.product2 == group_algebra(s.circ, QQ).product
    assert b.antipode2 == group_algebra(s.circ, QQ).antipode
