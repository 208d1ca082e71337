"""Deliberately broken fixtures, one per axiom family.

Each builder perturbs a known-good object in a way that provably violates
the named axiom; the tests assert the checker pins the failure there.  A
few perturbations drag other axioms down with them (noted per fixture),
which is unavoidable on group-like data where the axioms overdetermine
each other.
"""
from fractions import Fraction

from braceforge import (HopfAlgebraData, HopfBraceData, LinMap,
                        MatchedPairData, OppBraceTripleData, QQ, Space,
                        check_algebra, check_coalgebra, check_hopf,
                        check_hopf_brace, check_matched_pair, check_obt,
                        cyclic, group_algebra, klein_4, symmetric_3, tensor)
from braceforge.hopf import AlgebraData, CoalgebraData


def reentry(m: LinMap, changes: dict) -> LinMap:
    """Copy of a map with (row, col) -> value overrides; value 0 deletes."""
    entries = dict(m.items())
    entries.update(changes)
    return LinMap(m.field, m.domain, m.codomain, entries)


def trivial_left_action(acting, carrier: Space) -> LinMap:
    """acting (x) carrier -> carrier by the counit, h (x) a -> eps(h) a."""
    return tensor(acting.counit, LinMap.identity(acting.field, carrier))


def trivial_right_action(carrier: Space, acting) -> LinMap:
    """carrier (x) acting -> carrier by the counit, x (x) a -> x eps(a)."""
    return tensor(LinMap.identity(acting.field, carrier), acting.counit)


def dual_group_hopf(table, field):
    """Functions on a finite group: pointwise product, convolution coproduct.

    Commutative; cocommutative only when the group is abelian, which makes
    it the cheapest source of non-cocommutative coalgebra structure.
    """
    n = table.order
    sp = Space(n)
    one = field.one()
    unit = LinMap(field, Space(1), sp, {(u, 0): one for u in range(n)})
    product = LinMap(field, sp.tensor(sp), sp,
                     {(u, u * n + u): one for u in range(n)})
    counit = LinMap(field, sp, Space(1), {(0, table.identity): one})
    coproduct = LinMap(field, sp, sp.tensor(sp),
                       {(u * n + v, table.mul(u, v)): one
                        for u in range(n) for v in range(n)})
    antipode = LinMap(field, sp, sp,
                      {(table.inverse(u), u): one for u in range(n)})
    return HopfAlgebraData(unit, product, counit, coproduct, antipode)


_Z3 = group_algebra(cyclic(3), QQ)
_Z4 = group_algebra(cyclic(4), QQ)
_V4 = group_algebra(klein_4(), QQ)


# -- hopf families -----------------------------------------------------------

def broken_algebra() -> AlgebraData:
    # g.g := g kills associativity at (g, g, g^2) and nothing else
    product = reentry(_Z3.product, {(2, 4): 0, (1, 4): 1})
    return AlgebraData(_Z3.unit, product)


def broken_coalgebra() -> CoalgebraData:
    # delta(g) := g (x) g^2 fails the left counit law but stays coassociative
    coproduct = reentry(_Z3.coproduct, {(4, 1): 0, (5, 1): 1})
    return CoalgebraData(_Z3.counit, coproduct)


def broken_antipode():
    # identity is not a convolution inverse on a nontrivial group algebra
    return HopfAlgebraData(_Z3.unit, _Z3.product, _Z3.counit, _Z3.coproduct,
                           LinMap.identity(QQ, _Z3.space))


# relabeling of the cyclic table so the order-2 element is 1; a group, but
# incompatible with plain Z4 addition under the skew brace law at (2,1,1)
_Z4_RELABELED = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]


def broken_brace() -> HopfBraceData:
    from braceforge import CayleyTable
    other = group_algebra(CayleyTable(tuple(map(tuple, _Z4_RELABELED)), 0), QQ)
    return HopfBraceData(
        unit=_Z4.unit, counit=_Z4.counit, coproduct=_Z4.coproduct,
        product1=_Z4.product, antipode1=_Z4.antipode,
        product2=other.product, antipode2=other.antipode)


# -- opposite brace triples --------------------------------------------------
# base: the trivial triple on Q[Z3]; columns of m are indexed x*3+y

def _triple(action=None, involution=None) -> OppBraceTripleData:
    m = action if action is not None else trivial_left_action(_Z3, _Z3.space)
    u = involution if involution is not None else _Z3.antipode
    return OppBraceTripleData(hopf=_Z3, action=m, involution=u)


def broken_obt(axiom: str) -> OppBraceTripleData:
    m = trivial_left_action(_Z3, _Z3.space)
    if axiom == "i":
        # eps(m(g (x) g)) = 2: not a coalgebra morphism
        return _triple(action=reentry(m, {(1, 4): Fraction(2)}))
    if axiom == "ii":
        # m(e (x) g) = e instead of g
        return _triple(action=reentry(m, {(1, 1): 0, (0, 1): 1}))
    if axiom == "iii":
        # m(g (x) e) = g instead of eps(g) e
        return _triple(action=reentry(m, {(0, 3): 0, (1, 3): 1}))
    if axiom == "iv":
        # m(g (x) g) = g^2 stays a coalgebra morphism but breaks the
        # anti-action law at (g, g, g); the derived product drags (v) along
        return _triple(action=reentry(m, {(1, 4): 0, (2, 4): 1}))
    if axiom == "v":
        # m(g (x) g) = e breaks compatibility with the deformed product
        # at (g, g^2, g); (iv) fails with it
        return _triple(action=reentry(m, {(1, 4): 0, (0, 4): 1}))
    if axiom == "vi":
        # u(g) = e + g + g^2 has counit 3
        u = reentry(_Z3.antipode, {(0, 1): 1, (1, 1): 1})
        return _triple(involution=u)
    if axiom == "vii":
        # a 3-cycle is a coalgebra morphism but not an involution
        u = LinMap(QQ, _Z3.space, _Z3.space, {(1, 0): 1, (2, 1): 1, (0, 2): 1})
        return _triple(involution=u)
    if axiom == "viii":
        # u = id leaves every other axiom intact on the trivial triple
        return _triple(involution=LinMap.identity(QQ, _Z3.space))
    raise ValueError(axiom)


# -- matched pairs -----------------------------------------------------------

def _perm_left_action(hopf, images: dict) -> LinMap:
    """h_i (x) a_j -> a_{pi_i(j)} for a family of permutations pi."""
    n = hopf.space.dim
    entries = {}
    for i in range(n):
        pi = images.get(i, tuple(range(n)))
        for j in range(n):
            entries[(pi[j], i * n + j)] = 1
    return LinMap(QQ, hopf.space.tensor(hopf.space), hopf.space, entries)


def _perm_right_action(hopf, images: dict) -> LinMap:
    """h_i (x) a_j -> h_{sigma_j(i)}."""
    n = hopf.space.dim
    entries = {}
    for j in range(n):
        sig = images.get(j, tuple(range(n)))
        for i in range(n):
            entries[(sig[i], i * n + j)] = 1
    return LinMap(QQ, hopf.space.tensor(hopf.space), hopf.space, entries)


def broken_matched_pair(axiom: str) -> MatchedPairData:
    if axiom == "i":
        # x -> pi_x is not a homomorphism into Sym (pi_a^2 != pi_e) although
        # each pi_x is an automorphism of V4, so every other axiom survives
        rho = (0, 2, 3, 1)
        act = _perm_left_action(_V4, {1: rho, 2: rho, 3: rho})
        return MatchedPairData(first=_V4, second=_V4, left_action=act,
                               right_action=trivial_right_action(_V4.space, _V4))
    if axiom == "ii":
        # left action moves the unit of the acted algebra
        act = reentry(trivial_left_action(_Z3, _Z3.space), {(0, 3): 0, (1, 3): 1})
        return MatchedPairData(first=_Z3, second=_Z3, left_action=act,
                               right_action=trivial_right_action(_Z3.space, _Z3))
    if axiom == "iii":
        # right action by the unit is no longer the counit collapse
        act = reentry(trivial_right_action(_Z3.space, _Z3), {(0, 1): 0, (1, 1): 1})
        return MatchedPairData(first=_Z3, second=_Z3,
                               left_action=trivial_left_action(_Z3, _Z3.space),
                               right_action=act)
    if axiom == "iv":
        # swapping 1 and 2 is a permutation action of Z4 but not an algebra
        # map (1+1=2 while 2+2=0), so only the product distributivity dies
        swap = (0, 2, 1, 3)
        act = _perm_left_action(_Z4, {1: swap, 3: swap})
        return MatchedPairData(first=_Z4, second=_Z4, left_action=act,
                               right_action=trivial_right_action(_Z4.space, _Z4))
    if axiom == "v":
        swap = (0, 2, 1, 3)
        act = _perm_right_action(_Z4, {1: swap, 3: swap})
        return MatchedPairData(first=_Z4, second=_Z4,
                               left_action=trivial_left_action(_Z4, _Z4.space),
                               right_action=act)
    if axiom == "vi":
        return _graded_pair()
    raise ValueError(axiom)


def _graded_pair() -> MatchedPairData:
    """Functions on S3 acting on Q[Z3] through a group grading.

    A = A_e + A_s for an involution s: A_e spanned by e and g + g^2, A_s by
    g - g^2.  The action is a genuine module-algebra-coalgebra structure,
    but the interweaving braid axiom needs the acting coproduct to be
    cocommutative, and functions on S3 are not.
    """
    dual = dual_group_hopf(symmetric_3(), QQ)
    n = dual.space.dim
    tbl = symmetric_3()
    ident = tbl.identity
    s = next(x for x in range(n)
             if x != ident and tbl.mul(x, x) == ident)
    half = Fraction(1, 2)
    entries = {}
    # P_e columns under the identity of S3
    entries[(0, ident * 3 + 0)] = 1
    for j in (1, 2):
        entries[(1, ident * 3 + j)] = half
        entries[(2, ident * 3 + j)] = half
    # P_s columns under the involution s
    entries[(1, s * 3 + 1)] = half
    entries[(2, s * 3 + 1)] = -half
    entries[(1, s * 3 + 2)] = -half
    entries[(2, s * 3 + 2)] = half
    act = LinMap(QQ, dual.space.tensor(_Z3.space), _Z3.space, entries)
    return MatchedPairData(first=_Z3, second=dual, left_action=act,
                           right_action=trivial_right_action(dual.space, _Z3))


# -- registry ----------------------------------------------------------------

def all_mutants():
    """(family, intended entry, report) for every negative-control fixture."""
    out = [
        ("algebra", "associativity", check_algebra(broken_algebra())),
        ("coalgebra", "counit.left", check_coalgebra(broken_coalgebra())),
        ("antipode", "antipode.left", check_hopf(broken_antipode())),
        ("brace-compatibility", "compatibility",
         check_hopf_brace(broken_brace())),
    ]
    for axiom in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii"):
        out.append((f"obt-{axiom}", axiom, check_obt(broken_obt(axiom))))
    mp_intended = {
        "i": "i.left_module.action.product",
        "ii": "ii", "iii": "iii", "iv": "iv", "v": "v", "vi": "vi",
    }
    for axiom in ("i", "ii", "iii", "iv", "v", "vi"):
        out.append((f"mp-{axiom}", mp_intended[axiom],
                    check_matched_pair(broken_matched_pair(axiom))))
    return out
