import random

import pytest

from braceforge import (CayleyTable, HopfAlgebraData, LinMap, PrimeField, QQ,
                        Space, check_hopf,
                        check_antipode_properties, check_hopf_morphism, compose,
                        convolution_unit, convolve, cyclic, dihedral,
                        group_algebra, groups_of_order, is_commutative,
                        is_cocommutative, opposite_hopf,
                        quaternion_8, symmetric_3)
from braceforge.errors import (DimensionMismatch, FieldMismatch, NotAGroup,
                               NotCocommutative, PrereqFailed)
from braceforge.hopf import CoalgebraData, check_algebra, check_coalgebra

from mutants import dual_group_hopf, reentry

F5 = PrimeField(5)


def test_group_algebras_pass_check_hopf():
    for table in (cyclic(3), cyclic(4), symmetric_3(), dihedral(4),
                  quaternion_8()):
        for field in (QQ, F5, PrimeField(7)):
            rep = check_hopf(group_algebra(table, field))
            assert rep.ok, str(rep)


def test_group_algebra_frozen_z2_matrices():
    h = group_algebra(cyclic(2), QQ)
    assert h.unit.rows() == [[1], [0]]
    assert h.counit.rows() == [[1, 1]]
    assert h.product.rows() == [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert h.coproduct.rows() == [[1, 0], [0, 0], [0, 0], [0, 1]]
    assert h.antipode == LinMap.identity(QQ, Space(2))


def test_group_algebra_z3_antipode_is_inversion():
    h = group_algebra(cyclic(3), QQ)
    assert h.antipode.rows() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    assert compose(h.antipode, h.antipode) == LinMap.identity(QQ, Space(3))


def test_group_algebra_rejects_non_group():
    broken = CayleyTable(((0, 1, 2), (1, 2, 0), (2, 1, 0)), 0)
    with pytest.raises(NotAGroup) as exc:
        group_algebra(broken, QQ)
    assert not exc.value.report.ok


def test_trivial_group_algebra_is_base_field():
    k = group_algebra(cyclic(1), QQ)
    assert k.space.dim == 1
    assert check_hopf(k).ok
    assert is_commutative(k) and is_cocommutative(k)


def test_commutativity_flags():
    s3 = group_algebra(symmetric_3(), QQ)
    assert not is_commutative(s3)
    assert is_cocommutative(s3)
    z6 = group_algebra(cyclic(6), QQ)
    assert is_commutative(z6) and is_cocommutative(z6)
    dual = dual_group_hopf(symmetric_3(), QQ)
    assert check_hopf(dual).ok
    assert is_commutative(dual)
    assert not is_cocommutative(dual)


# -- convolution -------------------------------------------------------------

def test_convolve_frozen_values():
    h = group_algebra(cyclic(2), QQ)
    ident = LinMap.identity(QQ, h.space)
    # id * id squares group-likes: e -> e, g -> g^2 = e
    sq = convolve(ident, ident, h.coalgebra, h.algebra)
    assert sq.rows() == [[1, 1], [0, 0]]
    assert sq == convolution_unit(h.coalgebra, h.algebra)

    z3 = group_algebra(cyclic(3), QQ)
    ident3 = LinMap.identity(QQ, z3.space)
    neutral = convolution_unit(z3.coalgebra, z3.algebra)
    assert convolve(ident3, z3.antipode, z3.coalgebra, z3.algebra) == neutral
    assert convolve(z3.antipode, ident3, z3.coalgebra, z3.algebra) == neutral
    cube = convolve(convolve(ident3, ident3, z3.coalgebra, z3.algebra),
                    ident3, z3.coalgebra, z3.algebra)
    assert cube == LinMap.from_rows(QQ, [[1, 1, 1], [0, 0, 0], [0, 0, 0]])


def test_convolution_monoid_laws():
    h = group_algebra(cyclic(4), QQ)
    rng = random.Random(404)
    neutral = convolution_unit(h.coalgebra, h.algebra)

    def rand_endo():
        entries = {(i, j): rng.randrange(-3, 4)
                   for i in range(4) for j in range(4) if rng.random() < 0.5}
        return LinMap(QQ, h.space, h.space, entries)

    def star(f, g):
        return convolve(f, g, h.coalgebra, h.algebra)

    for _ in range(10):
        f, g, k = rand_endo(), rand_endo(), rand_endo()
        assert star(star(f, g), k) == star(f, star(g, k))
        assert star(f, neutral) == f
        assert star(neutral, f) == f


def test_antipode_uniqueness_via_convolution_inverse():
    # a two-sided convolution inverse of id is unique, so any perturbed
    # candidate must fail at least one side of the antipode equation
    h = group_algebra(cyclic(4), QQ)
    ident = LinMap.identity(QQ, h.space)
    neutral = convolution_unit(h.coalgebra, h.algebra)
    rng = random.Random(99)
    for _ in range(20):
        i, j = rng.randrange(4), rng.randrange(4)
        cand = reentry(h.antipode, {(i, j): h.antipode.entry(i, j) + 1})
        assert cand != h.antipode
        left = convolve(cand, ident, h.coalgebra, h.algebra)
        right = convolve(ident, cand, h.coalgebra, h.algebra)
        assert left != neutral or right != neutral


# -- failure witnesses -------------------------------------------------------

def test_check_hopf_identity_antipode_fails_at_g():
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    rep = check_hopf(broken)
    assert not rep.ok
    entry = rep.entry("antipode.left")
    assert not entry.passed
    # id * id sends g to g^2 while the neutral map sends it to e
    assert entry.witness == {"kind": "entry", "row": 0, "col": 1,
                             "left": "0", "right": "1"}


def test_counit_zeroed_on_g_fails_at_g():
    z2 = group_algebra(cyclic(2), QQ)
    counit = reentry(z2.counit, {(0, 1): 0})
    rep = check_coalgebra(CoalgebraData(counit, z2.coproduct))
    assert not rep.ok
    assert not rep.entry("counit.left").passed
    assert rep.entry("counit.left").witness["col"] == 1


def test_algebra_checker_passes_group_product():
    s3 = group_algebra(symmetric_3(), F5)
    assert check_algebra(s3.algebra).ok
    assert check_coalgebra(s3.coalgebra).ok


# -- antipode properties -----------------------------------------------------

def test_antipode_properties_s3():
    rep = check_antipode_properties(group_algebra(symmetric_3(), QQ))
    assert rep.ok
    assert rep.has_entry("involution")
    for name in ("antimultiplicative", "anticomultiplicative", "unit", "counit"):
        assert rep.entry(name).passed


def test_antipode_properties_sweep_small_groups():
    for order in range(1, 7):
        for g in groups_of_order(order):
            for field in (QQ, F5):
                assert check_antipode_properties(group_algebra(g, field)).ok


def test_antipode_properties_gate():
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    with pytest.raises(PrereqFailed) as exc:
        check_antipode_properties(broken)
    assert not exc.value.report.ok


def test_involution_emitted_for_commutative_non_cocommutative():
    dual = dual_group_hopf(symmetric_3(), QQ)
    rep = check_antipode_properties(dual)
    assert rep.ok
    assert rep.has_entry("involution")


# -- opposite ----------------------------------------------------------------

def test_opposite_hopf_matches_transposed_table():
    tbl = symmetric_3()
    op_table = tuple(tuple(tbl.mul(b, a) for b in range(6)) for a in range(6))
    expected = group_algebra(CayleyTable(op_table, tbl.identity), QQ)
    got = opposite_hopf(group_algebra(tbl, QQ))
    assert got.product == expected.product
    assert got.antipode == expected.antipode
    assert check_hopf(got).ok
    assert opposite_hopf(got).product == group_algebra(tbl, QQ).product


def test_opposite_hopf_fixed_on_abelian():
    h = group_algebra(cyclic(5), QQ)
    assert opposite_hopf(h).product == h.product


def test_opposite_hopf_requires_cocommutative():
    with pytest.raises(NotCocommutative):
        opposite_hopf(dual_group_hopf(symmetric_3(), QQ))


# -- morphisms ---------------------------------------------------------------

def test_hopf_morphism_identity():
    h = group_algebra(cyclic(4), QQ)
    rep = check_hopf_morphism(LinMap.identity(QQ, h.space), h, h)
    assert rep.ok
    assert rep.entry("derived.antipode").passed


def test_hopf_morphism_mod_two_reduction():
    src = group_algebra(cyclic(4), QQ)
    dst = group_algebra(cyclic(2), QQ)
    f = LinMap(QQ, src.space, dst.space, {(i % 2, i): 1 for i in range(4)})
    rep = check_hopf_morphism(f, src, dst)
    assert rep.ok
    assert rep.entry("derived.antipode").passed


def test_counit_is_morphism_to_base_field():
    h = group_algebra(cyclic(2), QQ)
    k = group_algebra(cyclic(1), QQ)
    rep = check_hopf_morphism(h.counit, h, k)
    assert rep.ok


def test_hopf_morphism_failure_entries():
    h = group_algebra(cyclic(4), QQ)
    # moving the unit breaks exactly the unit-intertwining entries
    f = LinMap(QQ, h.space, h.space, {((i + 1) % 4, i): 1 for i in range(4)})
    rep = check_hopf_morphism(f, h, h)
    assert not rep.ok
    assert not rep.entry("algebra.unit").passed
    assert not rep.entry("algebra.product").passed

    # collapsing onto the unit line is the trivial morphism and passes
    g = LinMap(QQ, h.space, h.space, {(0, i): 1 for i in range(4)})
    assert check_hopf_morphism(g, h, h).ok


def test_morphism_shape_guard():
    h = group_algebra(cyclic(4), QQ)
    k = group_algebra(cyclic(2), QQ)
    with pytest.raises(DimensionMismatch):
        check_hopf_morphism(LinMap.identity(QQ, h.space), h, k)


def test_hopf_record_rejects_a_map_over_another_field():
    h = group_algebra(cyclic(2), QQ)
    bad = LinMap.identity(F5, Space(2))
    with pytest.raises(FieldMismatch):
        HopfAlgebraData(h.unit, h.product, h.counit, h.coproduct, bad)
