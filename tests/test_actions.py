import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braceforge import (AlgebraData, HopfAlgebraData, HopfBraceData, LeftModuleData,
                        LinMap, MatchedPairData, OppBraceTripleData, PrimeField, QQ,
                        RightModuleData, Space, adjoint_action,
                        check_brace_identities, check_hopf_brace, check_left_module,
                        check_matched_pair, check_module_algebra,
                        check_module_coalgebra, check_obt, check_right_module,
                        check_right_module_coalgebra, compose, cyclic, dihedral,
                        group_algebra, left_tensor_square_action, mu_tilde,
                        parse_field, phi, psi, quaternion_8,
                        right_tensor_square_action, symmetric_3, tensor,
                        trivial_brace)
from braceforge import actions, brace, matched, obt
from braceforge.errors import DimensionMismatch, PrereqFailed
from braceforge.linmap import equation_entry
from braceforge.report import AxiomReport

from mutants import reentry, trivial_left_action, trivial_right_action
from oracles import (braided_adjoint_action, braided_antipode_exchange,
                     interchanged_square_action, padded_compatibility,
                     padded_tensor_square_action)
from test_linmap import _dense


def regular_left(h):
    return LeftModuleData(hopf=h, carrier=h.space, action=h.product)


def regular_right(h):
    return RightModuleData(hopf=h, carrier=h.space, action=h.product)


def test_regular_and_trivial_left_modules_pass():
    for table in (cyclic(4), symmetric_3()):
        h = group_algebra(table, QQ)
        assert check_left_module(regular_left(h)).ok
        triv = LeftModuleData(hopf=h, carrier=h.space,
                              action=trivial_left_action(h, h.space))
        assert check_left_module(triv).ok


def test_right_module_mirrors():
    h = group_algebra(symmetric_3(), QQ)
    assert check_right_module(regular_right(h)).ok
    triv = RightModuleData(hopf=h, carrier=h.space,
                           action=trivial_right_action(h.space, h))
    assert check_right_module(triv).ok


def test_wrong_carrier_names_the_action_codomain():
    h = group_algebra(cyclic(2), QQ)
    for cls, side in ((LeftModuleData, "left"), (RightModuleData, "right")):
        with pytest.raises(DimensionMismatch) as err:
            cls(hopf=h, carrier=Space(3), action=h.product)
        assert str(err.value) == (f"carrier has dimension 3, but the {side} "
                                  "action lands in dimension 2")
    # one action on both sides: the records still tell left from right
    assert regular_left(h) != regular_right(h)
    assert regular_left(h) == regular_left(h)


def test_corrupted_action_fails_with_witness():
    h = group_algebra(cyclic(3), QQ)
    # send g*g to g instead of g^2
    action = reentry(h.product, {(2, 4): 0, (1, 4): 1})
    rep = check_left_module(LeftModuleData(hopf=h, carrier=h.space, action=action))
    assert not rep.ok
    bad = rep.entry("action.product")
    assert not bad.passed
    assert bad.witness["kind"] == "entry"


def test_unit_axiom_fails_when_unit_column_moved():
    h = group_algebra(cyclic(3), QQ)
    # e now acts as the cycle g |-> g^2 |-> e |-> g
    action = reentry(h.product, {(0, 0): 0, (1, 0): 1, (1, 1): 0, (2, 1): 1,
                                 (2, 2): 0, (0, 2): 1})
    rep = check_left_module(LeftModuleData(hopf=h, carrier=h.space, action=action))
    assert not rep.entry("action.unit").passed


# -- module algebra ----------------------------------------------------------

def test_trivial_action_is_module_algebra_and_coalgebra():
    h = group_algebra(symmetric_3(), QQ)
    triv = LeftModuleData(hopf=h, carrier=h.space,
                          action=trivial_left_action(h, h.space))
    assert check_module_algebra(triv, h.algebra).ok
    rep = check_module_coalgebra(triv, h.coalgebra)
    assert rep.ok
    assert rep.entry("routes_agree").passed


def test_regular_action_fails_module_algebra_on_s3():
    tbl = symmetric_3()
    h = group_algebra(tbl, QQ)
    rep = check_module_algebra(regular_left(h), h.algebra)
    assert not rep.ok
    assert not rep.entry("carrier_unit").passed  # g . 1 = g, not eps(g) 1
    bad = rep.entry("carrier_product")
    assert not bad.passed and bad.witness is not None

    # independent witness: for an involution s and any x, the diagonal action
    # sends s (x) (x (x) x) to (sx)(sx) while plain translation gives s(xx)
    s = next(x for x in range(1, 6) if tbl.mul(x, x) == tbl.identity)
    x = next(y for y in range(1, 6) if tbl.mul(tbl.mul(s, y), tbl.mul(s, y))
             != tbl.mul(s, tbl.mul(y, y)))
    lhs = compose(regular_left(h).action,
                  tensor(LinMap.identity(QQ, h.space), h.product))
    rhs = compose(h.product, left_tensor_square_action(regular_left(h)))
    col = s * 36 + x * 6 + x
    assert lhs.entry(tbl.mul(s, tbl.mul(x, x)), col) == QQ.one()
    assert rhs.entry(tbl.mul(tbl.mul(s, x), tbl.mul(s, x)), col) == QQ.one()
    assert lhs.entry(tbl.mul(s, tbl.mul(x, x)), col) != \
        rhs.entry(tbl.mul(s, tbl.mul(x, x)), col)


@pytest.mark.parametrize("spec", ("Q", "Fp:5"))
def test_right_conjugation_is_a_module_algebra(spec):
    # phi of a trivial brace is x <| g = g^-1 x g, an algebra automorphism
    # for each g that fixes 1: the right-hand laws hold
    for table in (cyclic(4), symmetric_3(), dihedral(4), quaternion_8()):
        h = group_algebra(table, parse_field(spec))
        conj = RightModuleData(hopf=h, carrier=h.space, action=phi(trivial_brace(h)))
        assert check_right_module(conj).ok
        assert check_module_algebra(conj, h.algebra).ok


def test_right_regular_action_fails_module_algebra():
    # x <| g = xg: column 1 of the unit law is 1 <| s = s against eps(s) 1,
    # and column 1 of the product law is (e e) <| s = s against
    # (e <| s)(e <| s) = s s = e, for the involution s = 1 of S3
    h = group_algebra(symmetric_3(), QQ)
    rep = check_module_algebra(regular_right(h), h.algebra)
    want = {"kind": "entry", "row": 0, "col": 1, "left": "0", "right": "1"}
    for name in ("carrier_unit", "carrier_product"):
        assert (rep.entry(name).passed, rep.entry(name).witness) == (False, want)


def test_regular_action_is_module_coalgebra():
    # group-like coproducts are multiplicative, so left translation respects them
    h = group_algebra(symmetric_3(), QQ)
    rep = check_module_coalgebra(regular_left(h), h.coalgebra)
    assert rep.ok
    for name in ("carrier_counit", "carrier_coproduct", "morphism_counit",
                 "morphism_coproduct", "routes_agree"):
        assert rep.entry(name).passed
    assert check_right_module_coalgebra(regular_right(h), h.coalgebra).ok


def test_broken_carrier_coproduct_fails_both_routes():
    h = group_algebra(cyclic(3), QQ)
    # pretend delta(g) = g (x) g^2
    coa = type(h.coalgebra)(h.counit,
                            reentry(h.coproduct, {(4, 1): 0, (5, 1): 1}))
    rep = check_module_coalgebra(regular_left(h), coa)
    assert not rep.entry("carrier_coproduct").passed
    assert not rep.entry("morphism_coproduct").passed
    assert rep.entry("routes_agree").passed  # both routes use the same action


# -- adjoint -----------------------------------------------------------------

def test_adjoint_action_matches_conjugation_table():
    tbl = symmetric_3()
    h = group_algebra(tbl, QQ)
    ad = adjoint_action(h)
    oracle = LinMap(QQ, ad.action.domain, h.space, {
        (tbl.mul(tbl.mul(g, x), tbl.inverse(g)), g * 6 + x): 1
        for g in range(6) for x in range(6)})
    assert ad.action == oracle


def test_adjoint_action_is_module_algebra():
    h = group_algebra(symmetric_3(), QQ)
    ad = adjoint_action(h)
    assert check_left_module(ad).ok
    rep = check_module_algebra(ad, h.algebra)
    assert rep.ok
    assert check_module_coalgebra(ad, h.coalgebra).ok


def test_adjoint_on_abelian_group_is_trivial():
    h = group_algebra(cyclic(4), QQ)
    assert adjoint_action(h).action == trivial_left_action(h, h.space)


# -- gates -------------------------------------------------------------------

def test_module_algebra_gate_requires_valid_module():
    h = group_algebra(cyclic(3), QQ)
    action = reentry(h.product, {(2, 4): 0, (1, 4): 1})
    bad = LeftModuleData(hopf=h, carrier=h.space, action=action)
    with pytest.raises(PrereqFailed):
        check_module_algebra(bad, h.algebra)
    with pytest.raises(PrereqFailed):
        check_module_coalgebra(bad, h.coalgebra)


def test_right_module_algebra_gate_names_the_right_module():
    h = group_algebra(cyclic(3), QQ)
    action = reentry(h.product, {(2, 4): 0, (1, 4): 1})
    bad = RightModuleData(hopf=h, carrier=h.space, action=action)
    with pytest.raises(PrereqFailed) as err:
        check_module_algebra(bad, h.algebra)
    assert str(err.value) == "module-algebra check is gated on check_right_module"
    assert err.value.report is check_right_module(bad)


def test_wrong_carrier_is_named_before_any_compose(count_calls):
    # Z3 acting on itself, checked against Z4's algebra or coalgebra: the
    # check names the side and both dimensions before it composes anything
    h, z4 = group_algebra(cyclic(3), QQ), group_algebra(cyclic(4), QQ)
    calls = count_calls(compose)
    cases = ((check_module_algebra, regular_left(h), z4.algebra, "left", "algebra"),
             (check_module_coalgebra, regular_left(h), z4.coalgebra, "left", "coalgebra"),
             (check_right_module_coalgebra, regular_right(h), z4.coalgebra,
              "right", "coalgebra"))
    for check, mod, structure, side, what in cases:
        with pytest.raises(DimensionMismatch) as err:
            check(mod, structure)
        assert str(err.value) == (f"{side} module carrier has dimension 3, "
                                  f"but the {what} is on dimension 4")
    assert calls == {"compose": 0}


def test_right_module_coalgebra_gate():
    h = group_algebra(cyclic(3), QQ)
    action = reentry(h.product, {(2, 4): 0, (1, 4): 1})
    bad = RightModuleData(hopf=h, carrier=h.space, action=action)
    with pytest.raises(PrereqFailed):
        check_right_module_coalgebra(bad, h.coalgebra)


def test_adjoint_gate_requires_hopf():
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    with pytest.raises(PrereqFailed):
        adjoint_action(broken)


# -- one coproduct leg past a carrier ------------------------------------------

@settings(deadline=None, max_examples=60)
@given(st.data())
def test_interchange_formulas_equal_the_padded_ones(data):
    # Passing one coproduct leg past a carrier by the interchange only moves
    # tensor legs, so each formula equals the padded one it replaced for any
    # maps, and the carrier-product law, which composes the product before
    # the interchange, equals the product after the square action it never
    # builds.  The laws, the brace identities and the adjoint action
    # are gated on axioms that random maps fail; the gates are opened to
    # reach their formulas, and the right-hand side of each entry is
    # recorded where it is made: the carrier-product laws in actions.py,
    # the antipode exchange in brace.py.
    field = data.draw(st.sampled_from([QQ, PrimeField(5), PrimeField(7)]))
    n, k = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))

    def mk(rows, cols):
        return LinMap.from_rows(field, data.draw(_dense(field, rows, cols)))

    def mk_hopf(d):
        return HopfAlgebraData(mk(d, 1), mk(d, d * d), mk(1, d), mk(d * d, d), mk(d, d))

    h = mk_hopf(n)
    left = LeftModuleData(hopf=h, carrier=Space(k), action=mk(k, n * k))
    right = RightModuleData(hopf=h, carrier=Space(k), action=mk(k, k * n))
    assert left_tensor_square_action(left) == padded_tensor_square_action(left)
    assert right_tensor_square_action(right) == padded_tensor_square_action(right)

    b = HopfBraceData.of(h, HopfAlgebraData(h.unit, mk(n, n * n), h.counit,
                                            h.coproduct, mk(n, n)))
    alg = AlgebraData(mk(k, 1), mk(k, k * k))
    t = OppBraceTripleData(hopf=h, action=mk(n, n * n), involution=mk(n, n))
    pair = MatchedPairData(first=h, second=mk_hopf(k), left_action=mk(n, k * n),
                           right_action=mk(k, k * n))
    rhs = {}

    def recording(name, lhs, right_side):
        rhs[name] = right_side
        return equation_entry(name, lhs, right_side)

    def opened(_):
        return AxiomReport(())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(brace, "equation_entry", recording)
        mp.setattr(actions, "equation_entry", recording)
        mp.setattr(brace, "check_hopf_brace", opened)
        for module in (actions, obt, matched):
            mp.setattr(module, "check_hopf", opened)
        mp.setattr(actions, "_check_module", opened)
        check_hopf_brace.__wrapped__(b)  # past the verdict cache
        check_brace_identities(b)
        adjoint = adjoint_action(h)
        check_module_algebra(left, alg)
        left_carrier_product = rhs["carrier_product"]
        check_module_algebra(right, alg)
        right_carrier_product = rhs["carrier_product"]
        check_obt.__wrapped__(t)
        triple_v = rhs["v"]
        check_matched_pair(pair)
    assert rhs["compatibility"] == padded_compatibility(b)
    assert left_carrier_product == compose(alg.product, padded_tensor_square_action(left))
    assert right_carrier_product == compose(alg.product, padded_tensor_square_action(right))
    triple_module = LeftModuleData(hopf=h, carrier=h.space, action=t.action)
    assert triple_v == compose(mu_tilde(t), padded_tensor_square_action(triple_module))
    ps = psi(pair)
    pair_left = LeftModuleData(hopf=pair.second, carrier=h.space, action=pair.left_action)
    pair_right = RightModuleData(hopf=h, carrier=pair.second.space,
                                 action=pair.right_action)
    assert rhs["iv"] == compose(h.product, interchanged_square_action(pair_left, ps))
    assert rhs["v"] == compose(pair.second.product,
                               interchanged_square_action(pair_right, ps))
    assert rhs["action_antipode_exchange"] == braided_antipode_exchange(b)
    assert adjoint.action == braided_adjoint_action(h)
