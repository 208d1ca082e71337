import dataclasses

import pytest

from braceforge import (LeftModuleData, LinMap, MatchedPairData, QQ,
                        RightModuleData, braiding, check_hopf,
                        check_hopf_brace, check_left_module,
                        check_matched_pair, check_module_algebra,
                        check_module_coalgebra, check_mp_morphism, check_mp_over_A,
                        check_right_module, check_right_module_coalgebra,
                        compose, cyclic, enumerate_skew_braces,
                        functor_F, functor_G, functor_Q, gamma, group_algebra,
                        left_tensor_square_action, linearize,
                        obt_from_matched_pair, psi,
                        right_tensor_square_action, roundtrip_FG,
                        roundtrip_GF, roundtrip_PQ, roundtrip_QP,
                        symmetric_3, tensor, trivial_brace)
from braceforge import actions
from braceforge.errors import (MpAxiomsFailed, NotCocommutative, NotDiagonal,
                               PrereqFailed)
from braceforge.linmap import legwise
from braceforge.suite import row_verdicts

from conftest import clear_caches
from mutants import (broken_matched_pair, dual_group_hopf,
                     trivial_left_action, trivial_right_action)
from test_brace import set_gamma, set_phi, xor_brace
from test_report import doubled


def trivial_pair(a, h=None):
    h = h if h is not None else a
    return MatchedPairData(first=a, second=h,
                           left_action=trivial_left_action(h, a.space),
                           right_action=trivial_right_action(h.space, a))


def test_psi_of_trivial_pair_is_the_braiding():
    a = group_algebra(cyclic(3), QQ)
    m = trivial_pair(a)
    assert psi(m) == braiding(QQ, a.space, a.space)
    assert check_matched_pair(m).ok


def test_non_diagonal_trivial_pair_passes_plain_axioms():
    a = group_algebra(cyclic(3), QQ)
    h = group_algebra(cyclic(4), QQ)
    m = trivial_pair(a, h)
    assert check_matched_pair(m).ok
    with pytest.raises(NotDiagonal):
        check_mp_over_A(m)


def test_f_image_of_trivial_brace_on_s3():
    tbl = symmetric_3()
    b = trivial_brace(group_algebra(tbl, QQ))
    m = functor_F(b)
    rep = check_mp_over_A(m)
    assert rep.ok
    assert rep.has_entry("interweaving_identity")
    # gamma is trivial and phi conjugates: psi(x (x) y) = y (x) inv(y) x y
    assert m.left_action == trivial_left_action(b.second(), b.space)
    expected_psi = LinMap(QQ, m.second.space.tensor(m.first.space),
                          m.first.space.tensor(m.second.space), {
        (y * 6 + tbl.mul(tbl.mul(tbl.inverse(y), x), y), x * 6 + y): 1
        for x in range(6) for y in range(6)})
    assert psi(m) == expected_psi


def test_f_image_of_xor_brace():
    s, b = xor_brace()
    m = functor_F(b)
    rep = check_mp_over_A(m)
    assert rep.ok, rep.failures()
    assert rep.entry("interweaving_identity").passed
    g, p = set_gamma(s), set_phi(s)
    expected_psi = LinMap(QQ, psi(m).domain, psi(m).codomain, {
        (g[(x, y)] * 4 + p[(x, y)], x * 4 + y): 1
        for x in range(4) for y in range(4)})
    assert psi(m) == expected_psi


def test_f_images_pass_over_corpus(corpus):
    for label, s, b in corpus:
        if s.order > 4:
            continue
        rep = check_mp_over_A(functor_F(b))
        assert rep.ok, f"{label}: {rep.failures()}"


# -- functors and roundtrips --------------------------------------------------

def test_g_recovers_the_brace(corpus):
    for label, s, b in corpus:
        if s.order > 4:
            continue
        m = functor_F(b)
        back = functor_G(m)
        assert back == b or (
            back.product1 == b.product1 and back.antipode1 == b.antipode1
            and back.product2 == b.product2
            and back.antipode2 == b.antipode2), label
        assert gamma(back) == m.left_action, label
        assert roundtrip_GF(b).ok, label
        assert roundtrip_FG(m).ok, label


def test_g_image_is_a_brace():
    _, b = xor_brace()
    m = functor_F(b)
    assert check_hopf_brace(functor_G(m)).ok


def test_obt_from_matched_pair_agrees_with_q_of_g(corpus):
    for label, s, b in corpus:
        if s.order > 4 or not label.endswith(":Q"):
            continue
        m = functor_F(b)
        t_direct = obt_from_matched_pair(m)
        t_via_q = functor_Q(functor_G(m))
        assert t_direct.action == t_via_q.action, label
        assert t_direct.involution == t_via_q.involution, label
        assert t_direct.hopf.product == t_via_q.hopf.product, label
        assert t_direct.hopf.antipode == t_via_q.hopf.antipode, label


# -- gates --------------------------------------------------------------------

def test_prereq_gate_on_broken_component():
    z3 = group_algebra(cyclic(3), QQ)
    from braceforge import HopfAlgebraData
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    m = MatchedPairData(first=broken, second=z3,
                        left_action=trivial_left_action(z3, z3.space),
                        right_action=trivial_right_action(z3.space, broken))
    with pytest.raises(PrereqFailed):
        check_matched_pair(m)


def test_over_a_needs_cocommutativity():
    dual = dual_group_hopf(symmetric_3(), QQ)
    m = trivial_pair(dual)
    with pytest.raises(NotCocommutative):
        check_mp_over_A(m)


def test_functor_g_rejects_non_diagonal():
    a = group_algebra(cyclic(3), QQ)
    h = group_algebra(cyclic(4), QQ)
    with pytest.raises(NotDiagonal):
        functor_G(trivial_pair(a, h))


def test_require_raises_on_broken_axiom():
    with pytest.raises(MpAxiomsFailed):
        functor_G(broken_matched_pair("iv"))


# -- per-axiom mutants ----------------------------------------------------

MP_EXPECTED_FAILURES = {
    "i": ["i.left_module.action.product"],
    "ii": ["i.left_module.action.product", "ii", "iv"],
    "iii": ["i.right_module.action.product", "iii", "v"],
    "iv": ["iv"],
    "v": ["v"],
    "vi": ["vi"],
}


def test_each_mp_mutant_fails_its_axiom():
    for axiom, expected in MP_EXPECTED_FAILURES.items():
        rep = check_matched_pair(broken_matched_pair(axiom))
        failed = [e.name for e in rep.failures()]
        assert failed == expected, (axiom, failed)
        assert rep.entry(failed[0]).witness is not None


def test_braid_mutant_is_a_genuine_module_on_both_sides():
    # the axiom (vi) fixture passes everything except the braid condition,
    # which needs the acting coproduct to be cocommutative
    m = broken_matched_pair("vi")
    assert check_hopf(m.second).ok
    from braceforge.hopf import is_cocommutative
    assert not is_cocommutative(m.second)
    rep = check_matched_pair(m)
    assert [e.name for e in rep.failures()] == ["vi"]
    assert rep.entry("i.left_module.carrier_coproduct").passed
    assert rep.entry("i.right_module.routes_agree").passed
    assert rep.entry("iv").passed


# -- axiom (i) is the four module checks ----------------------------------

def test_axiom_i_is_the_four_module_checks(corpus):
    """F(b) for every order <= 4 brace over Q and Fp:5, and F(b) with its
    left or its right action's first constant doubled, against the module
    records braceforge suite built from b before it read axiom (i)."""
    seen = set()
    for _, s, b in corpus:
        if s.order > 4:
            continue
        h1, h2 = b.first(), b.second()
        m = functor_F(b)
        for pair in (m,
                     dataclasses.replace(m, left_action=doubled(m.left_action)),
                     dataclasses.replace(m, right_action=doubled(m.right_action))):
            left = LeftModuleData(hopf=h2, carrier=b.space, action=pair.left_action)
            right = RightModuleData(hopf=h2, carrier=b.space,
                                    action=pair.right_action)
            modules = (check_left_module(left).ok
                       and check_module_coalgebra(left, h1.coalgebra).ok
                       and check_right_module(right).ok
                       and check_right_module_coalgebra(right, h1.coalgebra).ok)
            axiom_i = all(e.passed for e in check_matched_pair(pair).entries
                          if e.name.startswith("i."))
            assert axiom_i == modules
            seen.add(modules)
    assert seen == {True, False}


# -- axioms (ii) and (iii) are the carrier-unit laws ------------------------

def test_unit_axioms_are_the_carrier_unit_laws(corpus):
    """Axioms (ii) and (iii) give the verdict and witness of
    check_module_algebra's carrier_unit for first as a left module and
    second as a right module, each over its own algebra: on F(b) for every
    order <= 6 brace over Q and Fp:5, on the mutants and on two regular
    actions, wherever the module gate passes."""
    h = group_algebra(symmetric_3(), QQ)
    pairs = [functor_F(b) for _, _, b in corpus]
    pairs += [broken_matched_pair(axiom) for axiom in MP_EXPECTED_FAILURES]
    pairs += [dataclasses.replace(trivial_pair(h), left_action=h.product),
              dataclasses.replace(trivial_pair(h), right_action=h.product)]
    seen = set()
    for m in pairs:
        rep = check_matched_pair(m)
        left = LeftModuleData(hopf=m.second, carrier=m.first.space,
                              action=m.left_action)
        right = RightModuleData(hopf=m.first, carrier=m.second.space,
                                action=m.right_action)
        for axiom, mod, gate, carrier in (
                ("ii", left, check_left_module, m.first),
                ("iii", right, check_right_module, m.second)):
            if gate(mod).ok:
                law = check_module_algebra(mod, carrier.algebra).entry("carrier_unit")
                got = rep.entry(axiom)
                assert (got.passed, got.witness) == (law.passed, law.witness), axiom
                seen.add((axiom, law.passed))
    assert seen == {(axiom, ok) for axiom in ("ii", "iii") for ok in (True, False)}


def test_tensor_square_route_is_the_morphism_route(corpus):
    """The module-coalgebra law has two routes to its right-hand side:
    through the tensor-square action, and as "the action is a coalgebra
    morphism".  The checker computes only the second; on the gamma and
    phi modules of F(b) for every order <= 6 row over Q and Fp:5, and on
    their doubled-action variants, the first is the same map."""
    gated = 0
    for _, _, b in corpus:
        h1, h2 = b.first(), b.second()
        id_h = LinMap.identity(b.field, h2.space)
        m = functor_F(b)
        for action in (m.left_action, doubled(m.left_action)):
            left = LeftModuleData(hopf=h2, carrier=b.space, action=action)
            gated += check_left_module(left).ok
            assert compose(left_tensor_square_action(left),
                           tensor(id_h, h1.coproduct)) == \
                legwise(action, action, h2.coproduct, h1.coproduct)
        for action in (m.right_action, doubled(m.right_action)):
            right = RightModuleData(hopf=h2, carrier=b.space, action=action)
            gated += check_right_module(right).ok
            assert compose(right_tensor_square_action(right),
                           tensor(h1.coproduct, id_h)) == \
                legwise(action, action, h1.coproduct, h2.coproduct)
    assert gated == 2 * len(corpus)  # only the undoubled modules pass the gate


def test_suite_row_checks_each_module_coalgebra_once(corpus, count_calls):
    # No check builds H's action on b (x) b: the carrier-product law reads
    # the interchange and the far action, and both module-coalgebra checks
    # compute their law through legwise alone.  The public tensor-square
    # actions and their shared body _square_action are each built 0 times.
    calls = count_calls(check_module_coalgebra, check_right_module_coalgebra,
                        left_tensor_square_action, right_tensor_square_action,
                        actions._square_action)
    rows = [b for _, s, b in corpus if s.order <= 4]
    for b in rows:
        clear_caches()
        list(row_verdicts(b))
    assert calls == {"check_module_coalgebra": len(rows),
                     "check_right_module_coalgebra": len(rows),
                     "left_tensor_square_action": 0,
                     "right_tensor_square_action": 0,
                     "_square_action": 0}


def _sign(perm) -> int:
    """The sign of a permutation of 0..n-1, from its cycle count."""
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return -1 if (len(perm) - cycles) % 2 else 1


COALGEBRA_LAWS = ("carrier_counit", "carrier_coproduct",
                  "morphism_counit", "morphism_coproduct")


def test_twisted_gamma_reaches_the_module_coalgebra_witnesses(corpus):
    """gamma twisted by the character chi(h) = sign(x -> h o x) of the
    circ group is still a module (chi is a group homomorphism to +-1),
    but eps(h |> m) = chi(h) eps(m) breaks every coalgebra law where
    chi(h) = -1.  So this mutant passes the module gate and fails the
    module-coalgebra laws with entry witnesses, on its own and as axiom
    (i) of the matched pair."""
    witnesses = {}
    for label, s, b in corpus:
        n, circ = s.order, s.circ
        chi = [_sign([circ.mul(h, x) for x in range(n)]) for h in range(n)]
        if min(chi) == 1:
            continue
        m = functor_F(b)
        twisted = LinMap(b.field, m.left_action.domain, m.left_action.codomain, {
            (row, col): b.field.neg(v) if chi[col // n] < 0 else v
            for (row, col), v in m.left_action.items()})
        left = LeftModuleData(hopf=m.second, carrier=m.first.space, action=twisted)
        assert check_left_module(left).ok, label
        rep = check_module_coalgebra(left, m.first.coalgebra)
        assert [e.name for e in rep.failures()] == list(COALGEBRA_LAWS), label
        assert all(e.witness["kind"] == "entry" for e in rep.failures()), label
        assert rep.entry("routes_agree").passed, label
        failed = [e.name for e in check_matched_pair(
            dataclasses.replace(m, left_action=twisted)).failures()]
        assert [name for name in failed if name.startswith("i.")] == \
            [f"i.left_module.{name}" for name in COALGEBRA_LAWS], label
        witnesses[label] = dict(rep.entry("carrier_counit").witness)
    assert len(witnesses) == 30  # 15 rows of order <= 6, over both fields
    assert witnesses["Z4#1:Q"] == {"kind": "entry", "row": 0, "col": 4,
                                   "left": "-1", "right": "1"}
    assert witnesses["Z4#1:Fp:5"]["left"] == "4"


# -- morphisms ------------------------------------------------------------

def test_mp_morphism_doubling_pair():
    _, b = xor_brace()
    m = functor_F(b)
    f = LinMap(QQ, b.space, b.space, {(2 * i % 4, i): 1 for i in range(4)})
    rep = check_mp_morphism(f, f, m, m)
    assert rep.ok
    assert rep.entry("left_action").passed
    assert rep.entry("right_action").passed


def test_mp_morphism_identity_pair(corpus):
    for label, s, b in corpus:
        if s.order > 3:
            continue
        m = functor_F(b)
        ida = LinMap.identity(b.field, m.first.space)
        assert check_mp_morphism(ida, ida, m, m).ok, label


def test_mp_morphism_mismatched_pair_fails():
    _, b = xor_brace()
    m = functor_F(b)
    ident = LinMap.identity(QQ, m.first.space)
    shift = LinMap(QQ, m.second.space, m.second.space,
                   {((i + 1) % 4, i): 1 for i in range(4)})
    rep = check_mp_morphism(ident, shift, m, m)
    assert not rep.ok
    assert not rep.entry("second.algebra.unit").passed


def test_roundtrip_entry_names_and_order():
    b = linearize(enumerate_skew_braces(symmetric_3())[4], QQ)
    hopf = ["unit", "counit", "coproduct", "product", "antipode"]
    brace = ["unit", "counit", "coproduct",
             "product1", "antipode1", "product2", "antipode2"]
    for rep, expected in ((roundtrip_PQ(b), brace),
                          (roundtrip_QP(functor_Q(b)), hopf + ["action", "involution"]),
                          (roundtrip_FG(functor_F(b)), hopf + ["left_action", "right_action"]),
                          (roundtrip_GF(b), brace)):
        assert rep.ok
        assert [e.name for e in rep.entries] == expected
