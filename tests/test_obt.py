from itertools import permutations, product

import pytest

from braceforge import (HopfAlgebraData, LeftModuleData, LinMap,
                        OppBraceTripleData, QQ, build_deformed_hopf, check_hopf,
                        check_hopf_brace, check_left_module,
                        check_lemma_mu_recovery, check_obt, check_obt_morphism,
                        compose, cyclic, functor_P, functor_Q, group_algebra,
                        groups_of_order, mu_tilde, opposite_hopf,
                        require_valid_obt, roundtrip_PQ, roundtrip_QP,
                        symmetric_3, tensor, trivial_brace)
from braceforge.errors import (NotCocommutative, ObtAxiomsFailed,
                               PrereqFailed)

from mutants import broken_obt, dual_group_hopf, trivial_left_action

AXIOMS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")


def trivial_triple(h):
    return OppBraceTripleData(hopf=h, action=trivial_left_action(h, h.space),
                              involution=h.antipode)


def test_trivial_triples_pass_all_eight():
    for tbl in (cyclic(3), symmetric_3()):
        h = group_algebra(tbl, QQ)
        rep = check_obt(trivial_triple(h))
        assert rep.ok
        assert [e.name for e in rep.entries] == list(AXIOMS)


def test_mu_tilde_of_trivial_triple_is_the_product():
    h = group_algebra(symmetric_3(), QQ)
    assert mu_tilde(trivial_triple(h)) == h.product


def test_mu_tilde_is_unital(corpus):
    for label, s, b in corpus:
        if s.order > 4 or not label.endswith(":Q"):
            continue
        t = functor_Q(b)
        mt = mu_tilde(t)
        id_a = LinMap.identity(t.field, t.hopf.space)
        assert compose(mt, tensor(t.hopf.unit, id_a)) == id_a, label
        assert compose(mt, tensor(id_a, t.hopf.unit)) == id_a, label


def test_q_images_pass_and_deform_back_to_product1(corpus):
    for label, s, b in corpus:
        if s.order > 4:
            continue
        t = functor_Q(b)
        assert check_obt(t).ok, label
        assert mu_tilde(t) == b.product1, label
        assert t.involution == b.antipode1, label


def test_q_action_matches_set_level_oracle():
    from test_brace import xor_brace
    s, b = xor_brace()
    t = functor_Q(b)
    # m(x (x) y) = inv_dot(inv_circ(x)) dot (inv_circ(x) circ y)
    entries = {}
    for x in range(4):
        xc = s.circ.inverse(x)
        for y in range(4):
            entries[(s.dot.mul(s.dot.inverse(xc), s.circ.mul(xc, y)),
                     x * 4 + y)] = 1
    assert t.action == LinMap(QQ, b.space.tensor(b.space), b.space, entries)


def test_deformed_hopf_of_trivial_triple_is_original():
    h = group_algebra(symmetric_3(), QQ)
    d = build_deformed_hopf(trivial_triple(h))
    assert d.product == h.product
    assert d.antipode == h.antipode
    assert check_hopf(d).ok


def test_functor_p_gives_brace_and_gamma_recovers_action(corpus):
    for label, s, b in corpus:
        if s.order > 4 or not label.endswith(":Q"):
            continue
        t = functor_Q(b)
        p = functor_P(t)
        assert check_hopf_brace(p).ok, label
        from braceforge import gamma
        id_a = LinMap.identity(t.field, t.hopf.space)
        assert gamma(p) == compose(t.action,
                                   tensor(t.hopf.antipode, id_a)), label


def test_roundtrips_are_exact(corpus):
    for label, s, b in corpus:
        if s.order > 4:
            continue
        assert roundtrip_PQ(b).ok, label
        assert roundtrip_QP(functor_Q(b)).ok, label
    h = group_algebra(symmetric_3(), QQ)
    assert roundtrip_QP(trivial_triple(h)).ok


# -- recovery lemma ----------------------------------------------------------

def test_lemma_recovery_on_corpus(corpus):
    for label, s, b in corpus:
        if s.order > 4:
            continue
        rep = check_lemma_mu_recovery(functor_Q(b))
        assert rep.ok, label


def test_lemma_reports_instead_of_raising_on_broken_action():
    rep = check_lemma_mu_recovery(broken_obt("ii"))
    assert not rep.entry("product_recovery").passed


def test_lemma_ignores_the_involution():
    rep = check_lemma_mu_recovery(broken_obt("viii"))
    assert rep.entry("product_recovery").passed


def test_lemma_gates():
    with pytest.raises(NotCocommutative):
        check_lemma_mu_recovery(trivial_triple(dual_group_hopf(symmetric_3(), QQ)))
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    with pytest.raises(PrereqFailed):
        check_lemma_mu_recovery(trivial_triple(broken))


# -- gates -------------------------------------------------------------------

def test_check_obt_gate_requires_hopf():
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    with pytest.raises(PrereqFailed):
        check_obt(trivial_triple(broken))


def test_deformation_needs_cocommutativity():
    t = trivial_triple(dual_group_hopf(symmetric_3(), QQ))
    # (viii) forces u to be the antipode, which is only an anti-comorphism
    # here, so (vi) fails: no trivial triple exists on this Hopf algebra
    rep = check_obt(t)
    assert [e.name for e in rep.failures()] == ["vi"]
    with pytest.raises(NotCocommutative):
        build_deformed_hopf(t)
    b = trivial_brace(dual_group_hopf(symmetric_3(), QQ))
    with pytest.raises(NotCocommutative):
        functor_Q(b)


def test_require_valid_obt():
    with pytest.raises(ObtAxiomsFailed):
        require_valid_obt(broken_obt("vii"))
    require_valid_obt(trivial_triple(group_algebra(cyclic(3), QQ)))


# -- per-axiom mutants -------------------------------------------------------

EXPECTED_FAILURES = {
    "i": ["i", "iv", "v"],
    "ii": ["ii", "iv", "v"],
    "iii": ["iii", "iv", "v"],
    "iv": ["iv", "v"],
    "v": ["iv", "v"],
    "vi": ["vi", "vii", "viii"],
    "vii": ["vii", "viii"],
    "viii": ["viii"],
}


def test_each_obt_mutant_fails_its_axiom():
    for axiom in AXIOMS:
        rep = check_obt(broken_obt(axiom))
        failed = [e.name for e in rep.failures()]
        assert failed == EXPECTED_FAILURES[axiom], (axiom, failed)
        assert axiom in failed
        assert rep.entry(axiom).witness is not None


def test_identity_involution_fails_viii_at_g():
    rep = check_obt(broken_obt("viii"))
    assert [e.name for e in rep.failures()] == ["viii"]
    # u = id makes the left side fix g while the antipode sends it to g^2
    assert rep.entry("viii").witness == {"kind": "entry", "row": 1, "col": 1,
                                         "left": "1", "right": "0"}


def test_module_axioms_are_the_opposite_module_laws(corpus):
    """Axioms (ii) and (iv) give the verdict and witness of
    check_left_module's unit and product laws for the action over A with
    the opposite product: on Q(b) for every order <= 6 brace over Q and
    Fp:5 and on every mutant."""
    triples = [functor_Q(b) for _, _, b in corpus]
    triples += [broken_obt(axiom) for axiom in AXIOMS]
    seen = set()
    for t in triples:
        rep = check_obt(t)
        laws = check_left_module(LeftModuleData(
            hopf=opposite_hopf(t.hopf), carrier=t.space, action=t.action))
        for axiom, law in (("ii", "action.unit"), ("iv", "action.product")):
            got, want = rep.entry(axiom), laws.entry(law)
            assert (got.passed, got.witness) == (want.passed, want.witness), axiom
            seen.add((axiom, got.passed))
    assert seen == {(axiom, ok) for axiom in ("ii", "iv") for ok in (True, False)}


# -- morphisms ---------------------------------------------------------------

def test_obt_morphism_identity_and_functor_q_image():
    from test_brace import xor_brace
    _, b = xor_brace()
    t = functor_Q(b)
    rep = check_obt_morphism(LinMap.identity(QQ, t.hopf.space), t, t)
    assert rep.ok

    # doubling is a brace endomorphism, hence a triple endomorphism
    f = LinMap(QQ, b.space, b.space, {(2 * i % 4, i): 1 for i in range(4)})
    rep = check_obt_morphism(f, t, t)
    assert rep.ok
    for name in ("hopf.derived.antipode", "action",
                 "derived.deformed_product", "derived.involution"):
        assert rep.entry(name).passed


def test_hopf_morphism_that_breaks_the_action():
    # swapping two generators of the xor group is a Hopf automorphism of
    # the second structure but does not commute with the triple action
    from test_brace import xor_brace
    _, b = xor_brace()
    t = functor_Q(b)
    perm = {0: 0, 1: 2, 2: 1, 3: 3}
    f = LinMap(QQ, b.space, b.space, {(perm[i], i): 1 for i in range(4)})
    rep = check_obt_morphism(f, t, t)
    assert not rep.ok
    failed = [e.name for e in rep.failures()]
    assert failed == ["action", "derived.deformed_product",
                      "derived.involution"]


# -- set-level independence search -------------------------------------------

def set_level_triples(tbl):
    """All families alpha with alpha_e = id satisfying the group-like
    versions of (ii)-(v); u is then forced pointwise by (viii)."""
    n, e = tbl.order, tbl.identity
    perms = list(permutations(range(n)))
    others = [x for x in range(n) if x != e]
    out = []
    for combo in product(perms, repeat=len(others)):
        alpha = {e: tuple(range(n))}
        alpha.update(dict(zip(others, combo)))
        if any(alpha[x][e] != e for x in others):
            continue
        if any(alpha[x][alpha[y][z]] != alpha[tbl.mul(y, x)][z]
               for x in range(n) for y in range(n) for z in range(n)):
            continue
        if any(alpha[x][tbl.mul(y, alpha[y][z])]
               != tbl.mul(alpha[x][y], alpha[alpha[x][y]][alpha[x][z]])
               for x in range(n) for y in range(n) for z in range(n)):
            continue
        inv = {x: tuple(alpha[x].index(j) for j in range(n)) for x in range(n)}
        u = tuple(inv[x][tbl.inverse(x)] for x in range(n))
        out.append((alpha, u))
    return out


def test_involutivity_is_implied_at_small_orders():
    # recorded search outcome: through order 4 the forced u is always an
    # involution, so no group-like counterexample separates (vii) from the
    # remaining axioms; the family counts match the skew brace counts
    expected_counts = {"Z1": 1, "Z2": 1, "Z3": 1, "Z4": 2, "Z2xZ2": 4}
    for order in range(1, 5):
        for tbl in groups_of_order(order):
            triples = set_level_triples(tbl)
            assert len(triples) == expected_counts[tbl.label]
            for alpha, u in triples:
                assert all(u[u[x]] == x for x in range(tbl.order))
