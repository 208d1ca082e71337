import dataclasses

import pytest

from braceforge import (HopfAlgebraData, HopfBraceData, LeftModuleData, LinMap,
                        QQ, RightModuleData, check_brace_identities,
                        check_brace_morphism, check_hopf_brace,
                        check_left_module, check_module_algebra,
                        check_module_coalgebra, check_right_module,
                        check_right_module_coalgebra, cyclic,
                        enumerate_skew_braces, gamma, group_algebra, linearize,
                        phi, require_valid_brace, symmetric_3, trivial_brace)
from braceforge.errors import (BraceAxiomsFailed, NotCocommutative,
                               PrereqFailed)

from mutants import broken_brace, dual_group_hopf, reentry, trivial_left_action

XOR = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def xor_brace(field=QQ):
    braces = enumerate_skew_braces(cyclic(4))
    nontrivial = [s for s in braces if s.circ.table != s.dot.table]
    assert len(nontrivial) == 1
    # circ is i+j+2ij mod 4, which is bitwise xor
    assert nontrivial[0].circ.table == XOR
    return nontrivial[0], linearize(nontrivial[0], field)


def set_gamma(s):
    """gamma on group-likes: x (x) y -> inv_dot(x) dot (x circ y)."""
    n = s.order
    return {(x, y): s.dot.mul(s.dot.inverse(x), s.circ.mul(x, y))
            for x in range(n) for y in range(n)}


def set_phi(s):
    """phi on group-likes: x (x) y -> inv_circ(gamma(x, y)) circ x circ y."""
    n, g = s.order, set_gamma(s)
    return {(x, y): s.circ.mul(s.circ.inverse(g[(x, y)]), s.circ.mul(x, y))
            for x in range(n) for y in range(n)}


def as_action(table, n, field=QQ):
    h = group_algebra(cyclic(n), field)  # only for the space
    return LinMap(field, h.space.tensor(h.space), h.space,
                  {(v, x * n + y): 1 for (x, y), v in table.items()})


def test_trivial_braces_pass():
    for tbl in (cyclic(4), symmetric_3()):
        h = group_algebra(tbl, QQ)
        b = trivial_brace(h)
        assert check_hopf_brace(b).ok
        assert gamma(b) == trivial_left_action(h, h.space)


def test_of_is_the_inverse_of_first_and_second(corpus):
    for label, _, b in corpus:
        assert HopfBraceData.of(b.first(), b.second()) == b, label
    s, _ = xor_brace()
    h1, h2 = group_algebra(s.dot, QQ), group_algebra(s.circ, QQ)
    b = HopfBraceData.of(h1, h2)
    assert b.first() == h1
    assert (b.second().product, b.second().antipode) == (h2.product, h2.antipode)
    # only the product and antipode are read from the second algebra
    stray = dataclasses.replace(h2, counit=reentry(h2.counit, {(0, 0): 2}))
    assert HopfBraceData.of(h1, stray) == b


def test_trivial_brace_gate():
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    with pytest.raises(PrereqFailed):
        trivial_brace(broken)


def test_xor_brace_passes_and_gamma_matches_set_oracle():
    s, b = xor_brace()
    assert check_hopf_brace(b).ok
    assert gamma(b) == as_action(set_gamma(s), 4)
    assert phi(b) == as_action(set_phi(s), 4)


def test_gamma_phi_set_oracles_on_corpus(corpus):
    for label, s, b in corpus:
        if not label.endswith(":Q"):
            continue
        n = s.order
        field = b.field
        g_exp = LinMap(field, b.space.tensor(b.space), b.space,
                       {(v, x * n + y): 1 for (x, y), v in set_gamma(s).items()})
        assert gamma(b) == g_exp, label
        p_exp = LinMap(field, b.space.tensor(b.space), b.space,
                       {(v, x * n + y): 1 for (x, y), v in set_phi(s).items()})
        assert phi(b) == p_exp, label


def test_brace_identities_on_small_corpus(corpus):
    for label, s, b in corpus:
        if s.order > 4:
            continue
        rep = check_brace_identities(b)
        assert rep.ok, f"{label}: {rep.failures()}"
        for name in ("action_antipode_exchange", "product2_from_action",
                     "product1_from_action"):
            assert rep.has_entry(name)


def test_phi_of_trivial_brace_is_right_conjugation():
    tbl = symmetric_3()
    b = trivial_brace(group_algebra(tbl, QQ))
    expected = LinMap(QQ, b.space.tensor(b.space), b.space, {
        (tbl.mul(tbl.mul(tbl.inverse(y), x), y), x * 6 + y): 1
        for x in range(6) for y in range(6)})
    assert phi(b) == expected


def test_phi_requires_cocommutative():
    b = trivial_brace(dual_group_hopf(symmetric_3(), QQ))
    with pytest.raises(NotCocommutative):
        phi(b)


def test_gamma_is_left_module_algebra_and_coalgebra():
    _, b = xor_brace()
    h1, h2 = b.first(), b.second()
    mod = LeftModuleData(hopf=h2, carrier=b.space, action=gamma(b))
    assert check_left_module(mod).ok
    assert check_module_algebra(mod, h1.algebra).ok
    assert check_module_coalgebra(mod, h1.coalgebra).ok


def test_phi_is_right_module_coalgebra():
    _, b = xor_brace()
    rmod = RightModuleData(hopf=b.second(), carrier=b.space, action=phi(b))
    assert check_right_module(rmod).ok
    assert check_right_module_coalgebra(rmod, b.first().coalgebra).ok


# -- failure behaviour --------------------------------------------------------

def test_compatibility_mutant_fails_only_compatibility():
    rep = check_hopf_brace(broken_brace())
    assert not rep.ok
    assert [e.name for e in rep.failures()] == ["compatibility"]
    assert rep.entry("compatibility").witness["kind"] == "entry"


def test_identities_gate_and_require_valid():
    bad = broken_brace()
    with pytest.raises(PrereqFailed):
        check_brace_identities(bad)
    with pytest.raises(BraceAxiomsFailed):
        require_valid_brace(bad)
    require_valid_brace(trivial_brace(group_algebra(cyclic(3), QQ)))


# -- morphisms ---------------------------------------------------------------

def test_brace_morphism_identity(corpus):
    for label, s, b in corpus:
        if s.order > 3:
            continue
        rep = check_brace_morphism(LinMap.identity(b.field, b.space), b, b)
        assert rep.ok, label
        assert rep.entry("derived.action").passed


def test_doubling_is_endomorphism_of_xor_brace():
    # f(i) = 2i mod 4 respects both i+j mod 4 and bitwise xor
    _, b = xor_brace()
    f = LinMap(QQ, b.space, b.space, {(2 * i % 4, i): 1 for i in range(4)})
    rep = check_brace_morphism(f, b, b)
    assert rep.ok
    for name in ("first.derived.antipode", "second.derived.antipode",
                 "derived.action"):
        assert rep.entry(name).passed


def test_shift_is_not_a_brace_morphism():
    _, b = xor_brace()
    f = LinMap(QQ, b.space, b.space, {((i + 1) % 4, i): 1 for i in range(4)})
    rep = check_brace_morphism(f, b, b)
    assert not rep.ok
    assert not rep.entry("first.algebra.unit").passed
    assert not rep.entry("second.algebra.unit").passed


def test_mixing_two_brace_structures_fails_compatibility_only():
    # sanity: the mutant really is Z4 against a relabeled copy of V4
    bad = broken_brace()
    rep = check_hopf_brace(bad)
    assert rep.entry("first.algebra.associativity").passed
    assert rep.entry("second.algebra.associativity").passed
    assert rep.entry("second.antipode.left").passed
    assert not rep.entry("compatibility").passed
