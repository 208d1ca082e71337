"""Acceptance gate: one test per release criterion, exact arithmetic only.

Run with -v to get one pass/fail line per criterion.  Every assertion is
zero-tolerance; expected values are either forced by the axioms, computed
by the independent oracles in the sibling test modules, or frozen from a
verified run of the library itself (marked as snapshots where so).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import braceforge
from braceforge import (LeftModuleData, LinMap, QQ, RightModuleData,
                        adjoint_action, build_deformed_hopf,
                        check_antipode_properties, check_brace_identities,
                        check_brace_morphism, check_hopf, check_hopf_brace,
                        check_hopf_morphism, check_left_module,
                        check_lemma_mu_recovery, check_module_algebra,
                        check_module_coalgebra, check_mp_over_A,
                        check_obt_morphism, check_right_module,
                        check_right_module_coalgebra, check_skew_brace,
                        compose, cyclic, enumerate_skew_braces, functor_F,
                        functor_G, functor_P, functor_Q, gamma, group_algebra,
                        groups_of_order, linearize, load, mu_tilde,
                        obt_from_matched_pair, parse_field, phi, roundtrip_FG,
                        roundtrip_GF, roundtrip_PQ, roundtrip_QP, save,
                        symmetric_3, tensor)

from mutants import all_mutants
from test_brace import xor_brace
from test_groups import naive_skew_braces
from test_io import sample_objects
from test_matched import MP_EXPECTED_FAILURES
from test_obt import EXPECTED_FAILURES as OBT_EXPECTED_FAILURES

FIELDS = (parse_field("Q"), parse_field("Fp:5"))


def test_criterion_01_hopf_foundation_all_groups_both_fields():
    # every group algebra of order <= 8 over Q and F5 is a Hopf algebra
    # with the expected antipode properties; budget 10 s
    start = time.monotonic()
    checked = 0
    for order in range(1, 9):
        for g in groups_of_order(order):
            for field in FIELDS:
                h = group_algebra(g, field)
                assert check_hopf(h).ok, (g.label, field.name)
                assert check_antipode_properties(h).ok, (g.label, field.name)
                checked += 1
    assert checked == 28  # 14 isomorphism classes x 2 fields
    assert time.monotonic() - start < 10.0


def test_criterion_02_deformed_product_gives_a_hopf_algebra(corpus):
    # the deformed structure built from any valid triple is again Hopf,
    # whether the triple comes from a brace or from a matched pair
    for label, _, b in corpus:
        for t in (functor_Q(b), obt_from_matched_pair(functor_F(b))):
            assert check_hopf(build_deformed_hopf(t)).ok, label


def test_criterion_03_triple_to_brace_and_canonical_action(corpus):
    # P(t) is a Hopf brace and its canonical action composed with the
    # antipode on the acting leg recovers the triple's action map
    for label, _, b in corpus:
        t = functor_Q(b)
        p = functor_P(t)
        assert check_hopf_brace(p).ok, label
        id_h = LinMap.identity(b.field, b.space)
        assert gamma(p) == compose(t.action, tensor(t.hopf.antipode, id_h)), label


def test_criterion_04_enumeration_oracle_counts_and_linearization():
    # the enumerator terminates on every group of order <= 6, each result
    # survives an exhaustive n^3 compatibility recheck, linearizations are
    # Hopf braces, and labeled counts match the brute-force oracle for
    # n <= 4; budget 5 min
    start = time.monotonic()
    total = 0
    for order in range(1, 7):
        for g in groups_of_order(order):
            braces = enumerate_skew_braces(g)
            for s in braces:
                dot, circ = s.dot, s.circ
                inv = [dot.inverse(a) for a in range(order)]
                for a in range(order):
                    for b in range(order):
                        for c in range(order):
                            assert circ.mul(a, dot.mul(b, c)) == dot.mul(
                                dot.mul(circ.mul(a, b), inv[a]),
                                circ.mul(a, c)), (g.label, a, b, c)
                assert check_skew_brace(s).ok, g.label
                for field in FIELDS:
                    assert check_hopf_brace(linearize(s, field)).ok, g.label
            if order <= 4:
                naive = sorted(naive_skew_braces(g))
                assert [s.circ.table for s in braces] == naive, g.label
            total += len(braces)
    assert total == 20  # 1+1+1+2+4 + 1 + 2+8 labeled braces through order 6
    assert time.monotonic() - start < 300.0


def test_criterion_05_triple_roundtrips_are_exact(corpus):
    for label, _, b in corpus:
        assert roundtrip_PQ(b).ok, label
        assert roundtrip_QP(functor_Q(b)).ok, label


def test_criterion_06_matched_pair_equivalence(corpus):
    # F lands in diagonal matched pairs satisfying the interweaving
    # identity, both roundtrips are exact, and the canonical action of the
    # recovered brace is the pair's left action
    for label, _, b in corpus:
        m = functor_F(b)
        rep = check_mp_over_A(m)
        assert rep.ok, label
        assert rep.entry("interweaving_identity").passed, label
        assert roundtrip_FG(m).ok, label
        assert roundtrip_GF(b).ok, label
        assert gamma(functor_G(m)) == m.left_action, label


def test_criterion_07_pair_to_triple_factors_through_the_brace(corpus):
    # the direct triple of a diagonal matched pair equals the triple of
    # the brace it recovers, componentwise
    for label, _, b in corpus:
        m = functor_F(b)
        direct = obt_from_matched_pair(m)
        composite = functor_Q(functor_G(m))
        assert direct.hopf.unit == composite.hopf.unit, label
        assert direct.hopf.counit == composite.hopf.counit, label
        assert direct.hopf.coproduct == composite.hopf.coproduct, label
        assert direct.hopf.product == composite.hopf.product, label
        assert direct.hopf.antipode == composite.hopf.antipode, label
        assert direct.action == composite.action, label
        assert direct.involution == composite.involution, label


def test_criterion_08_derived_identity_suite(corpus):
    # antipode exchange under the action, both products recoverable from
    # the action, the original product recoverable from the deformed one,
    # and morphisms automatically commuting with antipodes, involutions
    # and actions
    for label, _, b in corpus:
        rep = check_brace_identities(b)
        assert rep.ok, label
        for name in ("action_antipode_exchange", "product2_from_action",
                     "product1_from_action"):
            assert rep.entry(name).passed, label
        t = functor_Q(b)
        lemma = check_lemma_mu_recovery(t)
        assert lemma.ok and lemma.entry("product_recovery").passed, label
        assert mu_tilde(t) == b.product1, label
        idm = LinMap.identity(b.field, b.space)
        assert check_hopf_morphism(
            idm, b.second(), b.second()).entry("derived.antipode").passed, label

    # nontrivial witnesses: a quotient map of group algebras, and the
    # doubling endomorphism of the xor brace seen at all three levels
    src = group_algebra(cyclic(4), QQ)
    dst = group_algebra(cyclic(2), QQ)
    red = LinMap(QQ, src.space, dst.space, {(i % 2, i): 1 for i in range(4)})
    hrep = check_hopf_morphism(red, src, dst)
    assert hrep.ok and hrep.entry("derived.antipode").passed

    _, xb = xor_brace()
    dbl = LinMap(QQ, xb.space, xb.space, {(2 * i % 4, i): 1 for i in range(4)})
    brep = check_brace_morphism(dbl, xb, xb)
    assert brep.ok and brep.entry("derived.action").passed
    xt = functor_Q(xb)
    trep = check_obt_morphism(dbl, xt, xt)
    assert trep.ok
    assert trep.entry("derived.involution").passed
    assert trep.entry("derived.deformed_product").passed


def test_criterion_09_module_structure_suite(corpus):
    # the canonical action makes the first structure a left module algebra
    # and module coalgebra over the second; the right action makes the
    # shared coalgebra a right module coalgebra
    for label, _, b in corpus:
        mod = LeftModuleData(hopf=b.second(), carrier=b.space, action=gamma(b))
        assert check_left_module(mod).ok, label
        assert check_module_algebra(mod, b.first().algebra).ok, label
        assert check_module_coalgebra(mod, b.first().coalgebra).ok, label
        rmod = RightModuleData(hopf=b.second(), carrier=b.space, action=phi(b))
        assert check_right_module(rmod).ok, label
        assert check_right_module_coalgebra(rmod, b.first().coalgebra).ok, label

    h = group_algebra(symmetric_3(), QQ)
    adj = adjoint_action(h)
    assert check_left_module(adj).ok
    assert check_module_algebra(adj, h.algebra).ok


# collateral entries in these sets are forced: the named axiom is the one
# the fixture corrupts, the others are consequences of the same corruption
# (see the sibling modules where the sets are derived entry by entry)
HOPF_LEVEL_EXPECTED = {
    "algebra": ["associativity"],
    "coalgebra": ["counit.left"],
    "antipode": ["antipode.left", "antipode.right"],
    "brace-compatibility": ["compatibility"],
}


def test_criterion_10_negative_controls():
    registry = all_mutants()
    assert len(registry) == 18
    seen = set()
    for family, intended, rep in registry:
        assert family not in seen
        seen.add(family)
        assert not rep.ok, family  # no fixture passes spuriously
        entry = rep.entry(intended)
        assert not entry.passed, family
        assert entry.witness is not None, family
        failed = [e.name for e in rep.failures()]
        if family.startswith("obt-"):
            expected = OBT_EXPECTED_FAILURES[family.split("-", 1)[1]]
        elif family.startswith("mp-"):
            expected = MP_EXPECTED_FAILURES[family.split("-", 1)[1]]
        else:
            expected = HOPF_LEVEL_EXPECTED[family]
        assert failed == expected, (family, failed)
        assert intended in failed, family


def test_criterion_11_io_closure_and_full_suite(tmp_path, corpus):
    # save -> load -> save is byte identical for every object kind and
    # every corpus brace, and the end-to-end suite over order <= 6 is green
    objects = list(sample_objects())
    objects.extend(b for _, _, b in corpus)
    for i, obj in enumerate(objects):
        p1 = tmp_path / f"a{i}.json"
        p2 = tmp_path / f"b{i}.json"
        save(obj, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # the child imports the same braceforge as this process
    src = str(Path(braceforge.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, BRACE_FORGE_THREADS="4", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "braceforge.cli", "suite", "--max-order", "6"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "suite: 28/28 pass (max order 6, field Q)"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_readme_quick_start_runs():
    # the README's Quick start block, run as written, so it cannot drift
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert block.count("assert ") == 4
    exec(compile(block, "README.md", "exec"), {})
