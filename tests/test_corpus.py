"""Corpus-level agreement: Q against Fp:5, the suite row against its
reference, and one order-8 brace per stratum.

Every structure constant of a linearized skew brace is an integer, and so
is every constant of its images under P, Q, F and G.  Reducing the Q maps
mod 5 must therefore give exactly the Fp:5 maps, and the suite verdicts
must not depend on the field.
"""
import dataclasses
import sys

from braceforge import (BraceForgeError, HopfBraceData, LeftModuleData,
                        LinMap, MatchedPairData, OppBraceTripleData,
                        PrimeField, SkewBraceData,
                        build_deformed_hopf, check_brace_identities,
                        check_hopf, check_hopf_brace, check_lemma_mu_recovery,
                        check_module_algebra, check_mp_over_A, check_obt,
                        enumerate_skew_braces, functor_F, functor_G, functor_P,
                        functor_Q, groups_of_order, linearize, mu_tilde,
                        obt_from_matched_pair, roundtrip_FG, roundtrip_GF,
                        roundtrip_PQ, roundtrip_QP)
from braceforge import linmap
from braceforge.brace import BRACE_MAPS
from braceforge.hopf import HOPF_MAPS
from braceforge.linmap import componentwise
from braceforge.matched import MP_EXTRA_MAPS
from braceforge.obt import OBT_EXTRA_MAPS
from braceforge.suite import row_verdicts

from mutants import reentry
from test_groups import _relabel
from test_memo import _doubled

F5 = PrimeField(5)


def _structure_maps(obj) -> dict[str, LinMap]:
    """Every structure map of a brace, triple or matched pair, by name."""
    if isinstance(obj, HopfBraceData):
        return {name: getattr(obj, name) for name in BRACE_MAPS}
    if isinstance(obj, OppBraceTripleData):
        parts = {"hopf": obj.hopf}
        extra = OBT_EXTRA_MAPS
    else:
        assert isinstance(obj, MatchedPairData)
        parts = {"first": obj.first, "second": obj.second}
        extra = MP_EXTRA_MAPS
    out = {f"{part}.{name}": getattr(h, name)
           for part, h in parts.items() for name in HOPF_MAPS}
    out.update((name, getattr(obj, name)) for name in extra)
    return out


def _mod5(m: LinMap) -> LinMap:
    """The Q map m reduced mod 5 entry by entry."""
    return LinMap(F5, m.domain, m.codomain,
                  {k: F5.mul(F5.coerce(v.numerator), F5.inv(v.denominator))
                   for k, v in m.items()})


def _images(b: HopfBraceData) -> dict[str, object]:
    t, m = functor_Q(b), functor_F(b)
    return {"brace": b, "Q": t, "F": m, "P": functor_P(t), "G": functor_G(m)}


def test_q_reduced_mod_5_is_fp5(corpus):
    by_label = {label: b for label, _, b in corpus}
    rows = [label[:-len(":Q")] for label in by_label if label.endswith(":Q")]
    assert len(rows) == 20  # the skew braces of order <= 6
    for row in rows:
        bq, bf = by_label[f"{row}:Q"], by_label[f"{row}:Fp:5"]
        over_f5 = _images(bf)
        for image, obj in _images(bq).items():
            expected = _structure_maps(over_f5[image])
            got = _structure_maps(obj)
            assert got.keys() == expected.keys()
            for name, m in got.items():
                assert _mod5(m) == expected[name], (row, image, name)
        verdicts = list(row_verdicts(bq))
        assert len(verdicts) == 13
        assert verdicts == list(row_verdicts(bf)), row


def _suite_brace_checks(b: HopfBraceData) -> list[tuple[str, bool]]:
    """The reference row: each verdict from the function that checks it,
    every image rebuilt where it is needed and every roundtrip read from
    its componentwise report."""
    out = []
    out.append(("brace", check_hopf_brace(b).ok))
    out.append(("identities", check_brace_identities(b).ok))
    m = functor_F(b)
    mp = check_mp_over_A(m)
    mod = LeftModuleData(hopf=m.second, carrier=b.space, action=m.left_action)
    mods_ok = (all(e.passed for e in mp.entries if e.name.startswith("i."))
               and check_module_algebra(mod, b.first().algebra).ok)
    out.append(("modules", mods_ok))
    t = functor_Q(b)
    out.append(("obt", check_obt(t).ok))
    out.append(("lemma", check_lemma_mu_recovery(t).ok))
    out.append(("deformed_hopf", check_hopf(build_deformed_hopf(t)).ok))
    out.append(("deformed_product", mu_tilde(t) == b.product1))
    out.append(("roundtrip_PQ", roundtrip_PQ(b).ok))
    out.append(("roundtrip_QP", roundtrip_QP(t).ok))
    out.append(("matched_pair", mp.ok))
    out.append(("roundtrip_FG", roundtrip_FG(m).ok))
    out.append(("roundtrip_GF", roundtrip_GF(b).ok))
    direct = obt_from_matched_pair(m)
    via_g = functor_Q(functor_G(m))
    out.append(("obt_from_mp", direct == via_g))
    return out


def test_row_verdicts_match_the_reference_row(corpus):
    assert len(corpus) == 40  # order <= 6 over Q and Fp:5
    for label, _, b in corpus:
        assert list(row_verdicts(b)) == _suite_brace_checks(b), label


def _outcome(row, b):
    """row(b) as a list of verdicts, or the class and message of the error
    it raised."""
    try:
        return list(row(b))
    except BraceForgeError as exc:
        return (type(exc), str(exc))


def test_row_fallbacks_agree_with_the_reference_row(corpus, monkeypatch):
    """On valid input P(Q(b)) == b and G(F(b)) == b, so the row never reads
    Q(P(Q(b))), F(G(F(b))) or Q(G(F(b))).  With P or G replaced, in the row
    and in the reference row alike, by a one-constant mutant of its image
    (not a brace) or by a relabeled brace, the row must still give what the
    reference row gives: the same verdicts, or the same error."""
    real_P, real_G = functor_P, functor_G

    def mutant_P(t):  # product1 stays: the reference reads mu_tilde(t)
        p = real_P(t)
        return dataclasses.replace(p, product2=_doubled(p.product2))

    def mutant_G(m):  # not cocommutative: F and Q raise different errors
        g = real_G(m)
        return dataclasses.replace(
            g, coproduct=reentry(g.coproduct, {(1, 0): g.field.one()}))

    package = [mod for name, mod in sys.modules.items()
               if name == "braceforge" or name.startswith("braceforge.")]
    seen = set()
    for label, s, b in corpus:
        if s.order not in (4, 6):
            continue
        shift = [(a + 1) % s.order for a in range(s.order)]
        rotated = linearize(SkewBraceData(
            _relabel(s.dot, shift), _relabel(s.circ, shift)), b.field)
        assert rotated != b
        for real, fake in ((real_P, mutant_P), (real_G, mutant_G),
                           (real_G, lambda m: rotated)):
            with monkeypatch.context() as patch:
                for mod in (*package, sys.modules[__name__]):
                    for attr, value in list(vars(mod).items()):
                        if value is real:
                            patch.setattr(mod, attr, fake)
                got = _outcome(row_verdicts, b)
                assert got == _outcome(_suite_brace_checks, b), (label, fake)
            if isinstance(got, list):
                assert [n for n, ok in got if not ok] == [
                    "roundtrip_FG", "roundtrip_GF", "obt_from_mp"], label
            seen.add((real.__name__, isinstance(got, tuple)))
    assert seen == {("functor_P", True), ("functor_G", True),
                    ("functor_G", False)}


def _with_part(x, part, inner):
    """x with its part replaced by inner (x is inner when part is None).  A
    diagonal matched pair's two Hopf components are one record, so
    replacing "first" replaces both."""
    if part is None:
        return inner
    if part == "first":
        return dataclasses.replace(x, first=inner, second=inner)
    return dataclasses.replace(x, **{part: inner})


def _variants(x, parts):
    """x, then for each (part, names) in parts: the part with other meta,
    and each named map of the part with its first nonzero constant doubled
    or deleted."""
    out = [x]
    for part, names in parts:
        inner = x if part is None else getattr(x, part)
        out.append(_with_part(x, part, dataclasses.replace(
            inner, meta={"label": "renamed"})))
        for name in names:
            m = getattr(inner, name)
            key, v = min(m.items())
            for value in (m.field.add(v, v), 0):
                out.append(_with_part(x, part, dataclasses.replace(
                    inner, **{name: reentry(m, {key: value})})))
    return out


def test_roundtrip_record_equality_is_the_componentwise_report(corpus):
    """The suite reads each roundtrip as rebuilt == original.  Against the
    original, its meta variants and its one-constant mutants, that must
    agree with the componentwise report the roundtrip functions give."""
    def brace_ok(x, y):
        return componentwise(x, y, BRACE_MAPS).ok

    def obt_ok(x, y):
        return (componentwise(x.hopf, y.hopf, HOPF_MAPS).ok
                and componentwise(x, y, OBT_EXTRA_MAPS).ok)

    def mp_ok(x, y):
        return (componentwise(x.first, y.first, HOPF_MAPS).ok
                and componentwise(x, y, MP_EXTRA_MAPS).ok)

    brace_parts = ((None, BRACE_MAPS),)
    seen = set()
    for label, s, b in corpus:
        if s.order not in (4, 6):
            continue
        t, m = functor_Q(b), functor_F(b)
        cases = (
            ("PQ", functor_P(t), b, brace_parts, brace_ok),
            ("QP", functor_Q(functor_P(t)), t,
             (("hopf", HOPF_MAPS), (None, OBT_EXTRA_MAPS)), obt_ok),
            ("FG", functor_F(functor_G(m)), m,
             (("first", HOPF_MAPS), (None, MP_EXTRA_MAPS)), mp_ok),
            ("GF", functor_G(m), b, brace_parts, brace_ok),
        )
        for which, rebuilt, original, parts, report_ok in cases:
            for y in _variants(original, parts):
                same = rebuilt == y
                assert same == report_ok(rebuilt, y), (label, which)
                seen.add((which, same))
    assert seen == {(which, same) for which in ("PQ", "QP", "FG", "GF")
                    for same in (True, False)}


def _element_orders(g) -> tuple[int, ...]:
    orders = []
    for a in range(g.order):
        k, x = 1, a
        while x != g.identity:
            x, k = g.mul(x, a), k + 1
        orders.append(k)
    return tuple(sorted(orders))


def test_order_8_corpus_one_brace_per_stratum():
    # A stratum is (dot group, circ group up to isomorphism); the five
    # groups of order 8 are told apart by their sorted element orders.
    # The first enumerated brace of each stratum is checked over Fp:5.
    strata = {}
    for g in groups_of_order(8):
        for s in enumerate_skew_braces(g):
            strata.setdefault((g.label, _element_orders(s.circ)), s)
    assert len(strata) == 22
    for key, s in strata.items():
        verdicts = list(row_verdicts(linearize(s, F5)))
        assert len(verdicts) == 13
        assert [name for name, ok in verdicts if not ok] == [], key


def test_order_8_row_builds_no_map_on_the_fourth_tensor_power(monkeypatch):
    # Every map a row needs lives on at most three tensor factors of the
    # carrier: legwise reads the braiding instead of padding it to H^(x)4.
    # From cold caches, so that no memoized map built earlier hides one.
    for name, mod in list(sys.modules.items()):
        if name == "braceforge" or name.startswith("braceforge."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    widest = []
    raw, init = linmap._raw, LinMap.__init__

    def counting_raw(field, domain, codomain, cols):
        widest.append(max(domain.dim, codomain.dim))
        return raw(field, domain, codomain, cols)

    def counting_init(self, field, domain, codomain, entries):
        widest.append(max(domain.dim, codomain.dim))
        init(self, field, domain, codomain, entries)

    monkeypatch.setattr(linmap, "_raw", counting_raw)
    monkeypatch.setattr(LinMap, "__init__", counting_init)
    s = enumerate_skew_braces(groups_of_order(8)[3])[-1]
    assert s.circ != s.dot
    b = linearize(s, F5)
    assert [name for name, ok in row_verdicts(b) if not ok] == []
    assert len(widest) > 100 and max(widest) <= 8 ** 3
