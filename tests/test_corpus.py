"""Corpus-level agreement: Q against Fp:5, and one order-8 brace per stratum.

Every structure constant of a linearized skew brace is an integer, and so
is every constant of its images under P, Q, F and G.  Reducing the Q maps
mod 5 must therefore give exactly the Fp:5 maps, and the suite verdicts
must not depend on the field.
"""
from braceforge import (HopfBraceData, LinMap, MatchedPairData,
                        OppBraceTripleData, PrimeField, enumerate_skew_braces,
                        functor_F, functor_G, functor_P, functor_Q,
                        groups_of_order, linearize)
from braceforge.brace import BRACE_MAPS
from braceforge.cli import _suite_brace_checks
from braceforge.hopf import HOPF_MAPS
from braceforge.matched import MP_EXTRA_MAPS
from braceforge.obt import OBT_EXTRA_MAPS

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
        verdicts = _suite_brace_checks(bq)
        assert len(verdicts) == 13
        assert verdicts == _suite_brace_checks(bf), row


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
        verdicts = _suite_brace_checks(linearize(s, F5))
        assert len(verdicts) == 13
        assert [name for name, ok in verdicts if not ok] == [], key
