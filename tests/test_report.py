"""AxiomReport: immutability, the require gate, and frozen report output.

The frozen digest covers str() and to_dict() of every checker and round-trip
report over the order <= 4 corpus on Q and Fp:5, of variants of each Fp:5
object with one structure constant doubled, of Cayley tables with one entry
moved, and the class, message and attached report of every gate exception
those inputs raise.  (report_lines(6, ("Q", "Fp:5")) is the same battery
at full size, with variants over both fields, frozen as well.)  It was taken
from a build in which every checker still filled a mutable report and
every gate was a hand-written check-then-raise block, so a rewrite of the
report layer cannot change a verdict, a witness or an entry name.
"""
import dataclasses
import hashlib
import json
import pickle

import pytest

from braceforge import (AxiomReport, BraceForgeError, CayleyTable, CheckEntry,
                        HopfAlgebraData, LinMap, LeftModuleData,
                        MatchedPairData,
                        OppBraceTripleData, PrimeField, QQ, RightModuleData,
                        SkewBraceData, adjoint_action, build_deformed_hopf,
                        check_antipode_properties, check_brace_identities,
                        check_brace_morphism, check_group, check_hopf,
                        check_hopf_brace, check_hopf_morphism,
                        check_left_module, check_lemma_mu_recovery,
                        check_matched_pair, check_module_algebra,
                        check_module_coalgebra, check_mp_morphism,
                        check_mp_over_A, check_obt, check_obt_morphism,
                        check_right_module, check_right_module_coalgebra,
                        check_skew_brace, enumerate_skew_braces, functor_F,
                        functor_G, functor_P, functor_Q, gamma, group_algebra,
                        groups_of_order, linearize, obt_from_matched_pair,
                        opposite_hopf, parse_field, phi, roundtrip_FG,
                        roundtrip_GF, roundtrip_PQ, roundtrip_QP, symmetric_3,
                        trivial_brace)
from braceforge.brace import BRACE_MAPS
from braceforge.errors import (BraceAxiomsFailed, MpAxiomsFailed, NotAGroup,
                               NotCocommutative, ObtAxiomsFailed, PrereqFailed,
                               SkewBraceAxiomsFailed)
from braceforge.hopf import HOPF_MAPS
from braceforge.matched import MP_EXTRA_MAPS
from braceforge.obt import OBT_EXTRA_MAPS

from mutants import dual_group_hopf, trivial_left_action, trivial_right_action
from oracles import group_tables

F5 = PrimeField(5)

# sha256 of report_lines(4), frozen from the build described above
GOLDEN_REPORTS_SHA256 = "1430f21e410c88c620731579ad1861e35d68140f394de6e05249d7f4936ae33a"
# sha256 of report_lines(6, ("Q", "Fp:5")), the full-size battery every
# LinMap fast path is held to
GOLDEN_REPORTS_6_SHA256 = "c41e0cfefa32f31ac0c5803ada9637f810336e3b36b4b19abfefa3d6a50a79fa"
# sha256 of report_lines(8, ("Q", "Fp:5")): the same battery to order 8,
# about two minutes on 2 cores, so it runs only under `-m slow`
GOLDEN_REPORTS_8_SHA256 = "22882920caa1b1c956fcf14618f9b13c338fc35cd0a3ba0f89140e0552eae497"


# ---------------------------------------------------------------------------
# the report battery

def doubled(m: LinMap) -> LinMap:
    """m with its first nonzero constant, in column-then-row order, doubled."""
    (i, j), v = min(m.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    entries = dict(m.items())
    entries[(i, j)] = m.field.add(v, v)
    return LinMap(m.field, m.domain, m.codomain, entries)


def _hopf_with(h, name: str):
    maps = {n: getattr(h, n) for n in HOPF_MAPS}
    maps[name] = doubled(maps[name])
    return HopfAlgebraData(**maps)


def _render(rep) -> str:
    return f"{rep}\n{json.dumps(rep.to_dict())}"


class _Battery:
    """Collects one text record per call: its report, its result type, or
    the class, message and attached report of the exception it raised."""

    def __init__(self):
        self.lines: list[str] = []

    def run(self, label: str, thunk):
        try:
            result = thunk()
        except BraceForgeError as exc:
            self.lines.append(f"{label}: {type(exc).__name__}: {exc}")
            report = getattr(exc, "report", None)
            if report is not None:
                self.lines.append(_render(report))
            return None
        if isinstance(result, AxiomReport):
            self.lines.append(f"{label}:\n{_render(result)}")
        else:
            self.lines.append(f"{label}: {type(result).__name__}")
        return result

    def brace(self, label: str, b, intact: bool, variants: bool = False) -> None:
        run = self.run
        h1, h2 = b.first(), b.second()
        run(f"{label} hopf1", lambda: check_hopf(h1))
        run(f"{label} hopf2", lambda: check_hopf(h2))
        run(f"{label} antipode1", lambda: check_antipode_properties(h1))
        run(f"{label} antipode2", lambda: check_antipode_properties(h2))
        run(f"{label} trivial_brace", lambda: trivial_brace(h1))
        adj = run(f"{label} adjoint", lambda: adjoint_action(h2))
        if adj is not None:
            run(f"{label} adjoint module", lambda: check_left_module(adj))
        run(f"{label} brace", lambda: check_hopf_brace(b))
        run(f"{label} identities", lambda: check_brace_identities(b))
        mod = LeftModuleData(hopf=h2, carrier=b.space, action=gamma(b))
        run(f"{label} left_module", lambda: check_left_module(mod))
        run(f"{label} module_algebra",
            lambda: check_module_algebra(mod, h1.algebra))
        run(f"{label} module_coalgebra",
            lambda: check_module_coalgebra(mod, h1.coalgebra))
        ph = run(f"{label} phi", lambda: phi(b))
        if ph is not None:
            rmod = RightModuleData(hopf=h2, carrier=b.space, action=ph)
            run(f"{label} right_module", lambda: check_right_module(rmod))
            run(f"{label} right_module_coalgebra",
                lambda: check_right_module_coalgebra(rmod, h1.coalgebra))
        run(f"{label} PQ", lambda: roundtrip_PQ(b))
        run(f"{label} GF", lambda: roundtrip_GF(b))
        t = run(f"{label} Q", lambda: functor_Q(b))
        m = run(f"{label} F", lambda: functor_F(b))
        if not intact:
            return
        ident = LinMap.identity(b.field, b.space)
        run(f"{label} hopf_morphism", lambda: check_hopf_morphism(ident, h1, h1))
        run(f"{label} brace_morphism", lambda: check_brace_morphism(ident, b, b))
        if t is not None:
            self.triple(f"{label} Q", t, intact=True)
        if m is not None:
            self.pair(f"{label} F", m, intact=True)
        if not variants:
            return
        if t is not None:
            for name in HOPF_MAPS:
                broken = dataclasses.replace(t, hopf=_hopf_with(t.hopf, name))
                self.triple(f"{label} Q {name}*2", broken, intact=False)
            for name in OBT_EXTRA_MAPS:
                broken = dataclasses.replace(
                    t, **{name: doubled(getattr(t, name))})
                self.triple(f"{label} Q {name}*2", broken, intact=False)
        if m is not None:
            for name in HOPF_MAPS:
                h = _hopf_with(m.first, name)
                broken = dataclasses.replace(m, first=h, second=h)
                self.pair(f"{label} F {name}*2", broken, intact=False)
            for name in MP_EXTRA_MAPS:
                broken = dataclasses.replace(
                    m, **{name: doubled(getattr(m, name))})
                self.pair(f"{label} F {name}*2", broken, intact=False)
        for name in BRACE_MAPS:
            broken = dataclasses.replace(b, **{name: doubled(getattr(b, name))})
            self.brace(f"{label} {name}*2", broken, intact=False)

    def triple(self, label: str, t, intact: bool) -> None:
        run = self.run
        run(f"{label} obt", lambda: check_obt(t))
        run(f"{label} lemma", lambda: check_lemma_mu_recovery(t))
        d = run(f"{label} deformed", lambda: build_deformed_hopf(t))
        if d is not None:
            run(f"{label} deformed hopf", lambda: check_hopf(d))
        run(f"{label} QP", lambda: roundtrip_QP(t))
        if intact:
            ident = LinMap.identity(t.field, t.hopf.space)
            run(f"{label} obt_morphism", lambda: check_obt_morphism(ident, t, t))
        else:  # the gate alone; the round trip covers the construction
            run(f"{label} P", lambda: functor_P(t))

    def pair(self, label: str, m, intact: bool) -> None:
        run = self.run
        run(f"{label} matched_pair", lambda: check_matched_pair(m))
        run(f"{label} mp_over_A", lambda: check_mp_over_A(m))
        run(f"{label} FG", lambda: roundtrip_FG(m))
        if intact:
            ident = LinMap.identity(m.field, m.first.space)
            run(f"{label} mp_morphism",
                lambda: check_mp_morphism(ident, ident, m, m))
        else:  # the gates alone; the round trip covers the constructions
            run(f"{label} G", lambda: functor_G(m))
            run(f"{label} obt_from_mp", lambda: obt_from_matched_pair(m))

    def groups(self, g) -> None:
        run, n = self.run, g.order
        for i, circ in enumerate(group_tables(n, g.identity)):
            s = SkewBraceData(g, circ)
            run(f"{g.label} circ{i} skew_brace", lambda: check_skew_brace(s))
            run(f"{g.label} circ{i} linearize", lambda: linearize(s, F5))
        # one table entry moved in the last row and in the identity row
        last = n - 1
        for a, c in [(last, c) for c in range(n)] + [(g.identity, last)]:
            rows = [list(r) for r in g.table]
            rows[a][c] = (rows[a][c] + 1) % n
            bad = CayleyTable(rows, g.identity)
            label = f"{g.label} cell({a},{c})"
            run(f"{label} group", lambda: check_group(bad))
            run(f"{label} group_algebra", lambda: group_algebra(bad, F5))
            run(f"{label} enumerate", lambda: enumerate_skew_braces(bad))
            run(f"{label} dot", lambda: check_skew_brace(SkewBraceData(bad, g)))
            run(f"{label} circ", lambda: check_skew_brace(SkewBraceData(g, bad)))


def report_lines(max_order: int, variant_specs=("Fp:5",)) -> list[str]:
    """Records for the corpus of order <= max_order on Q and Fp:5, with
    broken variants of the objects over the fields in variant_specs."""
    battery = _Battery()
    for order in range(1, max_order + 1):
        for g in groups_of_order(order):
            if order > 1:
                battery.groups(g)
            for i, s in enumerate(enumerate_skew_braces(g)):
                for spec in ("Q", "Fp:5"):
                    b = linearize(s, parse_field(spec))
                    battery.brace(f"{g.label}#{i}:{spec}", b, intact=True,
                                  variants=spec in variant_specs)
    return battery.lines


def test_reports_and_gate_errors_are_frozen():
    text = "\n".join(report_lines(4))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_SHA256


def test_order_6_reports_over_both_fields_are_frozen():
    text = "\n".join(report_lines(6, ("Q", "Fp:5")))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_6_SHA256


@pytest.mark.slow
def test_order_8_reports_over_both_fields_are_frozen():
    text = "\n".join(report_lines(8, ("Q", "Fp:5")))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORTS_8_SHA256


def test_cocommutativity_gates_are_frozen():
    # The digest above never reaches these gates: a doubled constant of a
    # group-like coproduct leaves it cocommutative.  Class and message of
    # every call path, frozen from the build in which each gate was a
    # hand-written is_cocommutative check.
    h = dual_group_hopf(symmetric_3(), QQ)
    act = trivial_left_action(h, h.space)
    t = OppBraceTripleData(hopf=h, action=act, involution=h.antipode)
    b = trivial_brace(h)
    m = MatchedPairData(first=h, second=h, left_action=act,
                        right_action=trivial_right_action(h.space, h))
    deformation = "deformation needs a cocommutative coproduct"
    extraction = "triple extraction needs a cocommutative coproduct"
    diagonal = "diagonal matched pairs need a cocommutative coproduct"
    pair = "matched pair extraction needs cocommutativity"
    cases = [
        (opposite_hopf, h, "opposite product needs a cocommutative coproduct"),
        (build_deformed_hopf, t, deformation),
        (functor_P, t, deformation),
        (roundtrip_QP, t, deformation),
        (check_lemma_mu_recovery, t,
         "recovery lemma needs a cocommutative coproduct"),
        (functor_Q, b, extraction),
        (roundtrip_PQ, b, extraction),
        (phi, b, "phi needs a cocommutative coproduct"),
        (functor_F, b, pair),
        (roundtrip_GF, b, pair),
        (check_mp_over_A, m, diagonal),
        (functor_G, m, diagonal),
        (obt_from_matched_pair, m, diagonal),
        (roundtrip_FG, m, diagonal),
    ]
    for func, arg, message in cases:
        with pytest.raises(BraceForgeError) as info:
            func(arg)
        assert (type(info.value), str(info.value)) == \
            (NotCocommutative, message), func.__name__


# ---------------------------------------------------------------------------
# immutability and the gate

def _sample() -> AxiomReport:
    return AxiomReport((CheckEntry("a", True),
                        CheckEntry("b", False, {"kind": "entry", "row": 0})))


def test_reports_are_immutable():
    rep = _sample()
    assert isinstance(rep.entries, tuple)
    assert isinstance(AxiomReport([CheckEntry("a", True)]).entries, tuple)
    assert AxiomReport().entries == ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.entries = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.extra = 1
    for name in ("add", "append", "merge"):
        assert not hasattr(rep, name)
    assert isinstance(check_hopf(group_algebra(groups_of_order(3)[0], QQ)).entries,
                      tuple)


def test_witnesses_are_read_only_and_shared():
    h = group_algebra(groups_of_order(3)[0], QQ)
    broken = dataclasses.replace(h, antipode=LinMap.identity(QQ, h.space))
    rep = check_hopf(broken)
    wit = rep.entry("antipode.left").witness
    with pytest.raises(TypeError):
        wit["col"] = 7
    with pytest.raises(TypeError):
        del wit["kind"]
    assert check_hopf(broken).entry("antipode.left").witness is wit
    assert check_hopf(dataclasses.replace(broken, meta={"label": "copy"})
                      ).entry("antipode.left").witness is wit
    doc = rep.to_dict()
    assert all(type(e["witness"]) is dict for e in doc["entries"]
               if not e["passed"])
    doc["entries"][-1]["witness"]["col"] = 7  # a copy: the report is unchanged
    assert rep.to_dict() != doc and pickle.loads(pickle.dumps(rep)) == rep
    source = {"kind": "entry", "row": 0}
    entry = CheckEntry("b", False, source)
    source["row"] = 5
    assert entry.witness == {"kind": "entry", "row": 0}


def test_prefixed_renames_a_copy():
    rep = _sample()
    before = (str(rep), rep.to_dict())
    out = rep.prefixed("first.")
    assert isinstance(out, tuple)
    assert [e.name for e in out] == ["first.a", "first.b"]
    assert [(e.passed, e.witness) for e in out] == \
        [(e.passed, e.witness) for e in rep.entries]
    assert (str(rep), rep.to_dict()) == before
    with pytest.raises(KeyError) as missing:
        rep.entry("first.a")
    assert missing.value.args == ("first.a",)


@pytest.mark.parametrize("exc_type", [PrereqFailed, NotAGroup, BraceAxiomsFailed,
                                      ObtAxiomsFailed, MpAxiomsFailed,
                                      SkewBraceAxiomsFailed])
def test_require_raises_with_the_same_report(exc_type):
    rep = _sample()
    with pytest.raises(exc_type) as info:
        rep.require(exc_type, "gate closed")
    assert type(info.value) is exc_type
    assert str(info.value) == "gate closed"
    assert info.value.report is rep


def test_require_passes_silently():
    rep = AxiomReport((CheckEntry("a", True),))
    assert rep.require(PrereqFailed, "unused") is None
    assert AxiomReport().require(PrereqFailed, "unused") is None
