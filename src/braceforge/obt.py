"""Opposite brace triples and the deformed Hopf algebra they induce.

A triple is a Hopf algebra A together with an action map m : A (x) A -> A
and an involution u : A -> A subject to eight axioms; (i)-(v) are the
action laws of actions.py for m over A with the opposite product.  The
action deforms the product into

    mu~ = product o (id (x) m) o (coproduct (x) id)

and, for cocommutative A, (A, unit, mu~, counit, coproduct, u) is again a
Hopf algebra.  The assignment is functorial and inverse to extracting a
triple from a Hopf brace (functor_P / functor_Q below).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (LeftModuleData, _carrier_product_law, _carrier_unit_law,
                      _coproduct_law, _counit_law, _interchange, _product_law,
                      _unit_law)
from .brace import BRACE_MAPS, HopfBraceData, _q_action, require_valid_brace
from .errors import ObtAxiomsFailed, PrereqFailed
from .hopf import (HOPF_MAPS, HopfAlgebraData, _opposite_product, _Record,
                   check_hopf, check_hopf_morphism, deform, require_cocommutative)
from .linmap import LinMap, Space, componentwise, compose, equation_entry, tensor
from .report import AxiomReport, memoize

# The structure maps a triple adds to its Hopf algebra.
OBT_EXTRA_MAPS = ("action", "involution")


@dataclass(frozen=True)
class OppBraceTripleData(_Record):
    hopf: HopfAlgebraData
    action: LinMap
    involution: LinMap
    meta: dict | None = field(default=None, compare=False)

    _MAPS = OBT_EXTRA_MAPS

    @property
    def space(self) -> Space:
        return self.hopf.space

    @property
    def field(self):
        return self.hopf.field


@memoize
def mu_tilde(t: OppBraceTripleData) -> LinMap:
    """The deformed product."""
    return deform(t.hopf.product, t.hopf.coproduct, t.action)


@memoize
def check_obt(t: OppBraceTripleData) -> AxiomReport:
    """The eight triple axioms, one report entry each.

    (i)    the action is a coalgebra morphism (module coalgebra)
    (ii)   acting by the unit is the identity (module)
    (iii)  acting on the unit collapses to counit (x) unit (module algebra)
    (iv)   the action is a left module over the opposite product (module)
    (v)    the action distributes over the deformed product (module algebra)
    (vi)   the involution is a coalgebra morphism
    (vii)  the involution squares to the identity
    (viii) acting along the diagonal on the involution recovers the antipode
    """
    h = t.hopf
    check_hopf(h).require(PrereqFailed, "triple axioms are gated on check_hopf")
    id_a = LinMap.identity(t.field, h.space)
    m, u = t.action, t.involution
    # A^op without opposite_hopf's cocommutativity gate; no module law reads the antipode
    op = HopfAlgebraData(h.unit, _opposite_product(h.product), h.counit, h.coproduct,
                         h.antipode)
    mod = LeftModuleData(hopf=op, carrier=h.space, action=m)

    # (i) and (vi) report their counit half when it fails, else the coproduct half
    coalg = _counit_law(mod, h.counit, "i")
    if coalg.passed:
        coalg = _coproduct_law(mod, h.coproduct, "i")
    inv = equation_entry("vi", compose(h.counit, u), h.counit)
    if inv.passed:
        inv = equation_entry(
            "vi", compose(h.coproduct, u), compose(tensor(u, u), h.coproduct))

    return AxiomReport((
        coalg,
        _unit_law(mod, "ii"),
        _carrier_unit_law(mod, h.unit, "iii"),
        _product_law(mod, "iv"),
        _carrier_product_law(mod, mu_tilde(t), _interchange(mod), m, "v"),
        inv,
        equation_entry("vii", compose(u, u), id_a),
        equation_entry("viii", compose(m, tensor(id_a, u), h.coproduct), h.antipode),
    ))


def require_valid_obt(t: OppBraceTripleData) -> None:
    check_obt(t).require(ObtAxiomsFailed, "opposite brace triple axioms fail")


def build_deformed_hopf(t: OppBraceTripleData) -> HopfAlgebraData:
    """The Hopf algebra with the deformed product and the involution as
    antipode; gated on the triple axioms and cocommutativity."""
    return functor_P(t).first()


def check_lemma_mu_recovery(t: OppBraceTripleData) -> AxiomReport:
    """The original product recovered from the deformed one:
    product = mu~ o (id (x) (m o (antipode (x) id))) o (coproduct (x) id).

    Gated on valid cocommutative Hopf data only; the triple axioms are
    reported elsewhere, so a broken action yields a failed entry here
    rather than an exception.
    """
    h = t.hopf
    check_hopf(h).require(PrereqFailed, "recovery lemma is gated on check_hopf")
    require_cocommutative(h, "recovery lemma needs a cocommutative coproduct")
    id_a = LinMap.identity(t.field, h.space)
    recovered = deform(mu_tilde(t), h.coproduct,
                       compose(t.action, tensor(h.antipode, id_a)))
    return AxiomReport((equation_entry("product_recovery", h.product, recovered),))


# ---------------------------------------------------------------------------
# functors between triples and braces

def _deformation_brace(t: OppBraceTripleData) -> HopfBraceData:
    """The brace whose first structure is deformed along the action, with
    the involution as antipode, and whose second is the original; ungated,
    so callers verify t first."""
    h = t.hopf
    return HopfBraceData.of(HopfAlgebraData(h.unit, mu_tilde(t), h.counit,
                                            h.coproduct, t.involution), h)


@memoize
def functor_P(t: OppBraceTripleData) -> HopfBraceData:
    """Triple to brace: first structure deformed, second the original;
    gated on cocommutativity and the triple axioms."""
    require_cocommutative(t.hopf, "deformation needs a cocommutative coproduct")
    require_valid_obt(t)
    return _deformation_brace(t)


@memoize
def functor_Q(b: HopfBraceData) -> OppBraceTripleData:
    """Brace to triple: the second structure with the action
    m = gamma o (antipode2 (x) id) and involution antipode1."""
    require_cocommutative(
        b.first(), "triple extraction needs a cocommutative coproduct")
    require_valid_brace(b)
    return OppBraceTripleData(
        hopf=b.second(), action=_q_action(b), involution=b.antipode1)


def roundtrip_PQ(b: HopfBraceData) -> AxiomReport:
    """Componentwise equality of b and P(Q(b))."""
    return componentwise(functor_P(functor_Q(b)), b, BRACE_MAPS)


def roundtrip_QP(t: OppBraceTripleData) -> AxiomReport:
    """Componentwise equality of t and Q(P(t))."""
    back = functor_Q(functor_P(t))
    return AxiomReport(componentwise(back.hopf, t.hopf, HOPF_MAPS).entries
                       + componentwise(back, t, OBT_EXTRA_MAPS).entries)


def check_obt_morphism(f: LinMap, src: OppBraceTripleData,
                       dst: OppBraceTripleData) -> AxiomReport:
    """f is a Hopf morphism intertwining the actions; compatibility with
    the deformed product and the involutions follows and is reported as
    derived."""
    ff = tensor(f, f)
    return AxiomReport((
        *check_hopf_morphism(f, src.hopf, dst.hopf).prefixed("hopf."),
        equation_entry(
            "action", compose(f, src.action), compose(dst.action, ff)),
        equation_entry(
            "derived.deformed_product",
            compose(f, mu_tilde(src)), compose(mu_tilde(dst), ff)),
        equation_entry(
            "derived.involution",
            compose(dst.involution, f), compose(f, src.involution)),
    ))
