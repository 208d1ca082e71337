"""Opposite brace triples and the deformed Hopf algebra they induce.

A triple is a Hopf algebra A together with an action map m : A (x) A -> A
and an involution u : A -> A subject to eight axioms.  The action deforms
the product into

    mu~ = product o (id (x) m) o (coproduct (x) id)

and, for cocommutative A, (A, unit, mu~, counit, coproduct, u) is again a
Hopf algebra.  The assignment is functorial and inverse to extracting a
triple from a Hopf brace (functor_P / functor_Q below).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .brace import BRACE_MAPS, HopfBraceData, gamma, require_valid_brace
from .errors import ObtAxiomsFailed, PrereqFailed
from .hopf import (HOPF_MAPS, HopfAlgebraData, _check_maps,
                   check_hopf, check_hopf_morphism, deform,
                   require_cocommutative)
from .linmap import (LinMap, braiding, componentwise, compose, equation_entry,
                     legwise, tensor)
from .report import AxiomReport, memoize

# The structure maps a triple adds to its Hopf algebra.
OBT_EXTRA_MAPS = ("action", "involution")


@dataclass(frozen=True)
class OppBraceTripleData:
    hopf: HopfAlgebraData
    action: LinMap
    involution: LinMap
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_maps(self, OBT_EXTRA_MAPS, self.hopf.space.dim, self.field)

    @property
    def field(self):
        return self.hopf.field


def mu_tilde(t: OppBraceTripleData) -> LinMap:
    """The deformed product."""
    return deform(t.hopf.product, t.hopf.coproduct, t.action)


@memoize
def check_obt(t: OppBraceTripleData) -> AxiomReport:
    """The eight triple axioms, one report entry each.

    (i)    the action is a coalgebra morphism
    (ii)   acting by the unit is the identity
    (iii)  acting on the unit collapses to counit (x) unit
    (iv)   the action is a left module over the opposite product
    (v)    the action distributes over the deformed product
    (vi)   the involution is a coalgebra morphism
    (vii)  the involution squares to the identity
    (viii) acting along the diagonal on the involution recovers the antipode
    """
    h = t.hopf
    check_hopf(h).require(PrereqFailed, "triple axioms are gated on check_hopf")
    field, space = t.field, h.space
    id_a = LinMap.identity(field, space)
    swap = braiding(field, space, space)
    m, u = t.action, t.involution
    mt = mu_tilde(t)

    # (i) and (vi) report their counit half when it fails, else the coproduct half
    coalg = equation_entry(
        "i", compose(h.counit, m), tensor(h.counit, h.counit))
    if coalg.passed:
        coalg = equation_entry(
            "i",
            compose(h.coproduct, m),
            legwise(m, m, h.coproduct, h.coproduct))
    inv = equation_entry(
        "vi", compose(h.counit, u), h.counit)
    if inv.passed:
        inv = equation_entry(
            "vi", compose(h.coproduct, u), compose(tensor(u, u), h.coproduct))

    return AxiomReport((
        coalg,
        equation_entry(
            "ii", compose(m, tensor(h.unit, id_a)), id_a),
        equation_entry(
            "iii", compose(m, tensor(id_a, h.unit)), compose(h.unit, h.counit)),
        equation_entry(
            "iv",
            compose(m, tensor(id_a, m)),
            compose(m, tensor(compose(h.product, swap), id_a))),
        equation_entry(
            "v",
            compose(m, tensor(id_a, mt)),
            compose(mt, legwise(m, m, h.coproduct,
                                LinMap.identity(field, space.tensor(space))))),
        inv,
        equation_entry("vii", compose(u, u), id_a),
        equation_entry(
            "viii", compose(m, tensor(id_a, u), h.coproduct), h.antipode),
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
    return HopfBraceData(
        unit=h.unit, counit=h.counit, coproduct=h.coproduct,
        product1=mu_tilde(t), antipode1=t.involution,
        product2=h.product, antipode2=h.antipode)


def functor_P(t: OppBraceTripleData) -> HopfBraceData:
    """Triple to brace: first structure deformed, second the original;
    gated on cocommutativity and the triple axioms."""
    require_cocommutative(t.hopf, "deformation needs a cocommutative coproduct")
    require_valid_obt(t)
    return _deformation_brace(t)


def functor_Q(b: HopfBraceData) -> OppBraceTripleData:
    """Brace to triple: the second structure with the action
    m = gamma o (antipode2 (x) id) and involution antipode1."""
    require_cocommutative(
        b.first(), "triple extraction needs a cocommutative coproduct")
    require_valid_brace(b)
    id_h = LinMap.identity(b.field, b.space)
    action = compose(gamma(b), tensor(b.antipode2, id_h))
    return OppBraceTripleData(
        hopf=b.second(), action=action, involution=b.antipode1)


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
