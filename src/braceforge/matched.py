"""Matched pairs of Hopf algebras and their equivalence with Hopf braces.

A matched pair is two Hopf algebras with a left action of the second on
the first and a right action of the first on the second, compatible
through the interweaving map psi.  Axioms (i)-(v) are the action laws of
actions.py for both modules, each carrier with its own algebra; in
(iv)/(v) psi is the interchange that passes a coproduct leg past the
carrier.  The diagonal subcategory (both Hopf components equal, cocommutative,
product absorbed by psi) is equivalent to Hopf braces via functor_F / functor_G.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .actions import (LeftModuleData, RightModuleData, _carrier_product_law,
                      _carrier_unit_law, check_left_module, check_module_coalgebra,
                      check_right_module, check_right_module_coalgebra)
from .brace import BRACE_MAPS, HopfBraceData, gamma, phi, require_valid_brace
from .errors import MpAxiomsFailed, NotDiagonal, PrereqFailed
from .hopf import (HOPF_MAPS, HopfAlgebraData, _check_map,
                   check_hopf, check_hopf_morphism, require_cocommutative)
from .linmap import (LinMap, braiding, componentwise, compose, equation_entry,
                     legwise, tensor)
from .obt import OppBraceTripleData, _deformation_brace
from .report import AxiomReport, memoize

# The structure maps a matched pair adds to its two Hopf algebras.
MP_EXTRA_MAPS = ("left_action", "right_action")


def _action_shapes(na: int, nh: int) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each action; both act on second (x) first."""
    return dict(zip(MP_EXTRA_MAPS, ((na, nh * na), (nh, nh * na))))


@dataclass(frozen=True)
class MatchedPairData:
    """first is acted on from the left, second from the right:
    left_action : second (x) first -> first,
    right_action : second (x) first -> second."""

    first: HopfAlgebraData
    second: HopfAlgebraData
    left_action: LinMap
    right_action: LinMap
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        na, nh, field = self.first.space.dim, self.second.space.dim, self.first.field
        _check_map(self.second.unit, (nh, 1), field, "second")
        for name, shape in _action_shapes(na, nh).items():
            _check_map(getattr(self, name), shape, field, name.replace("_", " "))

    @property
    def field(self):
        return self.first.field


@memoize
def psi(m: MatchedPairData) -> LinMap:
    """The interweaving map second (x) first -> first (x) second,
    psi(h (x) a) = (h_1 |> a_1) (x) (h_2 <| a_2), |> = left_action, <| = right_action."""
    return legwise(m.left_action, m.right_action,
                   m.second.coproduct, m.first.coproduct)


def check_matched_pair(m: MatchedPairData) -> AxiomReport:
    """The six matched pair axioms.

    (i)   module coalgebra structures on both sides
    (ii)  the left action fixes the unit
    (iii) the right action by the unit collapses
    (iv)  the left action distributes over the product through psi
    (v)   the right action distributes over the product through psi
    (vi)  psi braids the two actions
    """
    a, h, field, ps = m.first, m.second, m.field, psi(m)
    for name, component in (("first", a), ("second", h)):
        check_hopf(component).require(
            PrereqFailed, f"{name} component fails the Hopf axioms")
    axiom_i, units, products = [], [], []
    for mod, carrier, check, check_coalgebra, unit_axiom, product_axiom in (
            (LeftModuleData(hopf=h, carrier=a.space, action=m.left_action), a,
             check_left_module, check_module_coalgebra, "ii", "iv"),
            (RightModuleData(hopf=a, carrier=h.space, action=m.right_action), h,
             check_right_module, check_right_module_coalgebra, "iii", "v")):
        prefix = f"i.{mod._side}_module."
        rep = check(mod)
        axiom_i += rep.prefixed(prefix)
        if rep.ok:
            axiom_i += check_coalgebra(mod, carrier.coalgebra).prefixed(prefix)
        units.append(_carrier_unit_law(mod, carrier.unit, unit_axiom))
        products.append(_carrier_product_law(
            mod, carrier.product, ps, mod.action, product_axiom))
    braids = equation_entry(
        "vi",
        compose(braiding(field, a.space, h.space), ps),
        legwise(m.right_action, m.left_action, h.coproduct, a.coproduct))
    return AxiomReport((*axiom_i, *units, *products, braids))


@memoize
def check_mp_over_A(m: MatchedPairData) -> AxiomReport:
    """Matched pair axioms plus the diagonal interweaving identity
    product = product o psi; both Hopf components must coincide and be
    cocommutative."""
    if m.first != m.second:
        raise NotDiagonal("both Hopf components must have equal structure constants")
    require_cocommutative(
        m.first, "diagonal matched pairs need a cocommutative coproduct")
    base = check_matched_pair(m)
    interweaving = equation_entry(
        "interweaving_identity",
        m.first.product,
        compose(m.first.product, psi(m)))
    return AxiomReport((*base.entries, interweaving))


def require_valid_mp_over_A(m: MatchedPairData) -> None:
    check_mp_over_A(m).require(MpAxiomsFailed, "diagonal matched pair axioms fail")


# ---------------------------------------------------------------------------
# functors between braces and diagonal matched pairs

@memoize
def functor_F(b: HopfBraceData) -> MatchedPairData:
    """Brace to diagonal matched pair: the second structure acting on
    itself by gamma (left) and phi (right)."""
    require_cocommutative(
        b.first(), "matched pair extraction needs cocommutativity")
    require_valid_brace(b)
    h2 = b.second()
    return MatchedPairData(
        first=h2, second=h2, left_action=gamma(b), right_action=phi(b))


@memoize
def functor_G(m: MatchedPairData) -> HopfBraceData:
    """Diagonal matched pair to brace: the deformation brace (functor_P's
    construction) of the triple the pair induces."""
    return _deformation_brace(obt_from_matched_pair(m))


def roundtrip_FG(m: MatchedPairData) -> AxiomReport:
    """Componentwise equality of m and F(G(m))."""
    back = functor_F(functor_G(m))
    return AxiomReport(componentwise(back.first, m.first, HOPF_MAPS).entries
                       + componentwise(back, m, MP_EXTRA_MAPS).entries)


def roundtrip_GF(b: HopfBraceData) -> AxiomReport:
    """Componentwise equality of b and G(F(b))."""
    return componentwise(functor_G(functor_F(b)), b, BRACE_MAPS)


@memoize
def obt_from_matched_pair(m: MatchedPairData) -> OppBraceTripleData:
    """The opposite brace triple induced directly by a diagonal matched
    pair: action = left_action o (antipode (x) id), involution =
    left_action o (id (x) antipode) o coproduct."""
    require_valid_mp_over_A(m)
    a, field = m.first, m.field
    id_a = LinMap.identity(field, a.space)
    action = compose(m.left_action, tensor(a.antipode, id_a))
    involution = compose(m.left_action, tensor(id_a, a.antipode), a.coproduct)
    return OppBraceTripleData(hopf=a, action=action, involution=involution)


def check_mp_morphism(f: LinMap, g: LinMap, src: MatchedPairData,
                      dst: MatchedPairData) -> AxiomReport:
    """(f, g) intertwines both Hopf structures and both actions."""
    return AxiomReport((
        *check_hopf_morphism(f, src.first, dst.first).prefixed("first."),
        *check_hopf_morphism(g, src.second, dst.second).prefixed("second."),
        equation_entry(
            "left_action",
            compose(f, src.left_action), compose(dst.left_action, tensor(g, f))),
        equation_entry(
            "right_action",
            compose(g, src.right_action), compose(dst.right_action, tensor(g, f))),
    ))
