"""Module actions of a Hopf algebra and their compatibility checkers.

A left module is an action H (x) M -> M; a right module acts from the
other side, M (x) H -> M.  Module-algebra and module-coalgebra checks
verify that a carrier algebra or coalgebra structure is respected, using
the diagonal action on tensor squares built from the coproduct of the
acting Hopf algebra and the explicit braiding.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch, PrereqFailed
from .hopf import AlgebraData, CoalgebraData, HopfAlgebraData, _check_map, check_hopf
from .linmap import (LinMap, Space, braiding, compose, equation_entry,
                     interchange, tensor)
from .report import AxiomReport


@dataclass(frozen=True)
class _ModuleData:
    hopf: HopfAlgebraData
    carrier: Space
    action: LinMap

    def __post_init__(self):
        h, m = self.hopf.space.dim, self.carrier.dim
        if self.action.codomain != self.carrier:
            raise DimensionMismatch(f"carrier has dimension {m}, but the {self._what} "
                                    f"lands in dimension {self.action.codomain.dim}")
        _check_map(self.action, (m, h * m), self.hopf.field, self._what)


class LeftModuleData(_ModuleData):
    _what = "left action"  # hopf (x) carrier -> carrier


class RightModuleData(_ModuleData):
    _what = "right action"  # carrier (x) hopf -> carrier


def check_left_module(m: LeftModuleData) -> AxiomReport:
    h, field = m.hopf, m.hopf.field
    id_m = LinMap.identity(field, m.carrier)
    id_h = LinMap.identity(field, h.space)
    return AxiomReport((
        equation_entry(
            "action.unit", compose(m.action, tensor(h.unit, id_m)), id_m),
        equation_entry(
            "action.product",
            compose(m.action, tensor(id_h, m.action)),
            compose(m.action, tensor(h.product, id_m))),
    ))


def check_right_module(m: RightModuleData) -> AxiomReport:
    h, field = m.hopf, m.hopf.field
    id_m = LinMap.identity(field, m.carrier)
    id_h = LinMap.identity(field, h.space)
    return AxiomReport((
        equation_entry(
            "action.unit", compose(m.action, tensor(id_m, h.unit)), id_m),
        equation_entry(
            "action.product",
            compose(m.action, tensor(m.action, id_h)),
            compose(m.action, tensor(id_m, h.product))),
    ))


def left_tensor_square_action(m: LeftModuleData) -> LinMap:
    """Diagonal action of H on M (x) M: act on both factors through the coproduct."""
    h, field = m.hopf, m.hopf.field
    id_m = LinMap.identity(field, m.carrier)
    return compose(
        tensor(m.action, m.action),
        interchange(field, h.space, m.carrier),
        tensor(h.coproduct, id_m, id_m))


def right_tensor_square_action(m: RightModuleData) -> LinMap:
    """Diagonal action of H on M (x) M from the right."""
    h, field = m.hopf, m.hopf.field
    id_m = LinMap.identity(field, m.carrier)
    return compose(
        tensor(m.action, m.action),
        interchange(field, m.carrier, h.space),
        tensor(id_m, id_m, h.coproduct))


def check_module_algebra(m: LeftModuleData, alg: AlgebraData) -> AxiomReport:
    """The action respects a carrier algebra: units absorb, products distribute."""
    check_left_module(m).require(
        PrereqFailed, "module-algebra check is gated on check_left_module")
    h, field = m.hopf, m.hopf.field
    id_h = LinMap.identity(field, h.space)
    return AxiomReport((
        equation_entry(
            "carrier_unit",
            compose(m.action, tensor(id_h, alg.unit)),
            compose(alg.unit, h.counit)),
        equation_entry(
            "carrier_product",
            compose(m.action, tensor(id_h, alg.product)),
            compose(alg.product, left_tensor_square_action(m))),
    ))


def check_module_coalgebra(m: LeftModuleData, coa: CoalgebraData) -> AxiomReport:
    """The action respects a carrier coalgebra.

    Checked twice on purpose: once through the tensor-square action, once
    as "the action is a coalgebra morphism", plus a cross-assertion that
    the two routes agreed.
    """
    check_left_module(m).require(
        PrereqFailed, "module-coalgebra check is gated on check_left_module")
    h, field = m.hopf, m.hopf.field
    id_h = LinMap.identity(field, h.space)
    counit = equation_entry(
        "carrier_counit",
        compose(coa.counit, m.action),
        tensor(h.counit, coa.counit))
    coproduct_after = compose(coa.coproduct, m.action)
    via_square = compose(left_tensor_square_action(m), tensor(id_h, coa.coproduct))
    # same axiom stated as: the action is a coalgebra morphism from H (x) C to C;
    # its counit half is the same equation as carrier_counit
    via_morphism = compose(
        tensor(m.action, m.action),
        interchange(field, h.space, m.carrier),
        tensor(h.coproduct, coa.coproduct))
    return AxiomReport((
        counit,
        equation_entry("carrier_coproduct", coproduct_after, via_square),
        replace(counit, name="morphism_counit"),
        equation_entry("morphism_coproduct", coproduct_after, via_morphism),
        equation_entry("routes_agree", via_square, via_morphism),
    ))


def check_right_module_coalgebra(m: RightModuleData, coa: CoalgebraData) -> AxiomReport:
    """Right-handed mirror of check_module_coalgebra."""
    check_right_module(m).require(
        PrereqFailed, "module-coalgebra check is gated on check_right_module")
    h, field = m.hopf, m.hopf.field
    id_h = LinMap.identity(field, h.space)
    coproduct_after = compose(coa.coproduct, m.action)
    via_square = compose(right_tensor_square_action(m), tensor(coa.coproduct, id_h))
    via_morphism = compose(
        tensor(m.action, m.action),
        interchange(field, m.carrier, h.space),
        tensor(coa.coproduct, h.coproduct))
    return AxiomReport((
        equation_entry(
            "carrier_counit",
            compose(coa.counit, m.action),
            tensor(coa.counit, h.counit)),
        equation_entry("carrier_coproduct", coproduct_after, via_square),
        equation_entry("morphism_coproduct", coproduct_after, via_morphism),
        equation_entry("routes_agree", via_square, via_morphism),
    ))


def adjoint_action(h: HopfAlgebraData) -> LeftModuleData:
    """H acting on itself by the antipode-twisted sandwich action."""
    check_hopf(h).require(PrereqFailed, "adjoint action is gated on check_hopf")
    field, space = h.field, h.space
    id_h = LinMap.identity(field, space)
    action = compose(
        h.product,
        tensor(h.product, h.antipode),
        tensor(id_h, braiding(field, space, space)),
        tensor(h.coproduct, id_h))
    return LeftModuleData(hopf=h, carrier=space, action=action)
