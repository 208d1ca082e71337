"""Module actions of a Hopf algebra and their compatibility checkers.

A left module is an action H (x) M -> M; a right module acts from the
other side, M (x) H -> M.  Each law has one body for both sides, which a
record's ``_legs`` puts in its side's tensor order.  Module-algebra and
module-coalgebra checks verify that a carrier algebra or coalgebra
structure is respected, using the diagonal action on tensor squares
built from the coproduct of the acting Hopf algebra and the explicit
braiding; they are gated on the module axioms, whose report is memoized.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch, PrereqFailed
from .hopf import AlgebraData, CoalgebraData, HopfAlgebraData, _check_map, check_hopf
from .linmap import (LinMap, Space, braiding, compose, equation_entry,
                     legwise, tensor)
from .report import AxiomReport, memoize


@dataclass(frozen=True)
class _ModuleData:
    hopf: HopfAlgebraData
    carrier: Space
    action: LinMap

    def __post_init__(self):
        h, m = self.hopf.space.dim, self.carrier.dim
        what = f"{self._side} action"
        if self.action.codomain != self.carrier:
            raise DimensionMismatch(f"carrier has dimension {m}, but the {what} "
                                    f"lands in dimension {self.action.codomain.dim}")
        _check_map(self.action, (m, h * m), self.hopf.field, what)


class LeftModuleData(_ModuleData):
    _side = "left"

    def _legs(self, hopf_leg, carrier_leg):
        """The two legs in this side's tensor order: hopf (x) carrier."""
        return hopf_leg, carrier_leg


class RightModuleData(_ModuleData):
    _side = "right"

    def _legs(self, hopf_leg, carrier_leg):
        """The two legs in this side's tensor order: carrier (x) hopf."""
        return carrier_leg, hopf_leg


@memoize
def _check_module(m: _ModuleData) -> AxiomReport:
    """The module axioms of either side: the action is unital and associative."""
    h, field = m.hopf, m.hopf.field
    id_m = LinMap.identity(field, m.carrier)
    id_h = LinMap.identity(field, h.space)
    return AxiomReport((
        equation_entry(
            "action.unit", compose(m.action, tensor(*m._legs(h.unit, id_m))), id_m),
        equation_entry(
            "action.product",
            compose(m.action, tensor(*m._legs(id_h, m.action))),
            compose(m.action, tensor(*m._legs(h.product, id_m)))),
    ))


def check_left_module(m: LeftModuleData) -> AxiomReport:
    return _check_module(m)


def check_right_module(m: RightModuleData) -> AxiomReport:
    return _check_module(m)


def _tensor_square_action(m: _ModuleData) -> LinMap:
    id_square = LinMap.identity(m.hopf.field, m.carrier.tensor(m.carrier))
    return legwise(m.action, m.action, *m._legs(m.hopf.coproduct, id_square))


def left_tensor_square_action(m: LeftModuleData) -> LinMap:
    """Diagonal action of H on M (x) M: act on both factors through the coproduct."""
    return _tensor_square_action(m)


def right_tensor_square_action(m: RightModuleData) -> LinMap:
    """Diagonal action of H on M (x) M from the right."""
    return _tensor_square_action(m)


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


def _check_module_coalgebra(m: _ModuleData, coa: CoalgebraData,
                            square_action) -> AxiomReport:
    # square_action: the side's public builder, so tracers count its calls
    _check_module(m).require(
        PrereqFailed, f"module-coalgebra check is gated on check_{m._side}_module")
    h, field = m.hopf, m.hopf.field
    id_h = LinMap.identity(field, h.space)
    coproduct_after = compose(coa.coproduct, m.action)
    via_square = compose(square_action(m),
                         tensor(*m._legs(id_h, coa.coproduct)))
    via_morphism = legwise(m.action, m.action,
                           *m._legs(h.coproduct, coa.coproduct))
    return AxiomReport((
        equation_entry(
            "carrier_counit",
            compose(coa.counit, m.action),
            tensor(*m._legs(h.counit, coa.counit))),
        equation_entry("carrier_coproduct", coproduct_after, via_square),
        equation_entry("morphism_coproduct", coproduct_after, via_morphism),
        equation_entry("routes_agree", via_square, via_morphism),
    ))


def check_module_coalgebra(m: LeftModuleData, coa: CoalgebraData) -> AxiomReport:
    """The action respects a carrier coalgebra.

    Checked twice on purpose: once through the tensor-square action, once
    as "the action is a coalgebra morphism", plus a cross-assertion that
    the two routes agreed.  The morphism's counit half is carrier_counit
    again, which this left check reports a second time as morphism_counit.
    """
    counit, coproduct, *rest = _check_module_coalgebra(
        m, coa, left_tensor_square_action).entries
    return AxiomReport(
        (counit, coproduct, replace(counit, name="morphism_counit"), *rest))


def check_right_module_coalgebra(m: RightModuleData, coa: CoalgebraData) -> AxiomReport:
    """Right-handed mirror of check_module_coalgebra, without morphism_counit."""
    return _check_module_coalgebra(m, coa, right_tensor_square_action)


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
