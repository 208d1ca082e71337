"""Module actions of a Hopf algebra and their compatibility checkers.

A left module is an action H (x) M -> M; a right module acts from the
other side, M (x) H -> M.  Each of the six action laws (unit, product,
carrier unit, carrier product, counit, coproduct) has one body for both
sides, which a record's ``_legs`` puts in its side's tensor order.  The
module, module-algebra and module-coalgebra checks are built from them,
and so are triple axioms (i)-(v) in obt.py and matched-pair axioms
(i)-(v) in matched.py.  The module-algebra check acts on M (x) M through
the coproduct of the acting Hopf algebra.  Both compatibility checks are
gated on the module axioms, whose report is memoized.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import DimensionMismatch, PrereqFailed
from .hopf import AlgebraData, CoalgebraData, HopfAlgebraData, _check_map, check_hopf
from .linmap import (LinMap, Space, braiding, compose, equation_entry,
                     legwise, tensor)
from .report import AxiomReport, CheckEntry, memoize


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


# The six action laws, one body each for both sides through the record's
# _legs; each names the entry it creates.  The carrier-product law takes
# square_action, how H acts on M (x) M.  No law reads the antipode.

def _unit_law(m: _ModuleData, name: str) -> CheckEntry:
    id_m = LinMap.identity(m.hopf.field, m.carrier)
    return equation_entry(
        name, compose(m.action, tensor(*m._legs(m.hopf.unit, id_m))), id_m)


def _product_law(m: _ModuleData, name: str) -> CheckEntry:
    h, id_m = m.hopf, LinMap.identity(m.hopf.field, m.carrier)
    id_h = LinMap.identity(h.field, h.space)
    return equation_entry(name, compose(m.action, tensor(*m._legs(id_h, m.action))),
                          compose(m.action, tensor(*m._legs(h.product, id_m))))


def _carrier_unit_law(m: _ModuleData, unit: LinMap, name: str) -> CheckEntry:
    id_h = LinMap.identity(m.hopf.field, m.hopf.space)
    return equation_entry(name, compose(m.action, tensor(*m._legs(id_h, unit))),
                          compose(unit, m.hopf.counit))


def _carrier_product_law(m: _ModuleData, product: LinMap, square_action: LinMap,
                         name: str) -> CheckEntry:
    id_h = LinMap.identity(m.hopf.field, m.hopf.space)
    return equation_entry(name, compose(m.action, tensor(*m._legs(id_h, product))),
                          compose(product, square_action))


def _counit_law(m: _ModuleData, counit: LinMap, name: str) -> CheckEntry:
    return equation_entry(name, compose(counit, m.action),
                          tensor(*m._legs(m.hopf.counit, counit)))


def _coproduct_law(m: _ModuleData, coproduct: LinMap, name: str) -> CheckEntry:
    lhs = compose(coproduct, m.action)  # first: a wrong carrier fails in compose
    return equation_entry(name, lhs, legwise(m.action, m.action,
                                             *m._legs(m.hopf.coproduct, coproduct)))


@memoize
def _check_module(m: _ModuleData) -> AxiomReport:
    """The module axioms of either side: the action is unital and associative."""
    return AxiomReport((_unit_law(m, "action.unit"), _product_law(m, "action.product")))


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


def check_module_algebra(m: _ModuleData, alg: AlgebraData) -> AxiomReport:
    """The action of either side respects a carrier algebra's unit and product."""
    _check_module(m).require(
        PrereqFailed, f"module-algebra check is gated on check_{m._side}_module")
    square_action = (left_tensor_square_action if m._side == "left"
                     else right_tensor_square_action)
    return AxiomReport((
        _carrier_unit_law(m, alg.unit, "carrier_unit"),
        _carrier_product_law(m, alg.product, square_action(m), "carrier_product"),
    ))


def _check_module_coalgebra(m: _ModuleData, coa: CoalgebraData) -> AxiomReport:
    _check_module(m).require(
        PrereqFailed, f"module-coalgebra check is gated on check_{m._side}_module")
    coproduct = _coproduct_law(m, coa.coproduct, "carrier_coproduct")
    return AxiomReport((
        _counit_law(m, coa.counit, "carrier_counit"),
        coproduct,
        replace(coproduct, name="morphism_coproduct"),
        # The tensor-square route is via too, for any maps: legwise(f, g,
        # c1, c2) o (x (x) y) = legwise(f, g, c1 o x, c2 o y), so with the
        # legs in the side's order, legwise(action, action, Delta_H, id)
        # o (id (x) Delta_C) = legwise(action, action, Delta_H, Delta_C).
        CheckEntry("routes_agree", True),
    ))


def check_module_coalgebra(m: LeftModuleData, coa: CoalgebraData) -> AxiomReport:
    """The action respects a carrier coalgebra: it is a coalgebra morphism.

    Each law is computed once, through one route.  Read through the
    tensor-square action or as "the action is a coalgebra morphism", the
    coproduct law compares Delta_C o action with the same map, so
    carrier_coproduct and morphism_coproduct are one entry under two names
    and routes_agree always passes; morphism_counit repeats carrier_counit.
    """
    counit, coproduct, *rest = _check_module_coalgebra(m, coa).entries
    return AxiomReport(
        (counit, coproduct, replace(counit, name="morphism_counit"), *rest))


def check_right_module_coalgebra(m: RightModuleData, coa: CoalgebraData) -> AxiomReport:
    """Right-handed mirror of check_module_coalgebra, without morphism_counit."""
    return _check_module_coalgebra(m, coa)


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
