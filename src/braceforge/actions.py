"""Module actions of a Hopf algebra and their compatibility checkers.

A left module is an action H (x) M -> M; a right module acts from the
other side, M (x) H -> M.  Each of the six action laws (unit, product,
carrier unit, carrier product, counit, coproduct) has one body for both
sides, which a record's ``_legs`` puts in its side's tensor order.  The
module checks here, triple axioms (i)-(v) in obt.py, matched-pair axioms
(i)-(v) in matched.py and the brace compatibility are built from them.
A coproduct leg of H passes the carrier only through the memoized
_interchange, psi_M(h (x) x) = (h_1 |> x) (x) h_2; only the carrier-product
law acts by H on M (x) M, as product o (id (x) action) o (psi (x) id) with
psi = psi_M or a matched pair's psi, and it never builds that action.
legwise meets only the two coproducts of the coproduct law.  The
module-algebra and module-coalgebra checks are gated on the module axioms,
whose report is memoized; so is the module-coalgebra report, one body for
both sides keyed on the module and the coalgebra.
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
# _legs; each names the entry it creates.  The carrier-product law takes an
# interchange and the far carrier leg's action.  No law reads the antipode.

def _unit_law(m: _ModuleData, name: str) -> CheckEntry:
    id_m = LinMap.identity(m.hopf.field, m.carrier)
    return equation_entry(
        name, compose(m.action, tensor(*m._legs(m.hopf.unit, id_m))), id_m)


def _product_law(m: _ModuleData, name: str) -> CheckEntry:
    h = m.hopf
    id_h, id_m = LinMap.identity(h.field, h.space), LinMap.identity(h.field, m.carrier)
    return equation_entry(name, compose(m.action, tensor(*m._legs(id_h, m.action))),
                          compose(m.action, tensor(*m._legs(h.product, id_m))))


def _carrier_unit_law(m: _ModuleData, unit: LinMap, name: str) -> CheckEntry:
    id_h = LinMap.identity(m.hopf.field, m.hopf.space)
    return equation_entry(name, compose(m.action, tensor(*m._legs(id_h, unit))),
                          compose(unit, m.hopf.counit))


def _carrier_product_law(m: _ModuleData, product: LinMap, interchange: LinMap,
                         far_action: LinMap, name: str) -> CheckEntry:
    h = m.hopf
    id_h, id_m = LinMap.identity(h.field, h.space), LinMap.identity(h.field, m.carrier)
    # Fold left: the product narrows (id (x) far_action) to M before psi.
    return equation_entry(name, compose(m.action, tensor(*m._legs(id_h, product))),
                          compose(compose(product, tensor(*m._legs(id_m, far_action))),
                                  tensor(*m._legs(interchange, id_m))))


def _counit_law(m: _ModuleData, counit: LinMap, name: str) -> CheckEntry:
    return equation_entry(name, compose(counit, m.action),
                          tensor(*m._legs(m.hopf.counit, counit)))


def _coproduct_law(m: _ModuleData, coproduct: LinMap, name: str) -> CheckEntry:
    return equation_entry(name, compose(coproduct, m.action),
                          legwise(m.action, m.action, *m._legs(m.hopf.coproduct, coproduct)))


@memoize
def _check_module(m: _ModuleData) -> AxiomReport:
    """The module axioms of either side: the action is unital and associative."""
    return AxiomReport((_unit_law(m, "action.unit"), _product_law(m, "action.product")))


def check_left_module(m: LeftModuleData) -> AxiomReport:
    return _check_module(m)


def check_right_module(m: RightModuleData) -> AxiomReport:
    return _check_module(m)


@memoize
def _interchange(m: _ModuleData) -> LinMap:
    """psi_M : H (x) M -> M (x) H, h (x) x -> (h_1 |> x) (x) h_2; for a right
    module x (x) h -> h_1 (x) (x <| h_2).  It moves legs and reads no axiom."""
    h = m.hopf
    id_h, id_m = LinMap.identity(h.field, h.space), LinMap.identity(h.field, m.carrier)
    return compose(tensor(*m._legs(id_h, m.action)[::-1]),
                   tensor(*m._legs(id_h, braiding(h.field, *m._legs(h.space, m.carrier)))),
                   tensor(*m._legs(h.coproduct, id_m)))


def _square_action(m: _ModuleData, interchange: LinMap) -> LinMap:
    """H on M (x) M: interchange past the near carrier leg, then the far action."""
    id_m = LinMap.identity(m.hopf.field, m.carrier)
    return compose(tensor(*m._legs(id_m, m.action)), tensor(*m._legs(interchange, id_m)))


def left_tensor_square_action(m: LeftModuleData) -> LinMap:
    """Diagonal action of H on M (x) M through the coproduct; no check reads it."""
    return _square_action(m, _interchange(m))


def right_tensor_square_action(m: RightModuleData) -> LinMap:
    """Diagonal action of H on M (x) M from the right; no check reads it."""
    return _square_action(m, _interchange(m))


def _regular(h: HopfAlgebraData) -> LeftModuleData:
    """H acting on itself by its product."""
    return LeftModuleData(hopf=h, carrier=h.space, action=h.product)


def _require_on_carrier(m: _ModuleData, space: Space, what: str) -> None:
    if space != m.carrier:
        raise DimensionMismatch(f"{m._side} module carrier has dimension {m.carrier.dim}, "
                                f"but the {what} is on dimension {space.dim}")


def check_module_algebra(m: _ModuleData, alg: AlgebraData) -> AxiomReport:
    """The action of either side respects a carrier algebra's unit and product."""
    _require_on_carrier(m, alg.space, "algebra")
    _check_module(m).require(
        PrereqFailed, f"module-algebra check is gated on check_{m._side}_module")
    return AxiomReport((
        _carrier_unit_law(m, alg.unit, "carrier_unit"),
        _carrier_product_law(m, alg.product, _interchange(m), m.action, "carrier_product"),
    ))


@memoize
def _check_module_coalgebra(m: _ModuleData, coa: CoalgebraData) -> AxiomReport:
    _require_on_carrier(m, coa.space, "coalgebra")
    _check_module(m).require(
        PrereqFailed, f"module-coalgebra check is gated on check_{m._side}_module")
    coproduct = _coproduct_law(m, coa.coproduct, "carrier_coproduct")
    return AxiomReport((
        _counit_law(m, coa.counit, "carrier_counit"),
        coproduct,
        replace(coproduct, name="morphism_coproduct"),
        # The tensor-square route is via too, for any maps: after Delta_C the
        # square action is legwise(action, action, Delta_H, Delta_C) (legs in
        # the side's order); both move legs alone to (h_1 |> x_1) (x) (h_2 |> x_2).
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
    """H acting on itself by the sandwich action h (x) x -> h_1 x S(h_2)."""
    check_hopf(h).require(PrereqFailed, "adjoint action is gated on check_hopf")
    action = compose(h.product, tensor(LinMap.identity(h.field, h.space), h.antipode),
                     _interchange(_regular(h)))
    return LeftModuleData(hopf=h, carrier=h.space, action=action)
