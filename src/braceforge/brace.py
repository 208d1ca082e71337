"""Hopf braces: one shared coalgebra and unit carrying two Hopf structures.

The defining compatibility ties the second product to the first through
the canonical action gamma of the second structure on the first.  For
cocommutative braces there is additionally a right action phi of the
second structure on the carrier.  The compatibility is a carrier-product
law of actions.py; it and the antipode exchange read one interchange.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .actions import _carrier_product_law, _interchange, _regular
from .errors import BraceAxiomsFailed, PrereqFailed
from .hopf import (HopfAlgebraData, _Record, check_hopf, check_hopf_morphism,
                   deform, require_cocommutative)
from .linmap import LinMap, compose, equation_entry, legwise, tensor
from .report import AxiomReport, memoize


# The structure maps of a Hopf brace, in the order reports compare them.
BRACE_MAPS = ("unit", "counit", "coproduct",
              "product1", "antipode1", "product2", "antipode2")


@dataclass(frozen=True)
class HopfBraceData(_Record):
    """Two Hopf structures on the carrier of the unit, over its field."""

    unit: LinMap
    counit: LinMap
    coproduct: LinMap
    product1: LinMap
    antipode1: LinMap
    product2: LinMap
    antipode2: LinMap
    meta: dict | None = field(default=None, compare=False)

    _MAPS = BRACE_MAPS

    @classmethod
    def of(cls, first: HopfAlgebraData, second: HopfAlgebraData) -> HopfBraceData:
        """The brace whose first() is first and whose second() carries
        second's product and antipode; the inverse of first()/second().

        Unit and coalgebra are read from first only, so second must be a
        Hopf algebra on the same unit and coalgebra; that is not checked.
        """
        return cls(first.unit, first.counit, first.coproduct, first.product,
                   first.antipode, second.product, second.antipode)

    def first(self) -> HopfAlgebraData:
        return HopfAlgebraData(self.unit, self.product1, self.counit,
                               self.coproduct, self.antipode1)

    def second(self) -> HopfAlgebraData:
        return HopfAlgebraData(self.unit, self.product2, self.counit,
                               self.coproduct, self.antipode2)


@memoize
def gamma(b: HopfBraceData) -> LinMap:
    """Canonical left action of the second structure on the first:
    gamma = product1 o (antipode1 (x) product2) o (coproduct (x) id)."""
    id_h = LinMap.identity(b.field, b.space)
    return compose(
        b.product1,
        tensor(b.antipode1, b.product2),
        tensor(b.coproduct, id_h))


@memoize
def check_hopf_brace(b: HopfBraceData) -> AxiomReport:
    """Both Hopf structures plus the compatibility law, the carrier-product
    law a .2 (b .1 c) = (a_1 .2 b) .1 (a_2 |> c) with |> = gamma."""
    first = check_hopf(b.first()).prefixed("first.")
    second = check_hopf(b.second()).prefixed("second.")
    regular = _regular(b.second())
    return AxiomReport((*first, *second, _carrier_product_law(
        regular, b.product1, _interchange(regular), gamma(b), "compatibility")))


def phi(b: HopfBraceData) -> LinMap:
    """Right action of the second structure on the carrier, for
    cocommutative braces:
    phi = product2 o ((antipode2 o gamma) (x) product2) o (id (x) swap (x) id) o (coproduct (x) coproduct)."""
    require_cocommutative(b.first(), "phi needs a cocommutative coproduct")
    return compose(
        b.product2,
        legwise(compose(b.antipode2, gamma(b)), b.product2,
                b.coproduct, b.coproduct))


def check_brace_identities(b: HopfBraceData) -> AxiomReport:
    """Consequences of the brace axioms, checked exactly on verified braces:

    - exchanging the first antipode through the action,
    - each product recovered from the other one and the action.
    """
    check_hopf_brace(b).require(
        PrereqFailed, "identities are gated on check_hopf_brace")
    id_h = LinMap.identity(b.field, b.space)
    g = gamma(b)
    return AxiomReport((
        equation_entry(
            "action_antipode_exchange",
            compose(g, tensor(id_h, b.antipode1)),
            compose(b.product1, tensor(b.antipode1, id_h), _interchange(_regular(b.second())))),
        equation_entry(
            "product2_from_action",
            b.product2, deform(b.product1, b.coproduct, g)),
        equation_entry(
            "product1_from_action",
            b.product1,
            deform(b.product2, b.coproduct,
                   compose(g, tensor(b.antipode2, id_h)))),
    ))


def trivial_brace(h: HopfAlgebraData) -> HopfBraceData:
    """Both structures equal to the given Hopf algebra."""
    check_hopf(h).require(PrereqFailed, "trivial brace is gated on check_hopf")
    return HopfBraceData.of(h, h)


def check_brace_morphism(f: LinMap, src: HopfBraceData,
                         dst: HopfBraceData) -> AxiomReport:
    """f is a Hopf morphism for both structures; action compatibility
    f o gamma = gamma o (f (x) f) follows and is reported as derived."""
    return AxiomReport((
        *check_hopf_morphism(f, src.first(), dst.first()).prefixed("first."),
        *check_hopf_morphism(f, src.second(), dst.second()).prefixed("second."),
        equation_entry(
            "derived.action",
            compose(f, gamma(src)),
            compose(gamma(dst), tensor(f, f))),
    ))


def require_valid_brace(b: HopfBraceData) -> None:
    """Raise BraceAxiomsFailed unless b passes check_hopf_brace."""
    check_hopf_brace(b).require(BraceAxiomsFailed, "hopf brace axioms fail")
