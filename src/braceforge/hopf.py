"""Hopf algebras as structure-constant data, with exact axiom checkers.

All structure maps are LinMaps over one shared field:

    unit      : K -> H          product   : H (x) H -> H
    counit    : H -> K          coproduct : H -> H (x) H
    antipode  : H -> H

Construction validates shapes and fields only; the axioms are verified by
explicit checker calls which return AxiomReports with counterexample
witnesses.  Checkers accept data that is broken on purpose.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch, FieldMismatch, NotAGroup, NotCocommutative, PrereqFailed
from .linmap import (LinMap, Space, braiding, compose, equation_entry,
                     legwise, tensor)
from .report import AxiomReport, memoize
from .skewbraces import CayleyTable, check_group


def _check_map(f: LinMap, shape: tuple[int, int], field, what: str) -> None:
    """Raise unless f has the given (rows, cols) shape and field."""
    if f.shape() != shape:
        raise DimensionMismatch(f"{what} must be {shape[0]}x{shape[1]}, "
                                f"got {f.codomain.dim}x{f.domain.dim}")
    if f.field != field:
        raise FieldMismatch(f"{what} is over {f.field.name}, expected {field.name}")


# The structure maps of a Hopf algebra, in the order reports compare them.
HOPF_MAPS = ("unit", "counit", "coproduct", "product", "antipode")

# Every structure map on one carrier H, as (r, c) for a map H^(x)c -> H^(x)r:
# on an n-dimensional carrier its matrix is n**r x n**c.
MAP_SHAPES = {
    "unit": (1, 0), "counit": (0, 1), "coproduct": (2, 1),
    **dict.fromkeys(("product", "product1", "product2", "action"), (1, 2)),
    **dict.fromkeys(("antipode", "antipode1", "antipode2", "involution"), (1, 1)),
}


def _shapes(names: tuple[str, ...], n: int) -> dict[str, tuple[int, int]]:
    """(rows, cols) of each named map on an n-dimensional carrier."""
    return {name: tuple(n ** k for k in MAP_SHAPES[name]) for name in names}


class _Record:
    """Structure maps on one carrier, whose space and field are the unit's
    unless a subclass reads them elsewhere.  Construction checks the shape
    and field of each map that _MAPS names, in that order."""

    _MAPS: tuple[str, ...]

    def __post_init__(self):
        for name, shape in _shapes(self._MAPS, self.space.dim).items():
            _check_map(getattr(self, name), shape, self.field, name)

    @property
    def space(self) -> Space:
        return self.unit.codomain

    @property
    def field(self):
        return self.unit.field


@dataclass(frozen=True)
class AlgebraData(_Record):
    unit: LinMap
    product: LinMap

    _MAPS = ("unit", "product")


@dataclass(frozen=True)
class CoalgebraData(_Record):
    counit: LinMap
    coproduct: LinMap

    _MAPS = ("counit", "coproduct")

    @property
    def space(self) -> Space:
        return self.counit.domain

    @property
    def field(self):
        return self.counit.field


@dataclass(frozen=True)
class HopfAlgebraData(_Record):
    """The five structure maps on the carrier of the unit, over its field."""

    unit: LinMap
    product: LinMap
    counit: LinMap
    coproduct: LinMap
    antipode: LinMap
    meta: dict | None = field(default=None, compare=False)

    _MAPS = HOPF_MAPS

    @property
    def algebra(self) -> AlgebraData:
        return AlgebraData(self.unit, self.product)

    @property
    def coalgebra(self) -> CoalgebraData:
        return CoalgebraData(self.counit, self.coproduct)


# ---------------------------------------------------------------------------
# checkers

def check_algebra(a: AlgebraData) -> AxiomReport:
    field, space = a.field, a.space
    ident = LinMap.identity(field, space)
    return AxiomReport((
        equation_entry(
            "unit.left", compose(a.product, tensor(a.unit, ident)), ident),
        equation_entry(
            "unit.right", compose(a.product, tensor(ident, a.unit)), ident),
        equation_entry(
            "associativity",
            compose(a.product, tensor(a.product, ident)),
            compose(a.product, tensor(ident, a.product))),
    ))


def check_coalgebra(c: CoalgebraData) -> AxiomReport:
    field, space = c.field, c.space
    ident = LinMap.identity(field, space)
    return AxiomReport((
        equation_entry(
            "counit.left", compose(tensor(c.counit, ident), c.coproduct), ident),
        equation_entry(
            "counit.right", compose(tensor(ident, c.counit), c.coproduct), ident),
        equation_entry(
            "coassociativity",
            compose(tensor(c.coproduct, ident), c.coproduct),
            compose(tensor(ident, c.coproduct), c.coproduct)),
    ))


def convolve(f: LinMap, g: LinMap, c: CoalgebraData, a: AlgebraData) -> LinMap:
    """Convolution product (f * g) = product o (f (x) g) o coproduct."""
    return compose(a.product, tensor(f, g), c.coproduct)


def deform(product: LinMap, coproduct: LinMap, action: LinMap) -> LinMap:
    """The product deformed along an action:
    product o (id (x) action) o (coproduct (x) id)."""
    ident = LinMap.identity(product.field, product.codomain)
    return compose(product, tensor(ident, action), tensor(coproduct, ident))


def convolution_unit(c: CoalgebraData, a: AlgebraData) -> LinMap:
    """The convolution-neutral map unit o counit."""
    return compose(a.unit, c.counit)


@memoize
def check_hopf(h: HopfAlgebraData) -> AxiomReport:
    """Algebra + coalgebra axioms, bialgebra compatibility, antipode identity."""
    field, space = h.field, h.space
    ident = LinMap.identity(field, space)
    id_k = LinMap.identity(field, Space(1))
    alg, coalg = h.algebra, h.coalgebra
    neutral = convolution_unit(coalg, alg)
    return AxiomReport((
        *check_algebra(alg).prefixed("algebra."),
        *check_coalgebra(coalg).prefixed("coalgebra."),
        # unit and product are coalgebra morphisms
        equation_entry(
            "bialgebra.unit.counit", compose(h.counit, h.unit), id_k),
        equation_entry(
            "bialgebra.unit.coproduct",
            compose(h.coproduct, h.unit), tensor(h.unit, h.unit)),
        equation_entry(
            "bialgebra.product.counit",
            compose(h.counit, h.product), tensor(h.counit, h.counit)),
        equation_entry(
            "bialgebra.product.coproduct",
            compose(h.coproduct, h.product),
            legwise(h.product, h.product, h.coproduct, h.coproduct)),
        equation_entry(
            "antipode.left",
            convolve(h.antipode, ident, coalg, alg), neutral),
        equation_entry(
            "antipode.right",
            convolve(ident, h.antipode, coalg, alg), neutral),
    ))


def _opposite_product(product: LinMap) -> LinMap:
    """product o c_{H,H}, the product of H^op, with no gate."""
    return compose(product, braiding(product.field, product.codomain, product.codomain))


def _opposite_coproduct(coproduct: LinMap) -> LinMap:
    """c_{H,H} o coproduct, the coproduct of H^cop, with no gate."""
    return compose(braiding(coproduct.field, coproduct.domain, coproduct.domain), coproduct)


def is_commutative(h: HopfAlgebraData) -> bool:
    return _opposite_product(h.product) == h.product


@memoize
def is_cocommutative(h: HopfAlgebraData) -> bool:
    return _opposite_coproduct(h.coproduct) == h.coproduct


def require_cocommutative(h: HopfAlgebraData, message: str) -> None:
    """Raise NotCocommutative(message) unless h is cocommutative."""
    if not is_cocommutative(h):
        raise NotCocommutative(message)


def check_antipode_properties(h: HopfAlgebraData) -> AxiomReport:
    """Anti-morphism properties of the antipode, on verified Hopf data.

    The involution entry is only meaningful (and only emitted) when the
    product is commutative or the coproduct is cocommutative.
    """
    check_hopf(h).require(PrereqFailed,
                          "antipode properties are gated on check_hopf")
    ident = LinMap.identity(h.field, h.space)
    lam = h.antipode
    entries = (
        equation_entry(
            "antimultiplicative",
            compose(lam, h.product),
            compose(_opposite_product(h.product), tensor(lam, lam))),
        equation_entry(
            "anticomultiplicative",
            compose(h.coproduct, lam),
            compose(tensor(lam, lam), _opposite_coproduct(h.coproduct))),
        equation_entry("unit", compose(lam, h.unit), h.unit),
        equation_entry("counit", compose(h.counit, lam), h.counit),
    )
    if is_commutative(h) or is_cocommutative(h):
        entries += (equation_entry("involution", compose(lam, lam), ident),)
    return AxiomReport(entries)


def opposite_hopf(h: HopfAlgebraData) -> HopfAlgebraData:
    """Same data with the product reversed; gated on cocommutativity.

    For cocommutative data the original antipode still works for the
    opposite product, so no antipode inverse is needed.
    """
    require_cocommutative(h, "opposite product needs a cocommutative coproduct")
    return HopfAlgebraData(h.unit, _opposite_product(h.product), h.counit,
                           h.coproduct, h.antipode)


def group_algebra(table: CayleyTable, field) -> HopfAlgebraData:
    """The group algebra over an exact field: basis = group elements,
    group-like coproduct, antipode = inversion."""
    check_group(table).require(NotAGroup, "table fails the group axioms")
    return _group_algebra(table, field)


def _group_algebra(table: CayleyTable, field) -> HopfAlgebraData:
    """group_algebra's body, for a table already checked to be a group."""
    n, e = table.order, table.identity
    one = field.one()
    space = Space(n)
    square = space.tensor(space)
    unit = LinMap(field, Space(1), space, {(e, 0): one})
    product = LinMap(field, square, space,
                     {(table.table[a][b], a * n + b): one
                      for a in range(n) for b in range(n)})
    counit = LinMap(field, space, Space(1), {(0, a): one for a in range(n)})
    coproduct = LinMap(field, space, square,
                       {(a * n + a, a): one for a in range(n)})
    antipode = LinMap(field, space, space,
                      {(table.inverse(a), a): one for a in range(n)})
    meta = {"label": table.label} if table.label else None
    return HopfAlgebraData(unit, product, counit, coproduct, antipode, meta)


def check_hopf_morphism(f: LinMap, src: HopfAlgebraData,
                        dst: HopfAlgebraData) -> AxiomReport:
    """f intertwines units, products, counits, coproducts.

    Antipode compatibility is a consequence and is reported under a
    derived. prefix; it cannot fail when the primary entries pass on
    valid Hopf data.
    """
    _check_map(f, (dst.space.dim, src.space.dim), src.field, "morphism")
    ff = tensor(f, f)
    return AxiomReport((
        equation_entry("algebra.unit", compose(f, src.unit), dst.unit),
        equation_entry(
            "algebra.product", compose(f, src.product), compose(dst.product, ff)),
        equation_entry("coalgebra.counit", compose(dst.counit, f), src.counit),
        equation_entry(
            "coalgebra.coproduct", compose(dst.coproduct, f), compose(ff, src.coproduct)),
        equation_entry(
            "derived.antipode", compose(dst.antipode, f), compose(f, src.antipode)),
    ))
