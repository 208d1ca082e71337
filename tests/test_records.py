"""Constructor validation of the structure records.

Each case builds one record from the maps of a Q brace on Z2, or from
the matched pair F makes of it, with one fault: a map one column too
wide, a map or Hopf component taken from the same construction over
Fp:5, or a unit taken from the Q brace on Z3.  Two more cases take a
whole half of a Hopf algebra (unit and product, or counit and coproduct)
over Fp:5.  A record reads its carrier from one of its maps (the unit,
or the counit for a coalgebra), so a wide counit or a 3-dimensional
unit is blamed on the next map checked.  The class and message of every
rejection are frozen here.
"""
import pytest

from braceforge import (HopfAlgebraData, HopfBraceData, LinMap,
                        MatchedPairData, OppBraceTripleData, PrimeField, QQ,
                        Space, cyclic, enumerate_skew_braces, functor_F,
                        functor_Q, linearize)
from braceforge.brace import BRACE_MAPS
from braceforge.errors import DimensionMismatch, FieldMismatch
from braceforge.hopf import HOPF_MAPS, AlgebraData, CoalgebraData
from braceforge.matched import MP_EXTRA_MAPS
from braceforge.obt import OBT_EXTRA_MAPS

DIM, FIELD = DimensionMismatch, FieldMismatch

REJECTIONS = {
    ("AlgebraData", "unit", "wide"): (DIM, "unit must be 2x1, got 2x2"),
    ("AlgebraData", "unit", "Fp:5"): (FIELD, "product is over Q, expected Fp:5"),
    ("AlgebraData", "unit", "dim3"): (DIM, "product must be 3x9, got 2x4"),
    ("AlgebraData", "product", "wide"): (DIM, "product must be 2x4, got 2x5"),
    ("AlgebraData", "product", "Fp:5"): (FIELD, "product is over Fp:5, expected Q"),
    ("CoalgebraData", "counit", "wide"): (DIM, "coproduct must be 9x3, got 4x2"),
    ("CoalgebraData", "counit", "Fp:5"): (FIELD, "coproduct is over Q, expected Fp:5"),
    ("CoalgebraData", "coproduct", "wide"): (DIM, "coproduct must be 4x2, got 4x3"),
    ("CoalgebraData", "coproduct", "Fp:5"): (FIELD, "coproduct is over Fp:5, expected Q"),
    # HopfAlgebraData checks its maps in HOPF_MAPS order against the unit's
    # field, so the counit is the first map blamed for a unit or counit fault
    ("HopfAlgebraData", "unit", "wide"): (DIM, "unit must be 2x1, got 2x2"),
    ("HopfAlgebraData", "unit", "Fp:5"): (FIELD, "counit is over Q, expected Fp:5"),
    ("HopfAlgebraData", "counit", "wide"): (DIM, "counit must be 1x2, got 1x3"),
    ("HopfAlgebraData", "counit", "Fp:5"): (FIELD, "counit is over Fp:5, expected Q"),
    ("HopfAlgebraData", "coproduct", "wide"): (DIM, "coproduct must be 4x2, got 4x3"),
    ("HopfAlgebraData", "coproduct", "Fp:5"): (FIELD, "coproduct is over Fp:5, expected Q"),
    ("HopfAlgebraData", "product", "wide"): (DIM, "product must be 2x4, got 2x5"),
    ("HopfAlgebraData", "product", "Fp:5"): (FIELD, "product is over Fp:5, expected Q"),
    ("HopfAlgebraData", "antipode", "wide"): (DIM, "antipode must be 2x2, got 2x3"),
    ("HopfAlgebraData", "antipode", "Fp:5"): (FIELD, "antipode is over Fp:5, expected Q"),
    ("HopfAlgebraData", "unit+product", "Fp:5"): (FIELD, "counit is over Q, expected Fp:5"),
    ("HopfAlgebraData", "counit+coproduct", "Fp:5"): (FIELD, "counit is over Fp:5, expected Q"),
    ("HopfBraceData", "unit", "wide"): (DIM, "unit must be 2x1, got 2x2"),
    ("HopfBraceData", "unit", "Fp:5"): (FIELD, "counit is over Q, expected Fp:5"),
    ("HopfBraceData", "unit", "dim3"): (DIM, "counit must be 1x3, got 1x2"),
    ("HopfBraceData", "counit", "wide"): (DIM, "counit must be 1x2, got 1x3"),
    ("HopfBraceData", "counit", "Fp:5"): (FIELD, "counit is over Fp:5, expected Q"),
    ("HopfBraceData", "coproduct", "wide"): (DIM, "coproduct must be 4x2, got 4x3"),
    ("HopfBraceData", "coproduct", "Fp:5"): (FIELD, "coproduct is over Fp:5, expected Q"),
    ("HopfBraceData", "product1", "wide"): (DIM, "product1 must be 2x4, got 2x5"),
    ("HopfBraceData", "product1", "Fp:5"): (FIELD, "product1 is over Fp:5, expected Q"),
    ("HopfBraceData", "antipode1", "wide"): (DIM, "antipode1 must be 2x2, got 2x3"),
    ("HopfBraceData", "antipode1", "Fp:5"): (FIELD, "antipode1 is over Fp:5, expected Q"),
    ("HopfBraceData", "product2", "wide"): (DIM, "product2 must be 2x4, got 2x5"),
    ("HopfBraceData", "product2", "Fp:5"): (FIELD, "product2 is over Fp:5, expected Q"),
    ("HopfBraceData", "antipode2", "wide"): (DIM, "antipode2 must be 2x2, got 2x3"),
    ("HopfBraceData", "antipode2", "Fp:5"): (FIELD, "antipode2 is over Fp:5, expected Q"),
    ("OppBraceTripleData", "action", "wide"): (DIM, "action must be 2x4, got 2x5"),
    ("OppBraceTripleData", "action", "Fp:5"): (FIELD, "action is over Fp:5, expected Q"),
    ("OppBraceTripleData", "involution", "wide"): (DIM, "involution must be 2x2, got 2x3"),
    ("OppBraceTripleData", "involution", "Fp:5"): (FIELD, "involution is over Fp:5, expected Q"),
    # a matched pair checks its second component and both actions against
    # the field of the first
    ("MatchedPairData", "first", "Fp:5"): (FIELD, "second is over Q, expected Fp:5"),
    ("MatchedPairData", "second", "Fp:5"): (FIELD, "second is over Fp:5, expected Q"),
    ("MatchedPairData", "left_action", "wide"): (DIM, "left action must be 2x4, got 2x5"),
    ("MatchedPairData", "right_action", "wide"): (DIM, "right action must be 2x4, got 2x5"),
}

# the brace each non-wide fault takes its map from: (field, group order)
SOURCES = {"Fp:5": (PrimeField(5), 2), "dim3": (QQ, 3)}


def _records(field, order=2):
    """record name -> (its maps by name, a builder taking such a dict)."""
    b = linearize(enumerate_skew_braces(cyclic(order))[0], field)
    h, t, mp = b.first(), functor_Q(b), functor_F(b)
    return {
        "AlgebraData": ({n: getattr(h, n) for n in ("unit", "product")},
                        lambda m: AlgebraData(**m)),
        "CoalgebraData": ({n: getattr(h, n) for n in ("counit", "coproduct")},
                          lambda m: CoalgebraData(**m)),
        "HopfAlgebraData": ({n: getattr(h, n) for n in HOPF_MAPS},
                            lambda m: HopfAlgebraData(**m)),
        "HopfBraceData": ({n: getattr(b, n) for n in BRACE_MAPS},
                          lambda m: HopfBraceData(**m)),
        "OppBraceTripleData": ({n: getattr(t, n) for n in OBT_EXTRA_MAPS},
                               lambda m: OppBraceTripleData(hopf=t.hopf, **m)),
        "MatchedPairData": ({n: getattr(mp, n) for n in
                             ("first", "second", *MP_EXTRA_MAPS)},
                            lambda m: MatchedPairData(**m)),
    }


def _wide(f: LinMap) -> LinMap:
    return LinMap(f.field, Space(f.domain.dim + 1), f.codomain, dict(f.items()))


def test_every_single_carrier_map_is_covered():
    covered = {(record, names) for record, names, _ in REJECTIONS}
    for record, (maps, _) in _records(QQ).items():
        assert {(record, name) for name in maps} <= covered
    assert len(REJECTIONS) == 44


@pytest.mark.parametrize("record, names, fault", list(REJECTIONS))
def test_constructor_rejection_is_frozen(record, names, fault):
    maps, build = _records(QQ)[record]
    if fault == "wide":
        faulty = {name: _wide(maps[name]) for name in names.split("+")}
    else:
        other = _records(*SOURCES[fault])[record][0]
        faulty = {name: other[name] for name in names.split("+")}
    exc_type, message = REJECTIONS[record, names, fault]
    with pytest.raises(exc_type) as exc:
        build({**maps, **faulty})
    assert (type(exc.value), str(exc.value)) == (exc_type, message)

