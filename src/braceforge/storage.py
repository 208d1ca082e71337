"""JSON structure files with a canonical byte form.

Every file is one JSON object:

    format   "braceforge/1"
    kind     hopf | brace | obt | matched_pair | group | skew_brace
    metadata optional object, preserved verbatim

Map-bearing kinds add "field" ("Q" or "Fp:<p>"), "dim", and a "maps"
object of dense row-major nested arrays of canonical scalar strings
(rationals "n" or "n/d" reduced with positive denominator; prime field
residues as decimal strings).  Tensor domains and codomains use the
left-factor-major index convention of linmap.  Group kinds carry integer
tables instead.

_LAYOUTS is the one place that says how each kind is stored: its record
type and, for a map-bearing kind, each Hopf component's map-name prefix
and dimension key ("dim", or "dim_second" for a matched pair's second
component) and the record's own maps.

Serialization is canonical: sorted keys, two-space indent, trailing
newline.  save(load(f)) is byte-identical for files produced by save.
"""
from __future__ import annotations

import json
from typing import Any

from .brace import BRACE_MAPS, HopfBraceData
from .errors import (CanonicalFormError, ParseError, SchemaError, ShapeError,
                     StorageError)
from .hopf import HOPF_MAPS, HopfAlgebraData, _shapes
from .linmap import LinMap, Space, parse_field
from .matched import MP_EXTRA_MAPS, MatchedPairData, _action_shapes
from .obt import OBT_EXTRA_MAPS, OppBraceTripleData
from .skewbraces import CayleyTable, SkewBraceData

FORMAT = "braceforge/1"

# Each kind's record type; for a map-bearing kind also its Hopf components,
# as (attribute, document prefix, dimension key), then the record's own maps.
_LAYOUTS = {
    "hopf": (HopfAlgebraData, (), HOPF_MAPS),
    "brace": (HopfBraceData, (), BRACE_MAPS),
    "obt": (OppBraceTripleData, (("hopf", "", "dim"),), OBT_EXTRA_MAPS),
    "matched_pair": (MatchedPairData, (("first", "first_", "dim"),
                                       ("second", "second_", "dim_second")),
                     MP_EXTRA_MAPS),
    "group": (CayleyTable, (), ()),
    "skew_brace": (SkewBraceData, (), ()),
}
KINDS = tuple(_LAYOUTS)


def _map_shapes(kind: str, dims: dict[str, int]) -> dict[str, tuple[int, int]]:
    _, components, own = _LAYOUTS[kind]
    shapes = {prefix + name: shape for _, prefix, key in components
              for name, shape in _shapes(HOPF_MAPS, dims[key]).items()}
    if kind == "matched_pair":  # its actions span both carriers
        return {**shapes, **_action_shapes(dims["dim"], dims["dim_second"])}
    return {**shapes, **_shapes(own, dims["dim"])}


# ---------------------------------------------------------------------------
# document -> object

def _expect_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(doc)
    missing = required - keys
    if missing:
        raise SchemaError(f"{where}: missing keys {sorted(missing)}")
    extra = keys - required - optional
    if extra:
        raise SchemaError(f"{where}: unexpected keys {sorted(extra)}")


def _parse_matrix(field, data: Any, shape: tuple[int, int], where: str) -> LinMap:
    rows, cols = shape
    if not isinstance(data, list) or len(data) != rows:
        raise ShapeError(f"{where}: expected {rows} rows")
    entries = {}
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ShapeError(f"{where}[{i}]: expected {cols} columns")
        for j, s in enumerate(row):
            if not isinstance(s, str):
                raise SchemaError(f"{where}[{i}][{j}]: scalar must be a string")
            try:
                entries[(i, j)] = field.parse(s)
            except ValueError as exc:
                raise CanonicalFormError(f"{where}[{i}][{j}]: {exc}") from None
    return LinMap(field, Space(cols), Space(rows), entries)


def _parse_int_table(data: Any, n: int, where: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(data, list) or len(data) != n:
        raise ShapeError(f"{where}: expected {n} rows")
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise ShapeError(f"{where}[{i}]: expected {n} columns")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise SchemaError(f"{where}[{i}][{j}]: entry must be an index in [0,{n})")
        out.append(tuple(row))
    return tuple(out)


def _get_dim(doc: dict, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise SchemaError(f"{key} must be a positive integer")
    return v


def _get_identity(doc: dict, n: int) -> int:
    v = doc.get("identity")
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise SchemaError("identity must be an index in [0, order)")
    return v


def _get_meta(doc: dict) -> dict | None:
    meta = doc.get("metadata")
    if meta is None:
        return None
    if not isinstance(meta, dict):
        raise SchemaError("metadata must be an object")
    return meta


def _get_field(doc: dict):
    spec = doc.get("field")
    if not isinstance(spec, str):
        raise SchemaError("field must be a string spec")
    try:
        return parse_field(spec)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def _get_maps(doc: dict, names: tuple[str, ...]) -> dict:
    maps = doc.get("maps")
    if not isinstance(maps, dict):
        raise SchemaError("maps must be an object")
    _expect_keys(maps, set(names), set(), "maps")
    return maps


def from_document(doc: Any):
    """Typed object from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    if doc.get("format") != FORMAT:
        raise SchemaError(f"format must be {FORMAT!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"kind must be one of {KINDS}")
    meta = _get_meta(doc)

    if kind == "group":
        _expect_keys(doc, {"format", "kind", "order", "identity", "table"},
                     {"metadata"}, "group")
        n = _get_dim(doc, "order")
        ident = _get_identity(doc, n)
        table = _parse_int_table(doc["table"], n, "table")
        return CayleyTable(table, ident, meta)

    if kind == "skew_brace":
        _expect_keys(doc, {"format", "kind", "order", "identity", "dot", "circ"},
                     {"metadata"}, "skew_brace")
        n = _get_dim(doc, "order")
        ident = _get_identity(doc, n)
        dot = CayleyTable(_parse_int_table(doc["dot"], n, "dot"), ident)
        circ = CayleyTable(_parse_int_table(doc["circ"], n, "circ"), ident)
        return SkewBraceData(dot, circ, meta)

    cls, components, _ = _LAYOUTS[kind]
    dim_keys = dict.fromkeys(("dim", *(key for *_, key in components)))
    _expect_keys(doc, {"format", "kind", "field", "maps", *dim_keys},
                 {"metadata"}, kind)
    field = _get_field(doc)
    dims = {key: _get_dim(doc, key) for key in dim_keys}
    shapes = _map_shapes(kind, dims)
    maps = _get_maps(doc, tuple(shapes))
    parsed = {name: _parse_matrix(field, maps[name], shape, f"maps.{name}")
              for name, shape in shapes.items()}
    hopfs = {attr: HopfAlgebraData(**{name: parsed.pop(prefix + name)
                                      for name in HOPF_MAPS})
             for attr, prefix, _ in components}
    return cls(**hopfs, **parsed, meta=meta)


# ---------------------------------------------------------------------------
# object -> document

def _dump_matrix(f: LinMap) -> list[list[str]]:
    fmt = f.field.format
    return [[fmt(v) for v in row] for row in f.rows()]


def _maps_of(kind: str, obj) -> dict[str, LinMap]:
    """Every structure map of a map-bearing object, by document name."""
    _, components, own = _LAYOUTS[kind]
    maps = {prefix + name: getattr(getattr(obj, attr), name)
            for attr, prefix, _ in components for name in HOPF_MAPS}
    return {**maps, **{name: getattr(obj, name) for name in own}}


def kind_of(obj) -> str:
    for kind, (cls, *_) in _LAYOUTS.items():
        if isinstance(obj, cls):
            return kind
    raise SchemaError(f"cannot store objects of type {type(obj).__name__}")


def to_document(obj) -> dict:
    """Plain JSON document for a storable object."""
    kind = kind_of(obj)
    doc: dict[str, Any] = {"format": FORMAT, "kind": kind}
    meta = getattr(obj, "meta", None)
    if meta:
        doc["metadata"] = meta

    if kind == "group":
        doc["order"] = obj.order
        doc["identity"] = obj.identity
        doc["table"] = [list(row) for row in obj.table]
        return doc
    if kind == "skew_brace":
        doc["order"] = obj.order
        doc["identity"] = obj.dot.identity
        doc["dot"] = [list(row) for row in obj.dot.table]
        doc["circ"] = [list(row) for row in obj.circ.table]
        return doc

    doc["field"] = obj.field.name
    components = _LAYOUTS[kind][1]
    doc.update({key: getattr(obj, attr).space.dim for attr, _, key in components}
               or {"dim": obj.space.dim})
    doc["maps"] = {name: _dump_matrix(f) for name, f in _maps_of(kind, obj).items()}
    return doc


def dumps(obj) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def _object(pairs: list) -> dict:
    """A JSON object, which must name each key once."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def loads(text: str):
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # too deep, or too many digits
        raise ParseError(f"cannot parse: {exc}") from None
    return from_document(doc)


def save(obj, path) -> None:
    text = dumps(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads(text)
