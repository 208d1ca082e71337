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

Serialization is canonical: sorted keys, two-space indent, trailing
newline.  save(load(f)) is byte-identical for files produced by save.
"""
from __future__ import annotations

import json
from typing import Any

from .brace import BRACE_MAPS, HopfBraceData
from .errors import CanonicalFormError, ParseError, SchemaError, ShapeError
from .hopf import HOPF_MAPS, HopfAlgebraData, _shapes
from .linmap import LinMap, Space, parse_field
from .matched import MP_EXTRA_MAPS, MatchedPairData, _action_shapes
from .obt import OBT_EXTRA_MAPS, OppBraceTripleData
from .skewbraces import CayleyTable, SkewBraceData

FORMAT = "braceforge/1"

_TYPES = {
    "hopf": HopfAlgebraData,
    "brace": HopfBraceData,
    "obt": OppBraceTripleData,
    "matched_pair": MatchedPairData,
    "group": CayleyTable,
    "skew_brace": SkewBraceData,
}
KINDS = tuple(_TYPES)


def _map_shapes(kind: str, dims: dict[str, int]) -> dict[str, tuple[int, int]]:
    n = dims["dim"]
    if kind == "hopf":
        return _shapes(HOPF_MAPS, n)
    if kind == "brace":
        return _shapes(BRACE_MAPS, n)
    if kind == "obt":
        return _shapes(HOPF_MAPS + OBT_EXTRA_MAPS, n)
    nh = dims["dim_second"]
    return {**_shapes(HOPF_MAPS, n, "first_"), **_shapes(HOPF_MAPS, nh, "second_"),
            **_action_shapes(n, nh)}


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

    required = {"format", "kind", "field", "dim", "maps"}
    if kind == "matched_pair":
        required.add("dim_second")
    _expect_keys(doc, required, {"metadata"}, kind)
    field = _get_field(doc)
    dims = {"dim": _get_dim(doc, "dim")}
    if kind == "matched_pair":
        dims["dim_second"] = _get_dim(doc, "dim_second")
    shapes = _map_shapes(kind, dims)
    maps = _get_maps(doc, tuple(shapes))
    parsed = {name: _parse_matrix(field, maps[name], shape, f"maps.{name}")
              for name, shape in shapes.items()}

    if kind in ("hopf", "brace"):
        return _TYPES[kind](**parsed, meta=meta)
    if kind == "obt":
        hopf = _pop_hopf(parsed, "")
        return OppBraceTripleData(hopf=hopf, **parsed, meta=meta)
    first, second = _pop_hopf(parsed, "first_"), _pop_hopf(parsed, "second_")
    return MatchedPairData(first=first, second=second, **parsed, meta=meta)


def _pop_hopf(parsed: dict[str, LinMap], prefix: str) -> HopfAlgebraData:
    """The Hopf component stored under prefix, removed from parsed."""
    return HopfAlgebraData(**{name: parsed.pop(prefix + name) for name in HOPF_MAPS})


# ---------------------------------------------------------------------------
# object -> document

def _dump_matrix(f: LinMap) -> list[list[str]]:
    fmt = f.field.format
    return [[fmt(v) for v in row] for row in f.rows()]


def _named(obj, names: tuple[str, ...], prefix: str = "") -> dict[str, LinMap]:
    return {prefix + name: getattr(obj, name) for name in names}


def _maps_of(kind: str, obj) -> dict[str, LinMap]:
    """Every structure map of a map-bearing object, by document name."""
    if kind == "hopf":
        return _named(obj, HOPF_MAPS)
    if kind == "brace":
        return _named(obj, BRACE_MAPS)
    if kind == "obt":
        return {**_named(obj.hopf, HOPF_MAPS), **_named(obj, OBT_EXTRA_MAPS)}
    return {**_named(obj.first, HOPF_MAPS, "first_"),
            **_named(obj.second, HOPF_MAPS, "second_"),
            **_named(obj, MP_EXTRA_MAPS)}


def kind_of(obj) -> str:
    for kind, cls in _TYPES.items():
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
    if kind == "matched_pair":
        doc["dim"] = obj.first.space.dim
        doc["dim_second"] = obj.second.space.dim
    else:
        doc["dim"] = (obj.hopf if kind == "obt" else obj).space.dim
    doc["maps"] = {name: _dump_matrix(f) for name, f in _maps_of(kind, obj).items()}
    return doc


def dumps(obj) -> str:
    """Canonical text form: sorted keys, two-space indent, trailing newline."""
    return json.dumps(to_document(obj), sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    return from_document(doc)


def save(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return loads(text)
