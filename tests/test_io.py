import hashlib
import json
import re
import typing

import pytest

from braceforge import (CayleyTable, HopfAlgebraData, HopfBraceData, LinMap,
                        MatchedPairData, OppBraceTripleData, PrimeField, QQ,
                        cyclic, dumps, enumerate_skew_braces, functor_F,
                        functor_Q, group_algebra, kind_of, linearize, load,
                        loads, save, symmetric_3, to_document)
from braceforge.brace import BRACE_MAPS
from braceforge.errors import (CanonicalFormError, ParseError, SchemaError,
                               ShapeError)
from braceforge.hopf import HOPF_MAPS
from braceforge.matched import MP_EXTRA_MAPS
from braceforge.obt import OBT_EXTRA_MAPS

from mutants import (dual_group_hopf, trivial_left_action,
                     trivial_right_action)

F5 = PrimeField(5)


def sample_objects():
    s = enumerate_skew_braces(cyclic(4))[1]
    b = linearize(s, QQ)
    yield group_algebra(symmetric_3(), QQ)
    yield group_algebra(cyclic(4), F5)
    yield dual_group_hopf(symmetric_3(), QQ)
    yield b
    yield linearize(s, F5)
    yield functor_Q(b)
    yield functor_F(b)
    yield symmetric_3()
    yield s


def test_kind_of():
    kinds = [kind_of(o) for o in sample_objects()]
    assert kinds == ["hopf", "hopf", "hopf", "brace", "brace", "obt",
                     "matched_pair", "group", "skew_brace"]
    with pytest.raises(SchemaError):
        kind_of(42)


def linmap_members(cls) -> list[str]:
    """Names of the LinMap-typed fields and properties of a data class."""
    names = [n for n, t in typing.get_type_hints(cls).items() if t is LinMap]
    names += [n for n, v in vars(cls).items() if isinstance(v, property)
              and typing.get_type_hints(v.fget).get("return") is LinMap]
    return names


def test_map_lists_name_every_structure_map():
    assert sorted(linmap_members(HopfAlgebraData)) == sorted(HOPF_MAPS)
    assert len(set(HOPF_MAPS)) == len(HOPF_MAPS)
    assert linmap_members(HopfBraceData) == list(BRACE_MAPS)
    assert linmap_members(OppBraceTripleData) == list(OBT_EXTRA_MAPS)
    assert linmap_members(MatchedPairData) == list(MP_EXTRA_MAPS)


# sha256 of dumps() for one object of each kind, frozen from an earlier
# build so that a rewrite of the storage layer cannot change file bytes
GOLDEN_SHA256 = {
    "hopf": "45dc141fe26722ef2e7a4478e0a722c43d8924b4f9072a5a26f803cb811ad614",
    "brace": "6fbb9e1cf9fb148ccf11219afcf1a5ce87cea55a591189b46a5fe833c3be1baa",
    "obt": "9fcce61af41b062c499bcad2a29a79e47951a6238c6b0d0b6498f8d6ce496044",
    "matched_pair": "168e1fd33dc0100340fe3d3cb9c4cbd62073aa320fd16e38c5a28a03efb49447",
    "group": "d2ecd68356ff370d220b5a326c0c05fa07edfef809841c2eb633cfc94da18dc5",
    "skew_brace": "b4778fb3b9ad029cc47eb9642024acfd44f9f12338a946bd77ea3f4334ae0e0b",
}


def test_dumps_bytes_are_frozen():
    s = enumerate_skew_braces(cyclic(4))[1]
    b = linearize(s, QQ)
    objs = {"hopf": group_algebra(symmetric_3(), F5), "brace": b,
            "obt": functor_Q(b), "matched_pair": functor_F(b),
            "group": symmetric_3(), "skew_brace": s}
    for kind, obj in objs.items():
        assert kind_of(obj) == kind
        digest = hashlib.sha256(dumps(obj).encode()).hexdigest()
        assert digest == GOLDEN_SHA256[kind], kind


def test_save_load_save_is_byte_identical(tmp_path):
    for i, obj in enumerate(sample_objects()):
        p1 = tmp_path / f"a{i}.json"
        p2 = tmp_path / f"b{i}.json"
        save(obj, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


def test_loads_dumps_roundtrip_object_equality():
    for obj in sample_objects():
        back = loads(dumps(obj))
        assert kind_of(back) == kind_of(obj)
        assert dumps(back) == dumps(obj)


def test_document_shape_and_canonical_text():
    h = group_algebra(cyclic(2), QQ)
    doc = to_document(h)
    assert doc["format"] == "braceforge/1"
    assert doc["kind"] == "hopf"
    assert doc["field"] == "Q"
    assert doc["dim"] == 2
    assert doc["maps"]["product"] == [["1", "0", "0", "1"], ["0", "1", "1", "0"]]
    assert doc["metadata"] == {"label": "Z2"}
    text = dumps(h)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_prime_field_scalars_are_residue_strings():
    doc = to_document(group_algebra(cyclic(3), F5))
    assert doc["field"] == "Fp:5"
    assert set(sum(doc["maps"]["antipode"], [])) <= {"0", "1"}


def test_metadata_preserved_verbatim(tmp_path):
    t = CayleyTable(((0, 1), (1, 0)), 0, {"label": "Z2", "note": ["x", 1]})
    p = tmp_path / "g.json"
    save(t, p)
    back = load(p)
    assert back.meta == {"label": "Z2", "note": ["x", 1]}


def test_empty_metadata_round_trips_byte_identically():
    doc = to_document(symmetric_3())
    doc["metadata"] = {}
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    back = loads(text)
    assert back.meta == {}
    assert dumps(back) == text


def test_null_metadata_is_rejected():
    doc = hopf_doc()
    doc["metadata"] = None
    with pytest.raises(SchemaError, match="^metadata must be an object$"):
        loads(json.dumps(doc))


def test_matched_pair_document_keys():
    s = enumerate_skew_braces(cyclic(4))[1]
    m = functor_F(linearize(s, QQ))
    doc = to_document(m)
    assert doc["dim"] == 4 and doc["dim_second"] == 4
    expected = {f"first_{k}" for k in ("unit", "product", "counit",
                                       "coproduct", "antipode")}
    expected |= {k.replace("first_", "second_") for k in expected}
    expected |= {"left_action", "right_action"}
    assert set(doc["maps"]) == expected


def two_carrier_pair():
    """A matched pair of Z2 and Z3 acting trivially, so dim != dim_second."""
    a, h = group_algebra(cyclic(2), QQ), group_algebra(cyclic(3), QQ)
    return MatchedPairData(first=a, second=h,
                           left_action=trivial_left_action(h, a.space),
                           right_action=trivial_right_action(h.space, a))


def test_two_carrier_matched_pair_save_load_save(tmp_path):
    m = two_carrier_pair()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save(m, p1)
    back = load(p1)
    save(back, p2)
    assert back == m
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert (doc["dim"], doc["dim_second"]) == (2, 3)


# -- rejection paths ----------------------------------------------------------

def hopf_doc():
    return to_document(group_algebra(cyclic(2), QQ))


def test_rejects_non_canonical_scalars():
    for bad in ("2/4", "3/1", "-0", "+1", "01", ""):
        doc = hopf_doc()
        doc["maps"]["antipode"][0][0] = bad
        with pytest.raises(CanonicalFormError):
            loads(json.dumps(doc))


def test_rejects_out_of_range_residues():
    doc = to_document(group_algebra(cyclic(2), F5))
    doc["maps"]["antipode"][0][0] = "5"
    with pytest.raises(CanonicalFormError):
        loads(json.dumps(doc))


def test_rejects_wrong_shapes():
    doc = hopf_doc()
    doc["maps"]["product"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(ShapeError):
        loads(json.dumps(doc))
    doc = hopf_doc()
    doc["maps"]["unit"].append(["0"])
    with pytest.raises(ShapeError):
        loads(json.dumps(doc))


def test_rejects_second_component_shaped_for_dim():
    doc = to_document(two_carrier_pair())
    for name, rows in hopf_doc()["maps"].items():
        doc["maps"]["second_" + name] = rows
    with pytest.raises(ShapeError, match="maps.second_"):
        loads(json.dumps(doc))


def test_rejects_schema_violations():
    with pytest.raises(SchemaError, match=r"^top level must be an object$"):
        loads("[]")

    doc = hopf_doc()
    doc["maps"] = []
    with pytest.raises(SchemaError, match=r"^maps must be an object$"):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["field"] = 5
    with pytest.raises(SchemaError, match=r"^field must be a string spec$"):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["surprise"] = 1
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))

    doc = hopf_doc()
    del doc["maps"]["antipode"]
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["format"] = "braceforge/2"
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["kind"] = "bialgebra"
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["metadata"] = "hello"
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["maps"]["antipode"][0][0] = 1
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))

    doc = hopf_doc()
    doc["dim"] = 0
    with pytest.raises(SchemaError):
        loads(json.dumps(doc))


def test_rejects_bad_field_spec():
    doc = hopf_doc()
    doc["field"] = "F5"
    with pytest.raises((SchemaError, ValueError)):
        loads(json.dumps(doc))
    doc["field"] = "Fp:5"
    assert loads(json.dumps(doc)).field == F5
    for spec in ("Fp:５", "Fp:٥"):
        doc["field"] = spec
        with pytest.raises(SchemaError, match="bad field spec"):
            loads(json.dumps(doc, ensure_ascii=False))


def test_rejects_bad_group_documents():
    t = to_document(symmetric_3())
    t["table"][0][0] = 9
    with pytest.raises(SchemaError):
        loads(json.dumps(t))

    t = to_document(symmetric_3())
    t["order"] = 5
    with pytest.raises(ShapeError):
        loads(json.dumps(t))

    for identity in (6, True):
        t = to_document(symmetric_3())
        t["identity"] = identity
        with pytest.raises(SchemaError,
                           match=r"^identity must be an index in \[0, order\)$"):
            loads(json.dumps(t))

    t = to_document(symmetric_3())
    t["table"][0].pop()
    with pytest.raises(ShapeError, match=r"^table\[0\]: expected 6 columns$"):
        loads(json.dumps(t))


def test_parse_error_on_malformed_json(tmp_path):
    for text in ("{not json", "[" * 200000, "1" * 5000):
        with pytest.raises(ParseError):
            loads(text)
    with pytest.raises(ParseError):
        load(tmp_path / "missing.json")
    # a repeated key, at the top or nested, is named instead of the last
    # value silently winning
    for text, key in (('{"kind": "hopf", "kind": "group"}', "kind"),
                      ('{"maps": {"unit": [], "unit": []}}', "unit")):
        with pytest.raises(ParseError, match=f"^duplicate key '{key}'$"):
            loads(text)
    path = tmp_path / "latin1.json"
    path.write_bytes('{"metadata": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ParseError, match=f"^cannot read {re.escape(str(path))}: 'utf-8' codec"):
        load(path)


def test_loaded_objects_still_pass_checks(tmp_path):
    from braceforge import check_hopf, check_obt, check_mp_over_A
    s = enumerate_skew_braces(cyclic(4))[1]
    b = linearize(s, QQ)
    for obj, checker in ((functor_Q(b), check_obt),
                         (functor_F(b), check_mp_over_A),
                         (group_algebra(symmetric_3(), F5), check_hopf)):
        p = tmp_path / "x.json"
        save(obj, p)
        assert checker(load(p)).ok
