import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braceforge import (LinMap, PrimeField, QQ, Space, braiding, compose,
                        cyclic, equal, first_difference, group_algebra,
                        parse_field, tensor)
from braceforge.errors import DimensionMismatch, FieldMismatch
from braceforge.linmap import equation_entry, interchange
from braceforge.report import CheckEntry

F5 = PrimeField(5)
F7 = PrimeField(7)


# -- fields ------------------------------------------------------------------

def test_prime_validation():
    for p in (2, 3, 5, 7, 31, 97, 2**61 - 1):
        assert PrimeField(p).p == p
    for n in (-3, 0, 1, 4, 9, 15, 561, 1105, 2047, 3215031751):
        with pytest.raises(ValueError):
            PrimeField(n)


@pytest.mark.parametrize("field", [QQ, F5, F7])
def test_field_values_pickle_compare_hash_and_freeze(field):
    copy = pickle.loads(pickle.dumps(field))
    assert copy == field and hash(copy) == hash(field)
    assert copy.name == field.name
    others = [f for f in (QQ, F5, F7) if f is not field]
    assert all(field != f for f in others)
    assert len({QQ, F5, F7, copy}) == 3
    with pytest.raises(AttributeError):
        field.p = 11
    m = LinMap.from_rows(field, [[1, 2], [0, 3]])
    m_copy = pickle.loads(pickle.dumps(m))
    assert m_copy == m and hash(m_copy) == hash(m)
    assert m_copy.field == field


def test_rationals_parse_canonical():
    assert QQ.parse("0") == 0
    assert QQ.parse("-7") == -7
    assert QQ.parse("3/4") == Fraction(3, 4)
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    for bad in ("2/4", "3/1", "-0", "+1", "01", "1/0", "4/-2", " 1", "1 ",
                "", "0/2", "-0/3", "1/02", "1.5", "a"):
        with pytest.raises(ValueError):
            QQ.parse(bad)


def test_prime_field_parse_canonical():
    assert F5.parse("0") == 0
    assert F5.parse("4") == 4
    for bad in ("5", "7", "-1", "04", "", " 1", "1/2"):
        with pytest.raises(ValueError):
            F5.parse(bad)
    assert F5.format(-3) == "2"
    assert F5.format(12) == "2"


def test_parse_field():
    assert parse_field("Q") is QQ
    assert parse_field("Fp:5") == F5
    for bad in ("q", "F5", "Fp:", "Fp:05", "Fp:4", "Fp:x", "R", "Fp:５", "Fp:٥"):
        with pytest.raises(ValueError):
            parse_field(bad)


@given(st.fractions(), st.fractions(), st.fractions())
def test_rationals_field_axioms(a, b, c):
    assert QQ.add(a, b) == QQ.add(b, a)
    assert QQ.mul(a, b) == QQ.mul(b, a)
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(QQ.mul(a, b), c) == QQ.mul(a, QQ.mul(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.add(a, QQ.neg(a)) == QQ.zero()
    assert QQ.sub(a, b) == QQ.add(a, QQ.neg(b))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == QQ.one()


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_prime_field_axioms(a, b, c):
    f = F7
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@given(st.fractions())
def test_rationals_format_parse_roundtrip(a):
    assert QQ.parse(QQ.format(a)) == a


@given(st.integers(0, 4))
def test_prime_field_format_parse_roundtrip(a):
    assert F5.parse(F5.format(a)) == a


def _is_canonical_q(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


_Q_SCALARS = st.one_of(st.integers(-3, 3),
                       st.fractions(-3, 3, max_denominator=3))


@st.composite
def _q_rows(draw, nrows, ncols):
    return [draw(st.lists(_Q_SCALARS, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


@given(st.data())
def test_q_values_are_int_or_proper_fraction(data):
    # Fraction(n) inputs (denominator 1) must come out as the int n
    a, b, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    f = LinMap.from_rows(QQ, data.draw(_q_rows(c, b)))
    rows = data.draw(_q_rows(b, a))
    g = LinMap(QQ, Space(a), Space(b),
               {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})
    for m in (f, g, compose(f, g), tensor(f, g), tensor(g, f)):
        assert all(_is_canonical_q(v) for _, v in m.items()), m.rows()
    x, y = data.draw(_Q_SCALARS), data.draw(_Q_SCALARS)
    for v in (QQ.coerce(x), QQ.parse(QQ.format(x)), QQ.add(x, y), QQ.sub(x, y),
              QQ.mul(x, y), QQ.neg(x)):
        assert _is_canonical_q(v), (x, y, v)
    if x != 0:
        assert _is_canonical_q(QQ.inv(x))


def test_q_integral_results_are_ints():
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    for v in (QQ.mul(Fraction(1, 2), 2), QQ.add(Fraction(1, 2), Fraction(1, 2)),
              QQ.inv(Fraction(1, 1)), QQ.parse("1"), QQ.coerce(Fraction(2, 2))):
        assert v == 1 and type(v) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.format(Fraction(-6, 3)) == QQ.format(-2) == "-2"
    half = LinMap.from_rows(QQ, [[Fraction(1, 2), Fraction(1, 2)]])
    one = compose(half, LinMap.from_rows(QQ, [[1], [1]]))
    assert one.rows() == [[1]] and type(one.entry(0, 0)) is int
    assert type(tensor(half, LinMap.from_rows(QQ, [[2]])).entry(0, 0)) is int


def test_coerce_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    with pytest.raises(TypeError):
        QQ.coerce(True)
    with pytest.raises(TypeError):
        F5.coerce(True)
    assert F5.coerce(-3) == 2


# -- LinMap basics -----------------------------------------------------------

def test_from_rows_and_entry():
    m = LinMap.from_rows(QQ, [[1, 2], [0, Fraction(1, 3)]])
    assert m.shape() == (2, 2)
    assert m.entry(0, 1) == 2
    assert m.entry(1, 0) == 0
    assert m.entry(1, 1) == Fraction(1, 3)
    assert m.support_size() == 3
    assert m.rows() == [[1, 2], [0, Fraction(1, 3)]]


def test_from_rows_rejects_ragged_and_mismatched():
    with pytest.raises(DimensionMismatch):
        LinMap.from_rows(QQ, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        LinMap.from_rows(QQ, [[1]], domain=Space(2))
    with pytest.raises(DimensionMismatch):
        LinMap(QQ, Space(2), Space(2), {(2, 0): 1})


def test_linmap_immutable_and_hashable():
    m = LinMap.identity(QQ, Space(3))
    with pytest.raises(AttributeError):
        m.field = F5
    assert m == LinMap.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert hash(m) == hash(LinMap.identity(QQ, Space(3)))
    assert m != LinMap.identity(F5, Space(3))
    # built apart: from rows with a Fraction, by compose; the hash is kept
    h = group_algebra(cyclic(3), QQ)
    a = LinMap.from_rows(QQ, [[Fraction(2, 2), 0, 0], [0, 0, 1], [0, 1, 0]])
    b = compose(h.antipode, LinMap.identity(QQ, Space(3)))
    assert a == b and a is not b and hash(a) == hash(b) == hash(a)
    assert len({a, b, h.antipode}) == 1
    for x in (a, b):
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and hash(copy) == hash(x)


def _random_map(rng, field, dom, cod):
    entries = {}
    for i in range(cod):
        for j in range(dom):
            if rng.random() < 0.6:
                v = rng.randrange(-4, 5)
                entries[(i, j)] = field.coerce(v)
    return LinMap(field, Space(dom), Space(cod), entries)


def _dense_matmul(f, g):
    # independent reference: plain nested-loop product of dense rows
    fr, gr = f.rows(), g.rows()
    out = []
    for i in range(len(fr)):
        row = []
        for j in range(len(gr[0])):
            acc = f.field.zero()
            for k in range(len(gr)):
                acc = f.field.add(acc, f.field.mul(fr[i][k], gr[k][j]))
            row.append(acc)
        out.append(row)
    return out


def test_compose_matches_dense_matmul():
    rng = random.Random(20240817)
    for field in (QQ, F5):
        for _ in range(25):
            a, b, c = (rng.randrange(1, 5) for _ in range(3))
            f = _random_map(rng, field, b, c)
            g = _random_map(rng, field, a, b)
            assert compose(f, g).rows() == _dense_matmul(f, g)


def test_compose_identity_and_variadic():
    rng = random.Random(7)
    f = _random_map(rng, QQ, 3, 4)
    g = _random_map(rng, QQ, 2, 3)
    h = _random_map(rng, QQ, 5, 2)
    assert compose(LinMap.identity(QQ, Space(4)), f) == f
    assert compose(f, LinMap.identity(QQ, Space(3))) == f
    assert compose(f, g, h) == compose(compose(f, g), h)
    assert compose(f, g, h) == compose(f, compose(g, h))
    assert compose(f) == f


def test_compose_frozen_group_algebra_value():
    # product o coproduct on Q[Z2] sends both basis vectors to the identity
    h = group_algebra(cyclic(2), QQ)
    assert compose(h.product, h.coproduct) == LinMap.from_rows(QQ, [[1, 1], [0, 0]])


def test_compose_shape_and_field_errors():
    f = LinMap.identity(QQ, Space(3))
    g = LinMap.identity(QQ, Space(2))
    with pytest.raises(DimensionMismatch):
        compose(f, g)
    with pytest.raises(FieldMismatch):
        compose(f, LinMap.identity(F5, Space(3)))
    with pytest.raises(FieldMismatch):
        tensor(f, LinMap.identity(F5, Space(3)))


def test_compose_names_the_leftmost_mismatch():
    # the chain folds from the right, but the first bad pair from the left
    # is the one named
    with pytest.raises(DimensionMismatch) as err:
        compose(LinMap.identity(QQ, Space(2)), LinMap.zero(QQ, Space(4), Space(3)),
                LinMap.identity(QQ, Space(5)))
    assert str(err.value) == "compose: domain dim 2 != codomain dim 3"


def test_tensor_index_convention():
    rng = random.Random(11)
    f = _random_map(rng, QQ, 2, 3)
    g = _random_map(rng, QQ, 4, 2)
    t = tensor(f, g)
    assert t.shape() == (3 * 2, 2 * 4)
    for i in range(3):
        for j in range(2):
            for k in range(2):
                for ell in range(4):
                    assert t.entry(i * 2 + j, k * 4 + ell) == \
                        f.entry(i, k) * g.entry(j, ell)


def test_tensor_variadic_and_functorial():
    rng = random.Random(13)
    f = _random_map(rng, F5, 2, 2)
    g = _random_map(rng, F5, 3, 2)
    h = _random_map(rng, F5, 2, 3)
    assert tensor(f, g, h) == tensor(tensor(f, g), h)
    assert tensor(f, g, h) == tensor(f, tensor(g, h))
    # (f (x) g) o (f' (x) g') = (f o f') (x) (g o g')
    f2 = _random_map(rng, F5, 4, 2)
    g2 = _random_map(rng, F5, 1, 3)
    assert compose(tensor(f, g), tensor(f2, g2)) == \
        tensor(compose(f, f2), compose(g, g2))


def test_braiding_frozen_2x2():
    c = braiding(QQ, Space(2), Space(2))
    assert c.rows() == [[1, 0, 0, 0], [0, 0, 1, 0],
                        [0, 1, 0, 0], [0, 0, 0, 1]]


def test_braiding_involutive_and_natural():
    for a, b in ((2, 3), (3, 2), (1, 4), (4, 4)):
        sa, sb = Space(a), Space(b)
        assert compose(braiding(QQ, sb, sa), braiding(QQ, sa, sb)) == \
            LinMap.identity(QQ, sa.tensor(sb))
    rng = random.Random(17)
    f = _random_map(rng, QQ, 2, 3)  # A -> A'
    g = _random_map(rng, QQ, 4, 2)  # B -> B'
    lhs = compose(braiding(QQ, Space(3), Space(2)), tensor(f, g))
    rhs = compose(tensor(g, f), braiding(QQ, Space(2), Space(4)))
    assert lhs == rhs


def test_interchange_index_oracle():
    # id_A (x) c_{A,B} (x) id_B: e_i (x) e_j (x) e_k (x) e_l -> e_i (x) e_k (x) e_j (x) e_l
    na, nb = 2, 3
    for field in (QQ, F5):
        expected = {
            (((i * nb + k) * na + j) * nb + ell,   # row of e_i (x) e_k (x) e_j (x) e_l
             ((i * na + j) * nb + k) * nb + ell): 1  # column of e_i (x) e_j (x) e_k (x) e_l
            for i in range(na) for j in range(na)
            for k in range(nb) for ell in range(nb)}
        x = interchange(field, Space(na), Space(nb))
        assert x.shape() == (na * nb * na * nb, na * na * nb * nb)
        assert x == LinMap(field, x.domain, x.codomain, expected)


def test_first_difference_frozen_witness():
    # the antipode of Q[Z3] is the inversion permutation, not the identity
    h = group_algebra(cyclic(3), QQ)
    ok, wit = equal(h.antipode, LinMap.identity(QQ, Space(3)))
    assert not ok
    assert wit == {"kind": "entry", "row": 1, "col": 1, "left": "0", "right": "1"}


def test_first_difference_scans_by_domain_basis_vector():
    a = LinMap.from_rows(QQ, [[0, 1], [2, 0]])
    b = LinMap.from_rows(QQ, [[0, 0], [2, 1]])
    wit = first_difference(a, b)
    assert wit == {"kind": "entry", "row": 0, "col": 1, "left": "1", "right": "0"}
    assert first_difference(a, a) is None


def test_first_difference_field_and_shape_kinds():
    a = LinMap.identity(QQ, Space(2))
    assert first_difference(a, LinMap.identity(F5, Space(2)))["kind"] == "field"
    assert first_difference(a, LinMap.identity(QQ, Space(3)))["kind"] == "shape"


def test_equation_entry_and_check_entry_invariant():
    a = LinMap.identity(QQ, Space(2))
    e = equation_entry("x", a, a)
    assert e.passed and e.witness is None
    e = equation_entry("x", a, LinMap.zero(QQ, Space(2), Space(2)))
    assert not e.passed and e.witness["kind"] == "entry"
    with pytest.raises(ValueError):
        CheckEntry("x", False, None)
