import itertools
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braceforge import (LinMap, PrimeField, QQ, Space, braiding, check_hopf,
                        compose, cyclic, equal, first_difference, group_algebra,
                        groups_of_order, parse_field, tensor)
from braceforge.errors import DimensionMismatch, FieldMismatch
from braceforge.linmap import _factor_columns, equation_entry, legwise
from braceforge.report import CheckEntry

F5 = PrimeField(5)
F7 = PrimeField(7)


# -- fields ------------------------------------------------------------------

def test_prime_validation():
    for p in (2, 3, 5, 7, 31, 97, 2**61 - 1):
        assert PrimeField(p).p == p
    # the last two are strong pseudoprimes to the bases 2..37 and 2..41
    for n in (-3, 0, 1, 4, 9, 15, 561, 1105, 2047, 3215031751,
              318665857834031151167461, 3317044064679887385961981):
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
    for field, zero in ((QQ, 0), (F5, 10)):
        with pytest.raises(ZeroDivisionError, match=r"^inverse of zero$"):
            field.inv(zero)


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
        LinMap(QQ, Space(2), Space(2), {(2, 0): 1})
    for rows in ([], [[]]):
        with pytest.raises(DimensionMismatch,
                           match=r"^matrix needs at least one row and column$"):
            LinMap.from_rows(QQ, rows)


def test_constructor_rejects_non_integer_indices():
    for key in ((0.5, 0), (0, 0.5), (True, 0), (0, False), ("0", 0), (0, 1.0)):
        with pytest.raises(DimensionMismatch):
            LinMap(QQ, Space(2), Space(2), {key: 1})
    with pytest.raises(DimensionMismatch):
        LinMap(F5, Space(2), Space(2), {(0, True): 0})  # even for a zero value
    assert LinMap(QQ, Space(2), Space(2), {(1, 0): 1}).rows() == [[0, 0], [1, 0]]


def test_entry_rejects_non_integer_indices():
    m = LinMap.identity(QQ, Space(2))
    for i, j in ((0.5, 0), (0, 0.5), (True, 1), (1, True), ("0", 0), (0, 1.0)):
        with pytest.raises(DimensionMismatch):
            m.entry(i, j)
    with pytest.raises(DimensionMismatch, match=r"^entry \(2,0\) outside 2x2$"):
        m.entry(2, 0)
    assert (m.entry(1, 1), m.entry(1, 0)) == (1, 0)


@pytest.mark.parametrize("dim", [True, False, 0, -1, 1.0, 2.5, "2", None])
def test_space_rejects_non_integer_and_bool_dims(dim):
    with pytest.raises(DimensionMismatch):
        Space(dim)


def test_linmap_immutable_and_hashable():
    m = LinMap.identity(QQ, Space(3))
    with pytest.raises(AttributeError):
        m.field = F5
    assert m == LinMap.from_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert hash(m) == hash(LinMap.identity(QQ, Space(3)))
    assert m != LinMap.identity(F5, Space(3))
    assert m != 1 and not m == 1
    # built apart: from rows with a Fraction, by compose; the hash is kept
    h = group_algebra(cyclic(3), QQ)
    a = LinMap.from_rows(QQ, [[Fraction(2, 2), 0, 0], [0, 0, 1], [0, 1, 0]])
    b = compose(h.antipode, LinMap.identity(QQ, Space(3)))
    assert a == b and a is not b and hash(a) == hash(b) == hash(a)
    assert len({a, b, h.antipode}) == 1
    for x in (a, b):
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and hash(copy) == hash(x)


def test_repr_names_field_shape_and_support(count_calls):
    a = LinMap.from_rows(QQ, [[1, 0], [0, Fraction(1, 2)], [3, 0]])
    assert repr(a) == "LinMap(Q, 3x2, nnz=3)"
    # a lazy tensor counts its support from its factors, building no column
    built = count_calls(_factor_columns)
    t = tensor(a, LinMap.identity(QQ, Space(2)))
    assert repr(t) == "LinMap(Q, 6x4, nnz=6)"
    assert built == {"_factor_columns": 0}
    assert repr(LinMap.zero(F5, Space(2), Space(1))) == "LinMap(Fp:5, 1x2, nnz=0)"


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
    for op in (compose, tensor):
        with pytest.raises(ValueError,
                           match=rf"^{op.__name__} needs at least one map$"):
            op()


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


def _interchange(field, a, b):
    """id_A (x) c_{A,B} (x) id_B, the braiding padded to A (x) A (x) B (x) B,
    which legwise reads from the braiding's columns without building."""
    return tensor(LinMap.identity(field, a), braiding(field, a, b),
                  LinMap.identity(field, b))


def test_interchange_index_oracle():
    # id_A (x) c_{A,B} (x) id_B: e_i (x) e_j (x) e_k (x) e_l -> e_i (x) e_k (x) e_j (x) e_l
    na, nb = 2, 3
    for field in (QQ, F5):
        expected = {
            (((i * nb + k) * na + j) * nb + ell,   # row of e_i (x) e_k (x) e_j (x) e_l
             ((i * na + j) * nb + k) * nb + ell): 1  # column of e_i (x) e_j (x) e_k (x) e_l
            for i in range(na) for j in range(na)
            for k in range(nb) for ell in range(nb)}
        x = _interchange(field, Space(na), Space(nb))
        assert x.shape() == (na * nb * na * nb, na * na * nb * nb)
        assert x == LinMap(field, x.domain, x.codomain, expected)


def test_legwise_matches_the_sum_over_legs():
    # x (x) y -> sum c1[i (x) j, x] c2[k (x) l, y] f(e_i (x) e_k) (x) g(e_j (x) e_l)
    rng = random.Random(20261019)
    na, nb, nx, ny, nf, ng = 2, 3, 2, 3, 2, 3
    for field in (QQ, F5):
        def dense(rows, cols):
            return LinMap.from_rows(field, [
                [field.coerce(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
                 if field is QQ else rng.randrange(5) for _ in range(cols)]
                for _ in range(rows)])
        f, g = dense(nf, na * nb), dense(ng, na * nb)
        c1, c2 = dense(na * na, nx), dense(nb * nb, ny)
        expected = {}
        for x, y, i, j, k, ell, p, r in itertools.product(
                range(nx), range(ny), range(na), range(na), range(nb), range(nb),
                range(nf), range(ng)):
            key = (p * ng + r, x * ny + y)
            expected[key] = expected.get(key, 0) + (
                c1.entry(i * na + j, x) * c2.entry(k * nb + ell, y)
                * f.entry(p, i * nb + k) * g.entry(r, j * nb + ell))
        got = legwise(f, g, c1, c2)
        assert got.shape() == (nf * ng, nx * ny)
        assert got.support_size() > 0
        assert got == LinMap(field, got.domain, got.codomain,
                             {key: field.normalize(v) for key, v in expected.items()})


def test_legwise_names_a_map_whose_codomain_is_not_a_square():
    sq = LinMap.identity(QQ, Space(4))
    odd = LinMap.identity(QQ, Space(6))
    f = LinMap.identity(QQ, Space(12))
    with pytest.raises(DimensionMismatch, match="^legwise: c1 lands in dimension 6, not a square$"):
        legwise(f, f, odd, sq)
    with pytest.raises(DimensionMismatch, match="^legwise: c2 lands in dimension 6, not a square$"):
        legwise(f, f, sq, odd)


def test_legwise_names_a_map_that_does_not_take_both_legs():
    c1 = LinMap.identity(QQ, Space(4))  # A = 2
    c2 = LinMap.identity(QQ, Space(9))  # B = 3
    six, five = LinMap.identity(QQ, Space(6)), LinMap.identity(QQ, Space(5))
    with pytest.raises(DimensionMismatch, match="^legwise: f takes dimension 5, not 2·3 = 6$"):
        legwise(five, six, c1, c2)
    with pytest.raises(DimensionMismatch, match="^legwise: g takes dimension 5, not 2·3 = 6$"):
        legwise(six, five, c1, c2)
    for maps in ((six, six, c1, LinMap.identity(F5, Space(9))),
                 (LinMap.identity(F5, Space(6)), six, c1, c2)):
        with pytest.raises(FieldMismatch):
            legwise(*maps)


def _sparse_map(rng, field, dom, cod, density):
    """A random dom -> cod map, most of it zero; over Q its entries are
    Fractions, over F_p residues."""
    entries = {}
    for i in range(cod):
        for j in range(dom):
            if rng.random() < density:
                v = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                entries[(i, j)] = v if field is QQ else v.numerator
    return LinMap(field, Space(dom), Space(cod), entries)


def _assert_canonical(m):
    # the stored form that _raw expects: no empty column, no zero entry, and
    # each value already what the field's normalize makes of it
    for col in m._cols.values():
        assert col
        for v in col.values():
            assert v != 0
            assert type(m.field.normalize(v)) is type(v) and m.field.normalize(v) == v


def _unfused(f, g, c1, c2):
    a, b = (Space(math.isqrt(c.codomain.dim)) for c in (c1, c2))
    return compose(tensor(f, g), _interchange(f.field, a, b), tensor(c1, c2))


def test_legwise_equals_the_unfused_formula():
    """legwise against (f (x) g) o (id (x) c (x) id) o (c1 (x) c2), built the long
    way, over Q and F_5: sparse maps with empty columns, c2 the identity of
    a square, and sums that cancel to a zero entry and to a zero column."""
    rng = random.Random(1919)
    empty_columns = 0
    for field in (QQ, F5):
        for _ in range(40):
            na, nb, nx, ny, nf, ng = (rng.randint(1, 3) for _ in range(6))
            density = rng.choice((0.15, 0.4, 0.8))
            f = _sparse_map(rng, field, na * nb, nf, density)
            g = _sparse_map(rng, field, na * nb, ng, density)
            c1 = _sparse_map(rng, field, nx, na * na, density)
            c2 = (LinMap.identity(field, Space(nb * nb)) if rng.random() < 0.3
                  else _sparse_map(rng, field, ny, nb * nb, density))
            empty_columns += sum(len(m._cols) < m.domain.dim for m in (f, g, c1, c2))
            got, want = legwise(f, g, c1, c2), _unfused(f, g, c1, c2)
            assert got == want and hash(got) == hash(want)
            _assert_canonical(got)
        # A = 2, B = 1, so column x of the result is the sum over p = 2i + j
        # of c1[p, x] f(e_i) (x) g(e_j).  Columns 0 and 1 of f are both u.
        # c1 sends e_0 to e_0 (x) e_0 - e_1 (x) e_0, whose image u (x) g(e_0)
        # - u (x) g(e_0) is 0, and e_1 to e_0 (x) e_0 - e_0 (x) e_1, whose
        # image u (x) (g(e_0) - g(e_1)) = -u (x) e_1 keeps rows 1 and 3 only.
        half = field.coerce(Fraction(1, 2)) if field is QQ else field.inv(2)
        c1 = LinMap(field, Space(2), Space(4), {(0, 0): 1, (2, 0): -1, (0, 1): 1, (1, 1): -1})
        c2 = LinMap.identity(field, Space(1))
        f = LinMap(field, Space(2), Space(2), {(0, 0): half, (0, 1): half, (1, 0): 3, (1, 1): 3})
        g = LinMap(field, Space(2), Space(2), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2})
        got, want = legwise(f, g, c1, c2), _unfused(f, g, c1, c2)
        assert got == want and hash(got) == hash(want)
        _assert_canonical(got)
        assert set(got._cols) == {1} and set(got._cols[1]) == {1, 3}
    assert empty_columns > 20


def test_legwise_builds_no_kronecker_product(count_calls):
    # One order-8 legwise reads 64 columns of f (x) g; building it would
    # take 4096.  It builds no tensor product or composite at all, and the
    # memoized braiding is built once and read again on the second call.
    h = group_algebra(groups_of_order(8)[3], F5)
    braiding.cache_clear()
    counts = count_calls(tensor, compose)
    first = legwise(h.product, h.product, h.coproduct, h.coproduct)
    assert counts == {"tensor": 0, "compose": 0}
    assert braiding.cache_info()[:2] == (0, 1)  # hits, misses
    assert legwise(h.product, h.product, h.coproduct, h.coproduct) == first
    assert counts == {"tensor": 0, "compose": 0}
    assert braiding.cache_info()[:2] == (1, 1)


@given(st.data())
def test_legwise_absorbs_a_map_into_an_identity_leg(data):
    # legwise(f, g, c1, id) o (id (x) k) = legwise(f, g, c1, k), and the
    # mirror in c1: why a module-coalgebra law's tensor-square route and
    # its coalgebra-morphism route are one map, whatever the maps
    field = data.draw(st.sampled_from([QQ, F5, F7]))
    dim = lambda: data.draw(st.integers(1, 2))  # noqa: E731
    na, nb, nx, ny, nf, ng = dim(), dim(), dim(), dim(), dim(), dim()
    kinds = ("dense", "single", "unit", "zero")
    mk = lambda rows, cols: LinMap.from_rows(  # noqa: E731
        field, data.draw(_dense(field, rows, cols, kinds)))
    f, g = mk(nf, na * nb), mk(ng, na * nb)
    c1, c2 = mk(na * na, nx), mk(nb * nb, ny)
    ka, kb = mk(na * na, nx), mk(nb * nb, ny)
    id_a2, id_b2 = (LinMap.identity(field, Space(n * n)) for n in (na, nb))
    id_x, id_y = LinMap.identity(field, Space(nx)), LinMap.identity(field, Space(ny))
    assert compose(legwise(f, g, c1, id_b2), tensor(id_x, kb)) == legwise(f, g, c1, kb)
    assert compose(legwise(f, g, id_a2, c2), tensor(ka, id_y)) == legwise(f, g, ka, c2)


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
    # differences at rows (or columns) 1 and 8: the lower index is named,
    # whatever order a hash table keeps them in
    for idx in ((8, 1), (1, 8), (16, 9, 1)):
        col = LinMap(QQ, Space(1), Space(17), {(i, 0): 1 for i in idx})
        row = LinMap(QQ, Space(17), Space(1), {(0, j): 1 for j in idx})
        assert first_difference(col, LinMap.zero(QQ, Space(1), Space(17))) == \
            {"kind": "entry", "row": min(idx), "col": 0, "left": "1", "right": "0"}
        assert first_difference(LinMap.zero(QQ, Space(17), Space(1)), row) == \
            {"kind": "entry", "row": 0, "col": min(idx), "left": "0", "right": "1"}


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


# -- dense oracle ------------------------------------------------------------
# A list-of-lists reference for compose, tensor, first_difference, == and
# hash.  Corpus maps are monomial with 0/1 entries, so these are the only
# tests that reach multi-entry columns and coefficients other than 1.

_DENSE_FIELDS = st.sampled_from([QQ, PrimeField(2), PrimeField(3), F5, F7])


def _scalars(field, nonzero=False):
    if field is QQ:
        values = st.fractions(-3, 3, max_denominator=4)
        return values.filter(bool) if nonzero else values
    return st.integers(1 if nonzero else 0, field.p - 1)


@st.composite
def _dense(draw, field, nrows, ncols, kinds=("dense", "single", "zero")):
    """Rows of a matrix whose columns are dense, single-entry (any nonzero
    coefficient), zero or, if kinds holds "unit", a single entry 1."""
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(kinds))
        col = [0] * nrows
        if kind == "dense":
            col = draw(st.lists(_scalars(field), min_size=nrows, max_size=nrows))
        elif kind == "single":
            col[draw(st.integers(0, nrows - 1))] = draw(_scalars(field, nonzero=True))
        elif kind == "unit":
            col[draw(st.integers(0, nrows - 1))] = 1
        cols.append(col)
    return [[cols[j][i] for j in range(ncols)] for i in range(nrows)]


def _reduce(field, v):
    return v if field is QQ else v % field.p


def _ref_compose(field, fr, gr):
    return [[_reduce(field, sum(fr[i][k] * gr[k][j] for k in range(len(gr))))
             for j in range(len(gr[0]))] for i in range(len(fr))]


def _ref_tensor(field, fr, gr):
    return [[_reduce(field, fr[i][k] * gr[j][ell])
             for k in range(len(fr[0])) for ell in range(len(gr[0]))]
            for i in range(len(fr)) for j in range(len(gr))]


def _ref_first_difference(field, ar, br):
    for j in range(len(ar[0])):
        for i in range(len(ar)):
            a, b = _reduce(field, ar[i][j]), _reduce(field, br[i][j])
            if a != b:
                return {"kind": "entry", "row": i, "col": j,
                        "left": field.format(a), "right": field.format(b)}
    return None


def _agrees(m, field, ref):
    """m is the map of the reference rows ref, seen every way it can be."""
    ref = [[_reduce(field, v) for v in row] for row in ref]
    rebuilt = LinMap.from_rows(field, ref)
    assert m.rows() == ref
    assert m == rebuilt and hash(m) == hash(rebuilt)
    assert sorted(m.items()) == sorted(
        ((i, j), v) for i, row in enumerate(ref) for j, v in enumerate(row) if v)
    assert m.support_size() == sum(v != 0 for row in ref for v in row)
    assert all(m.entry(i, j) == v for i, row in enumerate(ref) for j, v in enumerate(row))
    assert first_difference(m, rebuilt) is None


@given(st.data())
def test_compose_tensor_and_equality_match_dense_oracle(data):
    field = data.draw(_DENSE_FIELDS)
    a, b, c, d = (data.draw(st.integers(1, 4)) for _ in range(4))
    fr = data.draw(_dense(field, c, b))
    gr = data.draw(_dense(field, b, a))
    hr = data.draw(_dense(field, d, a))
    f, g, h = (LinMap.from_rows(field, r) for r in (fr, gr, hr))
    _agrees(compose(f, g), field, _ref_compose(field, fr, gr))
    _agrees(tensor(f, g), field, _ref_tensor(field, fr, gr))
    _agrees(tensor(g, f, h), field,
            _ref_tensor(field, _ref_tensor(field, gr, fr), hr))
    ar = data.draw(_dense(field, d, a))
    for left, right in ((hr, ar), (ar, hr), (hr, hr)):
        x, y = LinMap.from_rows(field, left), LinMap.from_rows(field, right)
        wit = _ref_first_difference(field, left, right)
        assert first_difference(x, y) == wit
        assert (x == y) == (wit is None)
        if wit is None:
            assert hash(x) == hash(y)


def _fused_agrees(m, field, ref):
    _agrees(m, field, ref)
    _assert_canonical(m)


@given(st.data())
def test_compose_through_a_tensor_matches_dense_oracle(data):
    # compose reads a tensor operand through its factors; every shape it
    # takes apart is held to the dense product of the dense Kronecker
    # product, with non-monomial entries and sums that cancel
    field = data.draw(_DENSE_FIELDS)
    dim = lambda: data.draw(st.integers(1, 3))  # noqa: E731
    kinds = ("dense", "single", "unit", "zero")  # unit: the shared-column paths
    dense = lambda rows, cols: data.draw(_dense(field, rows, cols, kinds))  # noqa: E731
    mk = lambda rows: LinMap.from_rows(field, rows)  # noqa: E731
    g0, g1, h0, h1, n = dim(), dim(), dim(), dim(), dim()
    gr, hr = dense(g0, g1), dense(h0, h1)
    g, h = mk(gr), mk(hr)
    gh = _ref_tensor(field, gr, hr)
    fr, kr = dense(n, g0 * h0), dense(g1 * h1, n)
    _fused_agrees(compose(mk(fr), tensor(g, h)), field, _ref_compose(field, fr, gh))
    _fused_agrees(compose(tensor(g, h), mk(kr)), field, _ref_compose(field, gh, kr))
    # (a (x) b) o (g (x) h), legs lined up: a takes g0 and b takes h0
    ar, br = dense(n, g0), dense(n, h0)
    ab = _ref_tensor(field, ar, br)
    _fused_agrees(compose(tensor(mk(ar), mk(br)), tensor(g, h)),
                  field, _ref_compose(field, ab, gh))
    # legs not lined up: the left tensor splits its domain g0 * u * h0 as
    # g0 | u * h0 and the right its codomain as g0 * u | h0, then the other
    # way round
    u = data.draw(st.integers(2, 3))
    cr, dr = dense(g0 * u, g1), dense(h0, h1)
    ar, br = dense(n, g0), dense(n, u * h0)
    _fused_agrees(compose(tensor(mk(ar), mk(br)), tensor(mk(cr), mk(dr))),
                  field, _ref_compose(field, _ref_tensor(field, ar, br),
                                      _ref_tensor(field, cr, dr)))
    cr, dr = dense(g0, g1), dense(u * h0, h1)
    ar, br = dense(n, g0 * u), dense(n, h0)
    _fused_agrees(compose(tensor(mk(ar), mk(br)), tensor(mk(cr), mk(dr))),
                  field, _ref_compose(field, _ref_tensor(field, ar, br),
                                      _ref_tensor(field, cr, dr)))
    # a nested tensor (g (x) h) (x) e on either side of compose
    er = dense(dim(), dim())
    ghe = _ref_tensor(field, gh, er)
    fr, kr = dense(n, len(ghe)), dense(len(ghe[0]), n)
    _fused_agrees(compose(mk(fr), tensor(g, h, mk(er))), field, _ref_compose(field, fr, ghe))
    _fused_agrees(compose(tensor(g, h, mk(er)), mk(kr)), field, _ref_compose(field, ghe, kr))
    # cancelling sums: [F | -F] o ([x ; x] (x) h) and ([y y] (x) h) o [K ; -K]
    # vanish, whichever entries x, y, F and K hold
    xr, yr = dense(1, g1), dense(g0, 1)
    Fr, Kr = dense(n, h0), dense(h1, n)
    f = mk([row + [-v for v in row] for row in Fr])
    k = mk(Kr + [[-v for v in row] for row in Kr])
    zero = lambda rows, cols: [[0] * cols for _ in range(rows)]  # noqa: E731
    _fused_agrees(compose(f, tensor(mk(xr + xr), h)), field, zero(n, g1 * h1))
    _fused_agrees(compose(tensor(mk([r + r for r in yr]), h), k), field, zero(g0 * h0, n))


def test_products_of_factor_entries_are_stored_canonical():
    # x y is 1, but not in canonical form as a bare product: Fraction(1, 1)
    # over Q, 6 over F_5; every shape compose takes apart must normalize it
    for field, x, y in ((QQ, Fraction(1, 2), 2), (F5, 2, 3)):
        one = LinMap.identity(field, Space(1))
        xy = LinMap.from_rows(field, [[1]])
        c = LinMap.from_rows(field, [[x], [0]])  # legs split 2 | 1 ...
        b = LinMap.from_rows(field, [[1, 0]])  # ... and 1 | 2 on the left
        X, Y = (LinMap.from_rows(field, [[v]]) for v in (x, y))
        for m in (compose(one, tensor(X, Y)), compose(tensor(X, Y), one),
                  compose(tensor(one, b), tensor(c, Y)),
                  compose(tensor(X, one), tensor(Y, one))):
            assert m == xy
            _assert_canonical(m)


def test_a_tensor_is_a_value():
    # a tensor whose columns are not yet built compares, hashes, pickles and
    # lists its entries as the same map built eagerly; its columns are
    # built once and kept
    rng = random.Random(23)
    for field in (QQ, F5):
        f, g = _sparse_map(rng, field, 3, 2, 0.6), _sparse_map(rng, field, 2, 4, 0.6)
        for build in (lambda: tensor(f, g), lambda: tensor(g, f, g)):
            t = build()
            eager = LinMap(field, t.domain, t.codomain, dict(build().items()))
            assert t.support_size() == eager.support_size()
            assert hash(build()) == hash(eager) and build() == eager and eager == build()
            assert sorted(build().items()) == sorted(eager.items())
            assert build().rows() == eager.rows()
            copy = pickle.loads(pickle.dumps(build()))
            assert type(copy) is LinMap and copy == eager and hash(copy) == hash(eager)
            assert t._cols is t._cols
        # a memoized checker keyed on a record holding a tensor hits for the
        # equal record of eager maps, and the other way round
        h = group_algebra(cyclic(3), field)
        padded = tensor(h.unit, LinMap.identity(field, Space(1)))
        for first, second in ((replace(h, unit=padded), h), (h, replace(h, unit=padded))):
            check_hopf.cache_clear()
            assert check_hopf(first) is check_hopf(second)
            assert check_hopf.cache_info()[:2] == (1, 1)  # hits, misses


@given(st.data())
def test_cancelling_columns_compose_to_the_zero_map(data):
    # [A | -A | C] o [B ; B ; E] = C E: the A B columns cancel, and where
    # E is zero the whole column of the result vanishes
    field = data.draw(_DENSE_FIELDS)
    a, b, c, e = (data.draw(st.integers(1, 3)) for _ in range(4))
    ar = data.draw(_dense(field, c, b))
    br = data.draw(_dense(field, b, a))
    cr = data.draw(_dense(field, c, e))
    er = data.draw(_dense(field, e, a))
    f = LinMap.from_rows(field, [ra + [-v for v in ra] + rc for ra, rc in zip(ar, cr)])
    g = LinMap.from_rows(field, br + br + er)
    _agrees(compose(f, g), field, _ref_compose(field, cr, er))
    zero = LinMap.zero(field, Space(a), Space(c))
    cancelled = compose(LinMap.from_rows(field, [ra + [-v for v in ra] for ra in ar]),
                        LinMap.from_rows(field, br + br))
    assert cancelled == zero and hash(cancelled) == hash(zero)
    assert cancelled.support_size() == 0 and list(cancelled.items()) == []
    assert first_difference(cancelled, zero) is None


def test_shared_columns_are_never_changed():
    # composing with a permutation shares the columns of the left map;
    # nothing done to the composite afterwards may show in the source
    rng = random.Random(5)
    for field in (QQ, F5):
        f = _random_map(rng, field, 4, 3)
        f = LinMap(field, f.domain, f.codomain,
                   dict(f.items()) | {(0, 0): Fraction(1, 2) if field is QQ else 3})
        state = (list(f.items()), hash(f), f.rows())
        perm = [2, 0, 3, 1]
        p = LinMap(field, Space(4), Space(4), {(perm[j], j): 1 for j in range(4)})
        h = compose(f, p)
        assert any(col is fcol for col in h._cols.values() for fcol in f._cols.values())
        assert h.rows() == [[row[perm[j]] for j in range(4)] for row in f.rows()]
        _agrees(tensor(h, f), field, _ref_tensor(field, h.rows(), f.rows()))
        _agrees(tensor(f, h), field, _ref_tensor(field, f.rows(), h.rows()))
        _agrees(compose(h, p, p), field,
                _ref_compose(field, h.rows(), _ref_compose(field, p.rows(), p.rows())))
        # read through a tensor's factors, f's columns are shared too
        one = LinMap.identity(field, Space(1))
        for padded in (compose(f, tensor(one, p)), compose(f, tensor(p, one))):
            assert all(any(col is fcol for fcol in f._cols.values())
                       for col in padded._cols.values())
            assert padded == h
        _agrees(compose(tensor(h, one), tensor(p, one), p), field,
                _ref_compose(field, h.rows(), _ref_compose(field, p.rows(), p.rows())))
        _agrees(compose(tensor(one, f), tensor(p, one)), field, h.rows())
        assert (h == f) == (perm == [0, 1, 2, 3])
        assert first_difference(h, f) is not None
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and hash(copy) == hash(h)
        assert copy.rows() == h.rows()
        assert (list(f.items()), hash(f), f.rows()) == state
        rebuilt = LinMap.from_rows(field, state[2])
        assert rebuilt == f and hash(rebuilt) == hash(f)


# -- monomial maps -------------------------------------------------------------
# Every column of a monomial map is a single nonzero entry, as in every
# structure map of a linearized skew brace.  Such a map is also held as its
# monomial view, and compose, tensor, legwise, ==, hash and first_difference
# read the views; these properties hold them to the dense oracle, mixed with
# dense maps and across the two forms.

_MONOMIAL_FIELDS = st.sampled_from([QQ, F5, F7])


@st.composite
def _monomial_rows(draw, field, nrows, ncols):
    """Rows of a monomial matrix: its columns send the basis vectors by a
    permutation or by any map of basis vectors (all to e_0 when nrows is 1,
    the counit's shape), with every value 1 or any nonzero values."""
    if nrows == ncols and draw(st.booleans()):
        targets = draw(st.permutations(range(nrows)))
    else:
        targets = draw(st.lists(st.integers(0, nrows - 1), min_size=ncols, max_size=ncols))
    values = draw(st.one_of(
        st.just([1] * ncols),
        st.lists(_scalars(field, nonzero=True), min_size=ncols, max_size=ncols)))
    return [[values[j] if targets[j] == i else 0 for j in range(ncols)]
            for i in range(nrows)]


@st.composite
def _operand(draw, field, rows2, cols2, kinds=("entries", "view", "tensor", "dense")):
    """(map, reference rows) of shape rows2[0]·rows2[1] x cols2[0]·cols2[1]:
    a monomial map made from entries, a monomial map made as a view (a
    composite with an identity), a tensor of two monomial maps, or a dense
    map."""
    (r1, r2), (c1, c2) = rows2, cols2
    nrows, ncols = r1 * r2, c1 * c2
    kind = draw(st.sampled_from(kinds))
    if kind == "dense":
        ref = draw(_dense(field, nrows, ncols))
        return LinMap.from_rows(field, ref), ref
    if kind == "tensor":
        x, y = draw(_monomial_rows(field, r1, c1)), draw(_monomial_rows(field, r2, c2))
        return (tensor(LinMap.from_rows(field, x), LinMap.from_rows(field, y)),
                _ref_tensor(field, x, y))
    ref = draw(_monomial_rows(field, nrows, ncols))
    m = LinMap.from_rows(field, ref)
    if kind == "view":
        m = compose(LinMap.identity(field, Space(nrows)), m)
    return m, ref


def _assert_a_value(m, field, ref):
    """m agrees with ref, hashes by the formula of its entries, and pickles
    to an equal plain LinMap, whichever form it is held in."""
    _agrees(m, field, ref)
    entries = frozenset(((i, j), _reduce(field, v)) for i, row in enumerate(ref)
                        for j, v in enumerate(row) if _reduce(field, v))
    assert hash(m) == hash((field, m.domain.dim, m.codomain.dim, entries))
    copy = pickle.loads(pickle.dumps(m))
    assert type(copy) is LinMap and copy == m and hash(copy) == hash(m)


@given(st.data())
def test_monomial_maps_match_dense_oracle(data):
    field = data.draw(_MONOMIAL_FIELDS)
    a, b, c = ((data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)))
               for _ in range(3))
    f, fr = data.draw(_operand(field, c, b))
    g, gr = data.draw(_operand(field, b, a))
    k, kr = data.draw(_operand(field, a, (1, 2)))
    n = g.domain.dim
    one, one_r = LinMap.identity(field, g.domain), [[int(i == j) for j in range(n)]
                                                    for i in range(n)]
    for m, ref in ((f, fr), (g, gr), (one, one_r), (compose(g, one), gr)):
        _assert_a_value(m, field, ref)
    fg = compose(f, g)
    assert type(fg) is LinMap
    _assert_a_value(fg, field, _ref_compose(field, fr, gr))
    _assert_a_value(compose(f, g, k), field,
                    _ref_compose(field, fr, _ref_compose(field, gr, kr)))
    _assert_a_value(tensor(f, g), field, _ref_tensor(field, fr, gr))
    _assert_a_value(compose(tensor(f, g), tensor(g, k)), field,
                    _ref_compose(field, _ref_tensor(field, fr, gr),
                                 _ref_tensor(field, gr, kr)))


@given(st.data())
def test_monomial_witness_is_the_dense_one(data):
    # the first column whose entries differ, then its least differing row,
    # as for the same maps rebuilt from their entries
    field = data.draw(_MONOMIAL_FIELDS)
    dims = ((data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))),
            (data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))))
    kinds = ("entries", "view", "tensor")
    x, xr = data.draw(_operand(field, *dims, kinds))
    y, yr = data.draw(_operand(field, *dims, kinds))
    if data.draw(st.booleans()):  # y is x but for one column, or all of x
        j = data.draw(st.integers(0, len(xr[0]) - 1))
        col = data.draw(_monomial_rows(field, len(xr), 1))
        yr = [row[:j] + ([c] if data.draw(st.booleans()) else [row[j]]) + row[j + 1:]
              for row, (c,) in zip(xr, col)]
        y = LinMap.from_rows(field, yr)
        if data.draw(st.booleans()):
            y = compose(y, LinMap.identity(field, y.domain))
    wit = _ref_first_difference(field, xr, yr)
    assert first_difference(x, y) == wit
    rebuilt = [LinMap(field, m.domain, m.codomain, dict(m.items())) for m in (x, y)]
    assert first_difference(*rebuilt) == wit
    assert (x == y) == (wit is None) == (rebuilt[0] == rebuilt[1])
    if wit is None:
        assert hash(x) == hash(y) == hash(rebuilt[1])


def _interchange_rows(na, nb):
    """The dense rows of id_A (x) c_{A,B} (x) id_B, by its index formula."""
    n = na * na * nb * nb
    rows = [[0] * n for _ in range(n)]
    for i, j, k, ell in itertools.product(range(na), range(na), range(nb), range(nb)):
        rows[((i * nb + k) * na + j) * nb + ell][((i * na + j) * nb + k) * nb + ell] = 1
    return rows


@given(st.data())
def test_legwise_of_monomial_maps_matches_dense_oracle(data):
    field = data.draw(_MONOMIAL_FIELDS)
    dim = lambda: data.draw(st.integers(1, 2))  # noqa: E731
    na, nb, nx, ny, nf, ng = dim(), dim(), dim(), dim(), dim(), dim()
    kinds = ("entries", "view", "tensor", "dense")
    monomial = ("entries", "view", "tensor")
    # mostly all monomial (one term per column), sometimes one map dense
    dense_one = data.draw(st.sampled_from(("none", "none", "f", "g", "c1", "c2")))
    pick = lambda name: kinds if dense_one == name else monomial  # noqa: E731
    f, fr = data.draw(_operand(field, (nf, 1), (na, nb), pick("f")))
    g, gr = data.draw(_operand(field, (ng, 1), (na, nb), pick("g")))
    c1, c1r = data.draw(_operand(field, (na, na), (nx, 1), pick("c1")))
    c2, c2r = data.draw(_operand(field, (nb, nb), (ny, 1), pick("c2")))
    want = _ref_compose(field, _ref_compose(field, _ref_tensor(field, fr, gr),
                                            _interchange_rows(na, nb)),
                        _ref_tensor(field, c1r, c2r))
    got = legwise(f, g, c1, c2)
    assert type(got) is LinMap
    _assert_a_value(got, field, want)
