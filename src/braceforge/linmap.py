"""Exact linear maps between finite-dimensional based spaces.

Scalars live in an exact field: arbitrary-precision rationals (an int when
integral, otherwise a Fraction) or a prime field F_p.  A LinMap is a
codomain x domain matrix of such scalars; the matrix of f holds f(e_j) in
column j.  Composition, the Kronecker tensor product and the symmetric swap
braiding are the primitives every other module builds on.

Tensor index convention (pinned, shared with the file format): the basis
of A (x) B is ordered with the left factor major,

    index(i, j) = i * dim(B) + j.

The braiding c_{A,B} : A (x) B -> B (x) A maps e_i (x) e_j to e_j (x) e_i.
It is kept an explicit map in every formula (never inlined as an index
shuffle), so a different braiding can be swapped in at this one point;
braiding is memoized, so every formula shares one swap per pair of spaces.
legwise(f, g, c1, c2) is the one place where two maps meet the legs of
two coproducts: f takes the first leg of each, g the second, and the
middle legs pass through c_{A,B}, which legwise reads as a map.  One
coproduct leg passing a carrier is actions' interchange, not legwise.

Matrices are semantically dense; internally a LinMap is stored column
major, as {col: {row: value}} holding only the nonzero entries of only the
nonzero columns.  Column j is the sparse vector f(e_j), so compose reads
just the columns of its left operand that its right operand reaches, and
no entry needs a tuple key for the cyclic garbage collector to scan.
A map whose every column is a single nonzero entry (a monomial map, as
every structure map of a linearized skew brace is) also has a second
form, its monomial view (rows, vals): column j is vals[j] at row rows[j],
and vals is None when every entry is 1.  A map is made in one form and
builds the other on its first read: the columns from the view, or the
view by one scan of the columns, which stops at the first column that is
not a single entry and then records that the map has no view.
Identities, braidings and the composites, tensors and legwise results of
monomial maps are made as views, by list indexing, and their columns are
built only if something reads them.  ==, hash, items and first_difference
read the views when both maps have one, so two monomial maps compare as
lists, with the witness and hash their columns would give; a monomial map
equals no map that is not monomial.

A column dict and a view are never mutated once the map that first holds
them is built.  So maps share them freely: compose hands on column k of
its left operand wherever a monomial right operand sends a basis vector
to e_k with coefficient 1.  tensor builds no columns: it returns a map
that holds its two factors.  compose and legwise read such an operand
through its factors (the view of a tensor of monomial maps is made from
theirs), so a padding f o (id (x) g) or (g (x) id) o k costs one pass
over the columns of the result.  A tensor's own view or columns are
built once, when something first reads them (==, hash, items, entry,
rows, storage or pickling), from the factors; its columns by the routine
that compose streams the right one of two tensors through.  legwise
builds its result one output column at a time, from the columns (or the
views) of c1, c2, the braiding, f and g that the column reaches; it never
builds f (x) g, c1 (x) c2, id (x) c (x) id or a composite of them, whose
dimension is the fourth power of the carrier's.
Products are summed with plain + and *, and each output entry is brought
into the field's canonical form once, by field.normalize.  All values are
immutable after construction, so a LinMap hashes once and can key a cache.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import ne
from typing import Iterable, Mapping

from .errors import DimensionMismatch, FieldMismatch
from .report import AxiomReport, CheckEntry, memoize

# ---------------------------------------------------------------------------
# scalar fields

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the least composite passing all 13 bases


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid for n < _MR_BOUND
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_Q_RE = re.compile(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_FP_RE = re.compile(r"0|[1-9][0-9]*")


def _canonical(c):
    """The rational c as an int when integral, else as itself (a Fraction)."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class Field:
    """What every scalar field shares: zero is 0, one is 1, and each
    operation is the plain one on representatives, then normalize."""

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def format(self, v) -> str:
        return str(self.normalize(v))  # str of a Fraction is "n/d"


@dataclass(frozen=True)
class Rationals(Field):
    """Arbitrary-precision rational scalars, always reduced, denominator > 0.

    Values are stored in one canonical form: an ``int`` when the value is
    integral, otherwise a ``Fraction`` with denominator > 1.  Every
    operation returns that form, so the 0/±1 structure constants of the
    corpus stay machine-speed ints.  An int and the equal Fraction compare
    and hash alike, so the form never shows in a comparison.

    Canonical string form: "n" for integers, "n/d" otherwise with
    gcd(n, d) = 1, d > 1, and no leading zeros or explicit plus sign.
    """

    name = "Q"

    def normalize(self, v):
        """A sum of products of field values, in canonical form."""
        return _canonical(v)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _canonical(1 / Fraction(a))

    def coerce(self, v) -> int | Fraction:
        if type(v) is int:
            return v
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(v).__name__} into Q")
        return _canonical(Fraction(v))

    def parse(self, s: str) -> int | Fraction:
        m = _Q_RE.fullmatch(s)
        if m is None:
            raise ValueError(f"not a canonical rational: {s!r}")
        num = int(m.group(1))
        if m.group(2) is None:
            return num
        den = int(m.group(2))
        if den == 1:
            raise ValueError(f"not a canonical rational (explicit /1): {s!r}")
        v = Fraction(num, den)
        if v.denominator != den:
            raise ValueError(f"not a canonical rational (not reduced): {s!r}")
        return v


QQ = Rationals()


@dataclass(frozen=True)
class PrimeField(Field):
    """Integers mod a prime p, representatives in [0, p).

    Canonical string form: the decimal residue, no leading zeros.
    """

    p: int

    def __post_init__(self):
        p = self.p
        if isinstance(p, int) and p >= _MR_BOUND:
            raise ValueError(f"modulus must be below {_MR_BOUND}, got {p}")
        if not isinstance(p, int) or isinstance(p, bool) or not _is_prime(p):
            raise ValueError(f"modulus must be a prime integer, got {p!r}")

    @property
    def name(self) -> str:
        return f"Fp:{self.p}"

    def normalize(self, v):
        """A sum of products of field values, in canonical form."""
        return v % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def coerce(self, v) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"cannot coerce {type(v).__name__} into {self.name}")
        return v % self.p

    def parse(self, s: str) -> int:
        if _FP_RE.fullmatch(s) is None:
            raise ValueError(f"not a canonical residue: {s!r}")
        v = int(s)
        if v >= self.p:
            raise ValueError(f"residue {s} out of range for {self.name}")
        return v


def parse_field(spec: str) -> Field:
    """Parse a field spec string: "Q" or "Fp:<p>"."""
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:") and _FP_RE.fullmatch(spec[3:]):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"bad field spec: {spec!r}")


# ---------------------------------------------------------------------------
# spaces

@dataclass(frozen=True)
class Space:
    """A based space known only by its dimension."""

    dim: int

    def __post_init__(self):
        dim = self.dim
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise DimensionMismatch(f"space dimension must be >= 1, got {dim!r}")

    def tensor(self, other: "Space") -> "Space":
        return Space(self.dim * other.dim)


# ---------------------------------------------------------------------------
# linear maps

_NO_COLUMN: dict = {}  # a column with no nonzero entry; never mutated


class LinMap:
    """An exact matrix with explicit domain and codomain.

    entry(i, j) is the coefficient of the i-th codomain basis vector in the
    image of the j-th domain basis vector.
    """

    __slots__ = ("field", "domain", "codomain", "_cols", "_mono", "_hash")

    def __init__(self, field: Field, domain: Space, codomain: Space,
                 entries: Mapping[tuple[int, int], object]):
        cols: dict[int, dict[int, object]] = {}
        zero = field.zero()
        for (i, j), v in entries.items():
            if type(i) is not int or type(j) is not int:
                raise DimensionMismatch(f"entry index ({i!r},{j!r}) is not a pair of ints")
            if not (0 <= i < codomain.dim and 0 <= j < domain.dim):
                raise DimensionMismatch(
                    f"entry ({i},{j}) outside {codomain.dim}x{domain.dim}")
            v = field.coerce(v)
            if v != zero:
                cols.setdefault(j, {})[i] = v
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "_cols", cols)

    def __setattr__(self, *a):
        raise AttributeError("LinMap is immutable")

    def __getattr__(self, name):
        # reached only for a slot not yet set: a map is made with its
        # columns or with its monomial view, and the other is built from it
        # on its first read and kept
        if name == "_mono":
            value = _scan(self._cols, self.domain.dim)
        elif name == "_cols":
            value = dict(_view_columns(self._mono))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __reduce__(self):
        return (LinMap, (self.field, self.domain, self.codomain, dict(self.items())))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable[object]]) -> "LinMap":
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatch("ragged rows")
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(field, Space(ncols), Space(len(rows)), entries)

    @classmethod
    def identity(cls, field: Field, space: Space) -> "LinMap":
        return _monomial(field, space, space, list(range(space.dim)), None)

    @classmethod
    def zero(cls, field: Field, domain: Space, codomain: Space) -> "LinMap":
        return cls(field, domain, codomain, {})

    # -- accessors ---------------------------------------------------------

    def entry(self, i: int, j: int):
        if type(i) is not int or type(j) is not int:
            raise DimensionMismatch(f"entry index ({i!r},{j!r}) is not a pair of ints")
        if not (0 <= i < self.codomain.dim and 0 <= j < self.domain.dim):
            raise DimensionMismatch(
                f"entry ({i},{j}) outside {self.codomain.dim}x{self.domain.dim}")
        return self._cols.get(j, _NO_COLUMN).get(i, self.field.zero())

    def items(self):
        """Nonzero entries as an iterator of ((row, col), value), column major:
        all entries of one column come together."""
        view = self._mono
        if view is None:
            return (((i, j), v) for j, col in self._cols.items() for i, v in col.items())
        rows, vals = view
        return zip(zip(rows, range(len(rows))), _ONES if vals is None else vals)

    def support_size(self) -> int:
        view = self._mono
        if view is None:
            return sum(map(len, self._cols.values()))
        return len(view[0])

    def rows(self) -> list[list[object]]:
        """Dense matrix as nested lists (row major)."""
        zero = self.field.zero()
        out = [[zero] * self.domain.dim for _ in range(self.codomain.dim)]
        for (i, j), v in self.items():
            out[i][j] = v
        return out

    def shape(self) -> tuple[int, int]:
        return (self.codomain.dim, self.domain.dim)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinMap):
            return NotImplemented
        if (self.field != other.field or self.domain.dim != other.domain.dim
                or self.codomain.dim != other.codomain.dim):
            return False
        a, b = self._mono, other._mono
        if a is None or b is None:  # a monomial map equals no other kind
            return a is b and self._cols == other._cols
        return a == b

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # first call: computed once, kept in its slot
            h = hash((self.field, self.domain.dim, self.codomain.dim,
                      frozenset(self.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return (f"LinMap({self.field.name}, {self.codomain.dim}x{self.domain.dim}, "
                f"nnz={self.support_size()})")


# ---------------------------------------------------------------------------
# monomial views

_ONES = repeat(1)  # the values of a view whose vals is None; zip stops it


def _unless_ones(vals: list) -> list | None:
    """vals, or None if every value is 1."""
    return None if vals.count(1) == len(vals) else vals


def _scan(cols: dict, n: int) -> tuple | None:
    """The monomial view of the map with columns cols and domain dimension
    n, or None if some column is not a single entry."""
    if len(cols) != n:
        return None
    rows, vals = [0] * n, [0] * n
    for j, col in cols.items():
        if len(col) != 1:
            return None
        ((rows[j], vals[j]),) = col.items()
    return rows, _unless_ones(vals)


def _view_columns(view: tuple):
    """The (j, column) pairs of a monomial view, made one at a time."""
    rows, vals = view
    return enumerate({i: v} for i, v in zip(rows, _ONES if vals is None else vals))


def _view(m: LinMap) -> tuple | None:
    """The monomial view of m, or None; a tensor's is read through its
    factors and not kept."""
    if type(m) is _Tensor:
        return _tensor_view(*m._factors, m.field.normalize)
    return m._mono


def _tensor_view(f: LinMap, g: LinMap, norm) -> tuple | None:
    """The monomial view of f (x) g, from those of f and g, or None."""
    fv, gv = _view(f), _view(g)
    if fv is None or gv is None:
        return None
    (frows, fvals), (grows, gvals) = fv, gv
    gdim = g.codomain.dim
    rows = [p + q for p in [r * gdim for r in frows] for q in grows]
    if fvals is None:
        return rows, None if gvals is None else gvals * len(frows)
    if gvals is None:
        return rows, [v for v in fvals for _ in grows]
    return rows, _unless_ones([norm(a * b) for a in fvals for b in gvals])


def _compose_views(fv: tuple, gv: tuple, norm) -> tuple:
    """The monomial view of f o g, from those of f and g."""
    (frows, fvals), (grows, gvals) = fv, gv
    rows = list(map(frows.__getitem__, grows))
    if fvals is None:
        return rows, gvals
    if gvals is None:
        return rows, _unless_ones(list(map(fvals.__getitem__, grows)))
    return rows, _unless_ones([norm(fvals[k] * w) for k, w in zip(grows, gvals)])


def _monomial(field: Field, domain: Space, codomain: Space,
              rows: list, vals: list | None) -> LinMap:
    """A LinMap around its monomial view: column j is the single entry
    vals[j] at row rows[j], or 1 there if vals is None.  The rows are in
    range, the values nonzero and canonical, and vals is None rather than
    all 1; the lists are held as they are, so neither may be mutated
    afterwards."""
    out = LinMap.__new__(LinMap)
    object.__setattr__(out, "field", field)
    object.__setattr__(out, "domain", domain)
    object.__setattr__(out, "codomain", codomain)
    object.__setattr__(out, "_mono", (rows, vals))
    return out


# ---------------------------------------------------------------------------
# operations

def _require_same_field(*maps: LinMap) -> Field:
    field = maps[0].field
    for f in maps[1:]:
        if f.field != field:
            raise FieldMismatch(f"{f.field.name} vs {field.name}")
    return field


def _raw(field: Field, domain: Space, codomain: Space, cols: dict) -> LinMap:
    """A LinMap around nonempty columns of nonzero entries, already in range
    and in canonical form.  The column dicts are held as they are, so none
    may be mutated afterwards."""
    out = LinMap.__new__(LinMap)
    object.__setattr__(out, "field", field)
    object.__setattr__(out, "domain", domain)
    object.__setattr__(out, "codomain", codomain)
    object.__setattr__(out, "_cols", cols)
    return out


def compose(*maps: LinMap) -> LinMap:
    """Composite m1 o m2 o ... o mk (rightmost applies first)."""
    if not maps:
        raise ValueError("compose needs at least one map")
    _require_same_field(*maps)
    for f, g in zip(maps, maps[1:]):
        if f.domain.dim != g.codomain.dim:
            raise DimensionMismatch(
                f"compose: domain dim {f.domain.dim} != codomain dim {g.codomain.dim}")
    # Fold from the right: the rightmost map usually has a narrow domain (a
    # unit or a coproduct), so every intermediate composite stays small.
    out = maps[-1]
    for f in reversed(maps[:-1]):
        out = _compose2(f, out)
    return out


def _compose2(f: LinMap, g: LinMap) -> LinMap:
    """f o g, column by column: column j is f applied to column j of g.

    A tensor operand is read through its factors and never built.  When g
    is monomial, column j is f's column rows[j] times vals[j], so two
    monomial maps compose by list indexing.
    """
    norm = f.field.normalize
    gv = _view(g)
    if gv is not None:
        fv = _view(f)
        if fv is not None:
            return _monomial(f.field, g.domain, f.codomain, *_compose_views(fv, gv, norm))
        if type(f) is not _Tensor:
            return _raw(f.field, g.domain, f.codomain, _gather(f._cols, gv, norm))
        columns = _view_columns(gv)
    elif type(g) is _Tensor:
        c, d = g._factors
        columns = _factor_columns(c._cols.items(), d, norm)
    else:
        columns = g._cols.items()
    if type(f) is _Tensor:
        cols = _apply_tensor(*f._factors, columns, norm)
    else:
        cols = _apply(f._cols, columns, norm)
    return _raw(f.field, g.domain, f.codomain, cols)


def _gather(fcols: dict, gv: tuple, norm) -> dict:
    """The columns of f o g, for the columns of f and the monomial view of
    g: column j is column rows[j] of f times vals[j], f's own column,
    shared, not copied, where that is 1."""
    rows, vals = gv
    if vals is None:
        return {j: col for j, col in enumerate(map(fcols.get, rows)) if col is not None}
    cols = {}
    for j, (k, w) in enumerate(zip(rows, vals)):
        col = fcols.get(k)
        if col is not None:  # a product of nonzero field values is nonzero
            cols[j] = col if w == 1 else {i: norm(v * w) for i, v in col.items()}
    return cols


def _apply(fcols: dict, columns, norm) -> dict:
    """The columns of f o g, for the columns of f and those (j, column) of g.

    Only the columns of f that g reaches are read.
    """
    cols = {}
    for j, gcol in columns:
        acc = {}
        for k, vg in gcol.items():
            fcol = fcols.get(k)
            if fcol is None:
                continue
            for i, vf in fcol.items():
                if i in acc:
                    acc[i] += vf * vg
                else:
                    acc[i] = vf * vg
        col = _normalized(acc, norm)
        if col:
            cols[j] = col
    return cols


def _apply_tensor(a: LinMap, b: LinMap, columns, norm) -> dict:
    """The columns of (a (x) b) o g, for the columns (j, v) of g, read
    through a and b: an entry w at row p of v contributes
    w a(e_{p div B}) (x) b(e_{p mod B}), where B is the dimension of b's
    domain."""
    acols, bcols = a._cols, b._cols
    bd, bc = b.domain.dim, b.codomain.dim
    cols = {}
    for j, gcol in columns:
        acc = {}
        for p, w in gcol.items():
            acol, bcol = acols.get(p // bd), bcols.get(p % bd)
            if acol is None or bcol is None:
                continue
            for i, va in acol.items():
                wa, base = w * va, i * bc
                for k, vb in bcol.items():
                    k += base
                    if k in acc:
                        acc[k] += wa * vb
                    else:
                        acc[k] = wa * vb
        col = _normalized(acc, norm)
        if col:
            cols[j] = col
    return cols


def _normalized(acc: dict, norm) -> dict:
    """The sums in acc in canonical form, zeros dropped."""
    col = {}
    for i, v in acc.items():
        v = norm(v)
        if v:
            col[i] = v
    return col


def _factor_columns(gcols, h: LinMap, norm):
    """The nonzero columns (x, y) of g (x) h, g(e_x) (x) h(e_y), for the
    columns (x, g(e_x)) of g given, as (j, column) pairs, made one at a
    time.  compose streams them and keeps none; a _Tensor keeps them all as
    its own columns."""
    hc, hd = h.codomain.dim, h.domain.dim
    hcols = h._cols.items()
    for x, gcol in gcols:
        base = x * hd
        for y, hcol in hcols:
            yield base + y, {p * hc + q: norm(vg * vh)
                             for p, vg in gcol.items() for q, vh in hcol.items()}


def tensor(*maps: LinMap) -> LinMap:
    """Kronecker product, left factor major in both domain and codomain.

    The product is held as its factors: its columns are built only when
    something reads them (see _Tensor)."""
    if not maps:
        raise ValueError("tensor needs at least one map")
    _require_same_field(*maps)
    out = maps[0]
    for g in maps[1:]:
        out = _Tensor(out, g)
    return out


class _Tensor(LinMap):
    """f (x) g, held as the pair of its factors.  compose reads it through
    them.  Its monomial view or its columns are built on their first read
    (by ==, hash, items, entry, rows, legwise, storage or pickling) and
    kept."""

    __slots__ = ("_factors",)

    def __init__(self, f: LinMap, g: LinMap):
        object.__setattr__(self, "field", f.field)
        object.__setattr__(self, "domain", f.domain.tensor(g.domain))
        object.__setattr__(self, "codomain", f.codomain.tensor(g.codomain))
        object.__setattr__(self, "_factors", (f, g))

    def __getattr__(self, name):
        # reached only for a slot not yet set, so _mono and _cols each only
        # before its first read
        f, g = self._factors
        if name == "_mono":
            value = _tensor_view(f, g, self.field.normalize)
        elif name == "_cols":
            value = dict(_factor_columns(f._cols.items(), g, self.field.normalize))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def support_size(self) -> int:
        f, g = self._factors
        return f.support_size() * g.support_size()


@memoize
def braiding(field: Field, a: Space, b: Space) -> LinMap:
    """The symmetric swap c_{A,B} : A (x) B -> B (x) A, e_i (x) e_j -> e_j (x) e_i."""
    rows = [j * a.dim + i for i in range(a.dim) for j in range(b.dim)]
    return _monomial(field, a.tensor(b), b.tensor(a), rows, None)


def _leg(c: LinMap, name: str) -> Space:
    """A, for c : X -> A (x) A."""
    n = c.codomain.dim
    if math.isqrt(n) ** 2 != n:
        raise DimensionMismatch(f"legwise: {name} lands in dimension {n}, not a square")
    return Space(math.isqrt(n))


def legwise(f: LinMap, g: LinMap, c1: LinMap, c2: LinMap) -> LinMap:
    """(f (x) g) o (id_A (x) c_{A,B} (x) id_B) o (c1 (x) c2), for
    c1 : X -> A (x) A and c2 : Y -> B (x) B, both coproducts at every call
    site: x (x) y -> sum f(x_1 (x) y_1) (x) g(x_2 (x) y_2), as
    (id_A (x) c_{A,B} (x) id_B) o (c1 (x) c2) is the coproduct of X (x) Y.

    Column x (x) y of the result is the sum, over the entries c1[iA + j, x]
    of column x and c2[kB + l, y] of column y and the entries c[s, jB + k]
    of c = c_{A,B}, of their product times f(e_{iB + s div A}) (x)
    g(e_{(s mod A)B + l}).  Only the columns of f and g so reached are read.
    When all five maps are monomial, each sum has one term, and the result
    is monomial too.
    """
    a, b = _leg(c1, "c1"), _leg(c2, "c2")
    field = _require_same_field(f, g, c1, c2)
    na, nb = a.dim, b.dim
    ab = na * nb
    for m, name in ((f, "f"), (g, "g")):
        if m.domain.dim != ab:
            raise DimensionMismatch(f"legwise: {name} takes dimension "
                                    f"{m.domain.dim}, not {na}·{nb} = {ab}")
    c = braiding(field, a, b)
    gdim, ny = g.codomain.dim, c2.domain.dim
    norm = field.normalize
    domain, codomain = c1.domain.tensor(c2.domain), f.codomain.tensor(g.codomain)
    views = [_view(m) for m in (f, g, c, c1, c2)]
    if None not in views:
        return _monomial(field, domain, codomain,
                         *_legwise_view(*views, na, nb, gdim, norm))
    ccols, fcols, gcols = c._cols, f._cols, g._cols
    c2cols = [(y, tuple(col.items())) for y, col in c2._cols.items()]
    cols = {}
    for x, c1col in c1._cols.items():
        for y, c2col in c2cols:
            acc = {}
            for p, v1 in c1col.items():
                ib, jb = p // na * nb, p % na * nb
                for q, v2 in c2col:
                    for s, vc in ccols.get(jb + q // nb, _NO_COLUMN).items():
                        fcol = fcols.get(ib + s // na)
                        gcol = gcols.get(s % na * nb + q % nb)
                        if fcol is None or gcol is None:
                            continue
                        w = v1 * v2 * vc
                        for i, vf in fcol.items():
                            wf, base = w * vf, i * gdim
                            for j, vg in gcol.items():
                                k = base + j
                                if k in acc:
                                    acc[k] += wf * vg
                                else:
                                    acc[k] = wf * vg
            col = _normalized(acc, norm)
            if col:
                cols[x * ny + y] = col
    return _raw(field, domain, codomain, cols)


def _legwise_view(fv, gv, cv, c1v, c2v, na, nb, gdim, norm) -> tuple:
    """The monomial view of legwise(f, g, c1, c2), from those of f, g,
    c = c_{A,B}, c1 and c2: column x (x) y is the one term of the sum."""
    (frows, fvals), (grows, gvals), (crows, cvals) = fv, gv, cv
    (rows1, vals1), (rows2, vals2) = c1v, c2v
    fks, gks, cks = [], [], []  # the columns of f, g and c each column reads
    for p in rows1:
        ib, jb = p // na * nb, p % na * nb
        for q in rows2:
            t = jb + q // nb
            s = crows[t]
            fks.append(ib + s // na)
            gks.append(s % na * nb + q % nb)
            cks.append(t)
    rows = [frows[k] * gdim + grows[k2] for k, k2 in zip(fks, gks)]
    factors = [list(map(vals.__getitem__, ks)) for vals, ks
               in ((fvals, fks), (gvals, gks), (cvals, cks)) if vals is not None]
    if vals1 is not None:
        factors.append([v for v in vals1 for _ in rows2])
    if vals2 is not None:
        factors.append(vals2 * len(rows1))
    if not factors:
        return rows, None
    return rows, _unless_ones([norm(math.prod(ws)) for ws in zip(*factors)])


def first_difference(f: LinMap, g: LinMap) -> dict | None:
    """Witness of the first difference between two maps, or None if equal.

    Scans column by column (basis vector by basis vector), then by row, so
    the witness names the first domain basis vector on which the maps differ.
    """
    if f.field != g.field:
        return {"kind": "field", "left": f.field.name, "right": g.field.name}
    if f.shape() != g.shape():
        ls, rs = f.shape(), g.shape()
        return {"kind": "shape", "left": f"{ls[0]}x{ls[1]}", "right": f"{rs[0]}x{rs[1]}"}
    # Canonical columns hold no zeros, so unequal maps have a first column
    # whose dicts differ, and in it a first row whose entries differ.
    fv, gv = f._mono, g._mono
    if fv is not None and gv is not None:
        if fv == gv:
            return None
        (frows, fvals), (grows, gvals) = fv, gv
        j = next(compress(count(), map(ne, zip(frows, fvals or _ONES),
                                       zip(grows, gvals or _ONES))))
        a = {frows[j]: 1 if fvals is None else fvals[j]}
        b = {grows[j]: 1 if gvals is None else gvals[j]}
    else:
        fcols, gcols = f._cols, g._cols
        if fcols == gcols:
            return None
        j = next(j for j in sorted(fcols.keys() | gcols.keys())
                 if fcols.get(j, _NO_COLUMN) != gcols.get(j, _NO_COLUMN))
        a, b = fcols.get(j, _NO_COLUMN), gcols.get(j, _NO_COLUMN)
    zero = f.field.zero()
    i = min(i for i in a.keys() | b.keys() if a.get(i, zero) != b.get(i, zero))
    fmt = f.field.format
    return {"kind": "entry", "row": i, "col": j,
            "left": fmt(a.get(i, zero)), "right": fmt(b.get(i, zero))}


def equal(f: LinMap, g: LinMap) -> tuple[bool, dict | None]:
    """Exact equality with a witness for the first difference."""
    wit = first_difference(f, g)
    return (wit is None, wit)


def equation_entry(name: str, lhs: LinMap, rhs: LinMap) -> CheckEntry:
    """Report entry for an exact map equation lhs = rhs."""
    ok, wit = equal(lhs, rhs)
    return CheckEntry(name, ok, wit)


def componentwise(got, expected, names: Iterable[str]) -> AxiomReport:
    """One equation entry per named structure map: got.name = expected.name."""
    return AxiomReport(equation_entry(name, getattr(got, name),
                                      getattr(expected, name))
                       for name in names)
