"""Finite groups as Cayley tables, skew braces, and their enumeration.

A Cayley table is a full multiplication table on indices 0..n-1 with a
designated identity index.  A skew brace is one index set carrying two
group structures (dot and circ) that share the identity and satisfy, for
all a, b, c,

    a circ (b dot c) = (a circ b) dot inv(a) dot (a circ c)

where inv is the dot-inverse.  Linearization turns a skew brace into a
pair of group algebras on the shared group-like coalgebra.

Enumeration follows Guarnieri and Vendramin (Skew braces and the
Yang-Baxter equation, Math. Comp. 2017).  A circ table on the dot group A
is a map lambda: A -> Aut(A) with a circ b = a dot lambda_a(b) and
lambda_(a circ b) = lambda_a lambda_b, that is, a regular subgroup
{(a, lambda_a)} of the holomorph Hol(A) = A x| Aut(A).  The search gives
lambda to the smallest element without one, tries each automorphism, and
closes the assigned pairs under the holomorph product
(x, f)(y, g) = (x dot f(y), f g); a branch dies as soon as one element
would get two different lambdas.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import NotAGroup, OrderTooLarge, PrereqFailed, SkewBraceAxiomsFailed
from .report import AxiomReport, CheckEntry

ENUMERATION_ORDER_BOUND = 8


# ---------------------------------------------------------------------------
# groups

@dataclass(frozen=True)
class CayleyTable:
    """A finite magma table; the group axioms are verified by check_group."""

    table: tuple[tuple[int, ...], ...]
    identity: int = 0
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise ValueError("empty table")
        tbl = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", tbl)
        for row in tbl:
            if len(row) != n:
                raise ValueError("table is not square")
            for v in row:
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    raise ValueError(f"table entry {v!r} out of range")
        e = self.identity
        if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
            raise ValueError(f"identity index {e!r} out of range")

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def label(self) -> str | None:
        if self.meta:
            return self.meta.get("label")
        return None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int | None:
        e = self.identity
        for b in range(self.order):
            if self.table[a][b] == e and self.table[b][a] == e:
                return b
        return None


def _law(name: str, witness: dict | None) -> CheckEntry:
    """Entry for a set-level law: it holds when no witness was found."""
    return CheckEntry(name, witness is None, witness)


def _identity_witness(t: CayleyTable) -> dict | None:
    n, e, tbl = t.order, t.identity, t.table
    for a in range(n):
        if tbl[e][a] != a:
            return {"a": e, "b": a, "left": tbl[e][a], "right": a}
        if tbl[a][e] != a:
            return {"a": a, "b": e, "left": tbl[a][e], "right": a}
    return None


def _inverse_witness(t: CayleyTable) -> dict | None:
    for a in range(t.order):
        if t.inverse(a) is None:
            return {"a": a}
    return None


def _associativity_witness(t: CayleyTable) -> dict | None:
    n, tbl = t.order, t.table
    for a in range(n):
        row_a = tbl[a]
        for b in range(n):
            row_ab = tbl[row_a[b]]
            row_b = tbl[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return {"a": a, "b": b, "c": c,
                            "left": row_ab[c], "right": row_a[row_b[c]]}
    return None


def check_group(t: CayleyTable) -> AxiomReport:
    """Identity law, two-sided inverses, associativity; witnesses are element tuples."""
    return AxiomReport((
        _law("identity", _identity_witness(t)),
        _law("inverses", _inverse_witness(t)),
        _law("associativity", _associativity_witness(t)),
    ))


# ---------------------------------------------------------------------------
# built-in groups

def cyclic(n: int) -> CayleyTable:
    tbl = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return CayleyTable(tbl, 0, {"label": f"Z{n}"})


def direct_product(g: CayleyTable, h: CayleyTable, label: str | None = None) -> CayleyTable:
    """Index (a, x) -> a * h.order + x, identity at the pair of identities."""
    ng, nh = g.order, h.order
    tbl = []
    for a in range(ng):
        for x in range(nh):
            row = []
            for b in range(ng):
                for y in range(nh):
                    row.append(g.table[a][b] * nh + h.table[x][y])
            tbl.append(tuple(row))
    ident = g.identity * nh + h.identity
    meta = {"label": label} if label else None
    return CayleyTable(tuple(tbl), ident, meta)


def symmetric_3() -> CayleyTable:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    tbl = tuple(
        tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms)
        for p in perms)
    return CayleyTable(tbl, 0, {"label": "S3"})


def _two_generator_table(n: int, s_squared_rotation: int, label: str) -> CayleyTable:
    # elements a^i b^s indexed i + n*s; b a b^-1 = a^-1 and b^2 = a^k
    def mul(x, y):
        i, s = x % n, x // n
        j, t = y % n, y // n
        if s == 0:
            return (i + j) % n + n * t
        if t == 0:
            return (i - j) % n + n
        return (i - j + s_squared_rotation) % n
    order = 2 * n
    tbl = tuple(tuple(mul(x, y) for y in range(order)) for x in range(order))
    return CayleyTable(tbl, 0, {"label": label})


def dihedral(n: int) -> CayleyTable:
    """The dihedral group of order 2n."""
    return _two_generator_table(n, 0, f"D{n}")


def quaternion_8() -> CayleyTable:
    return _two_generator_table(4, 2, "Q8")


def klein_4() -> CayleyTable:
    return direct_product(cyclic(2), cyclic(2), "Z2xZ2")


_BUILTIN_FACTORIES = {
    "S3": symmetric_3,
    "D3": lambda: dihedral(3),
    "D4": lambda: dihedral(4),
    "Q8": quaternion_8,
    "V4": klein_4,
    "Z2XZ2": klein_4,
    "Z2XZ4": lambda: direct_product(cyclic(2), cyclic(4), "Z2xZ4"),
    "Z2XZ2XZ2": lambda: direct_product(cyclic(2), klein_4(), "Z2xZ2xZ2"),
}


def _cyclic_order(name: str) -> int | None:
    """n when name is Z<n> with n >= 1, else None."""
    key = name.strip().upper()
    if key.startswith("Z") and key[1:].isascii() and key[1:].isdigit():
        return int(key[1:]) or None
    return None


def builtin_group(name: str) -> CayleyTable:
    """Look up a named group: Z<n>, S3, D3, D4, Q8, V4, Z2xZ2, Z2xZ4, Z2xZ2xZ2."""
    key = name.strip().upper()
    if key in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[key]()
    n = _cyclic_order(key)
    if n is None:
        raise ValueError(f"unknown builtin group {name!r}")
    return cyclic(n)


def builtin_order(name: str) -> int:
    """The order of builtin_group(name), found without building a Z<n> table."""
    return _cyclic_order(name) or builtin_group(name).order


def groups_of_order(n: int) -> list[CayleyTable]:
    """One representative per isomorphism class, orders 1 through 8."""
    reps = {
        1: ["Z1"], 2: ["Z2"], 3: ["Z3"], 4: ["Z4", "V4"], 5: ["Z5"],
        6: ["Z6", "S3"], 7: ["Z7"],
        8: ["Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"],
    }
    if n not in reps:
        raise OrderTooLarge(f"no group catalogue for order {n}")
    return [builtin_group(name) for name in reps[n]]


# ---------------------------------------------------------------------------
# automorphisms

def _generators(g: CayleyTable) -> list[int]:
    """A generating set, picked greedily from the elements of largest order."""
    n, e, tbl = g.order, g.identity, g.table

    def order(a):
        k, x = 1, a
        while x != e:
            x, k = tbl[x][a], k + 1
        return k

    gens, reached = [], {e}
    for a in sorted(range(n), key=lambda a: (-order(a), a)):
        if a in reached:
            continue
        gens.append(a)
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = tbl[x][s]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return gens


def automorphisms(g: CayleyTable) -> list[tuple[int, ...]]:
    """Every automorphism of g as its tuple of images, sorted (identity first).

    Each choice of images for a generating set is extended along the
    Cayley graph; it is kept when every edge x -> x*s maps to an edge
    and the map is a bijection.  Raises NotAGroup unless g is a group.
    """
    check_group(g).require(NotAGroup, "table fails the group axioms")
    return _automorphisms(g)


def _automorphisms(g: CayleyTable) -> list[tuple[int, ...]]:
    n, e, tbl = g.order, g.identity, g.table
    gens = _generators(g)
    found = []
    for images in itertools.product(range(n), repeat=len(gens)):
        phi = [None] * n
        phi[e] = e
        queue, ok = [e], True
        for x in queue:
            for s, t in zip(gens, images):
                y, v = tbl[x][s], tbl[phi[x]][t]
                if phi[y] is None:
                    phi[y] = v
                    queue.append(y)
                elif phi[y] != v:
                    ok = False
                    break
            if not ok:
                break
        if ok and len(set(phi)) == n:
            found.append(tuple(phi))
    return sorted(found)


def _regular_subgroups(dot: CayleyTable) -> list[tuple[int, ...]]:
    """Every lambda whose pairs (a, lambda_a) form a regular subgroup of
    Hol(dot), as a tuple of images per element; dot must be a group.

    Automorphisms are handled by index through their composition table.
    """
    n, e, tbl = dot.order, dot.identity, dot.table
    auts = _automorphisms(dot)
    index = {f: i for i, f in enumerate(auts)}
    comp = [[index[tuple(map(f.__getitem__, h))] for h in auts] for f in auts]
    found = []

    def close(lam, members, queue):
        # (x, f)(y, h) = (x dot f(y), f h) for every pair touching a new element
        while queue:
            x = queue.pop()
            for y in members[:]:
                for a, b in ((x, y), (y, x)):
                    z, h = tbl[a][auts[lam[a]][b]], comp[lam[a]][lam[b]]
                    if lam[z] is None:
                        lam[z] = h
                        members.append(z)
                        queue.append(z)
                    elif lam[z] != h:
                        return False
        return True

    def extend(lam, members):
        if None not in lam:
            found.append(tuple(auts[f] for f in lam))
            return
        a = lam.index(None)
        for f in range(len(auts)):
            lam2, members2 = lam[:], members + [a]
            lam2[a] = f
            if close(lam2, members2, [a]):
                extend(lam2, members2)

    lam = [None] * n
    lam[e] = 0  # the identity automorphism sorts first
    extend(lam, [e])
    return found


# ---------------------------------------------------------------------------
# skew braces

@dataclass(frozen=True)
class SkewBraceData:
    """Two group tables on one index set sharing the identity element."""

    dot: CayleyTable
    circ: CayleyTable
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dot.order != self.circ.order:
            raise ValueError("dot and circ tables have different orders")
        if self.dot.identity != self.circ.identity:
            raise ValueError("dot and circ tables must share the identity")

    @property
    def order(self) -> int:
        return self.dot.order


def _compat_witness(dot: CayleyTable, circ: CayleyTable) -> dict | None:
    """First (a, b, c) violating a circ (b dot c) = (a circ b) dot inv(a) dot (a circ c).

    dot must be a group, so every inverse exists: both callers run
    check_group on it first."""
    n = dot.order
    dt, ct = dot.table, circ.table
    for a in range(n):
        ia = dot.inverse(a)
        ca = ct[a]
        for b in range(n):
            ab = ca[b]
            for c in range(n):
                left = ca[dt[b][c]]
                right = dt[dt[ab][ia]][ca[c]]
                if left != right:
                    return {"a": a, "b": b, "c": c, "left": left, "right": right}
    return None


def check_skew_brace(s: SkewBraceData) -> AxiomReport:
    """Compatibility law over all element triples; both tables must be groups."""
    for name, tbl in (("dot", s.dot), ("circ", s.circ)):
        check_group(tbl).require(PrereqFailed, f"{name} table is not a group")
    return AxiomReport((_law("compatibility", _compat_witness(s.dot, s.circ)),))


def _require_enumerable(order: int) -> None:
    if order > ENUMERATION_ORDER_BOUND:
        raise OrderTooLarge(
            f"enumeration is guarded at order {ENUMERATION_ORDER_BOUND}, "
            f"got {order}")


def enumerate_skew_braces(dot: CayleyTable) -> list[SkewBraceData]:
    """All skew braces with the given dot group, sorted by circ table.

    Each circ table is a circ b = a dot lambda_a(b) for one regular subgroup
    {(a, lambda_a)} of Hol(dot) found by the lambda search; every result is
    checked against the compatibility law once more.  Guarded at
    ENUMERATION_ORDER_BOUND.
    """
    _require_enumerable(dot.order)
    check_group(dot).require(NotAGroup, "dot table fails the group axioms")
    tbl = dot.table
    circs = sorted(tuple(tuple(tbl[a][lam_a[b]] for b in range(dot.order))
                         for a, lam_a in enumerate(lam))
                   for lam in _regular_subgroups(dot))
    braces = []
    for t in circs:
        circ = CayleyTable(t, dot.identity)
        AxiomReport((_law("compatibility", _compat_witness(dot, circ)),)).require(
            SkewBraceAxiomsFailed, "enumerated circ table fails the skew brace law")
        braces.append(SkewBraceData(dot, circ))
    return braces


def linearize(s: SkewBraceData, field):
    """Group-like linearization of a skew brace into a Hopf brace.

    Both products are group algebra products over the shared basis; the
    coalgebra is group-like and shared; the antipodes linearize the two
    group inversions.
    """
    check_skew_brace(s).require(SkewBraceAxiomsFailed, "skew brace law fails")
    # Imported here because hopf imports this module for CayleyTable and
    # check_group.  Moving linearize into brace.py would remove the cycle,
    # but the benchmark traces it by the name skewbraces.linearize.
    from .brace import HopfBraceData
    from .hopf import group_algebra

    return HopfBraceData.of(group_algebra(s.dot, field),
                            group_algebra(s.circ, field))
