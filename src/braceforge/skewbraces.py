"""Finite groups as Cayley tables, skew braces, and their enumeration.

A Cayley table is a full multiplication table on indices 0..n-1 with a
designated identity index.  A skew brace is one index set carrying two
group structures (dot and circ) that share the identity and satisfy, for
all a, b, c,

    a circ (b dot c) = (a circ b) dot inv(a) dot (a circ c)

where inv is the dot-inverse.  Linearization turns a skew brace into a
pair of group algebras on the shared group-like coalgebra.

Enumeration walks all group structures on the index set with the fixed
identity.  Group tables with identity e correspond one-to-one to regular
permutation groups on the index set (the rows are the left translations),
so candidates are generated by closing fixed-point-free permutations
under composition instead of filling n^2 table cells.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    meta: dict | None = None

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
        if not 0 <= self.identity < n:
            raise ValueError(f"identity index {self.identity} out of range")

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


def builtin_group(name: str) -> CayleyTable:
    """Look up a named group: Z<n>, S3, D3, D4, Q8, V4, Z2xZ2, Z2xZ4, Z2xZ2xZ2."""
    key = name.strip().upper()
    if key in _BUILTIN_FACTORIES:
        return _BUILTIN_FACTORIES[key]()
    if key.startswith("Z") and key[1:].isdigit():
        n = int(key[1:])
        if n >= 1:
            return cyclic(n)
    raise ValueError(f"unknown builtin group {name!r}")


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
# enumeration of group structures with a fixed identity

def _closure(base: frozenset, new: tuple, n: int, idp: tuple) -> frozenset | None:
    """Close base u {new} under composition.

    Returns None as soon as the closure exceeds n elements or contains a
    non-identity permutation with a fixed point (such a set can never grow
    into a regular group of order n).
    """
    els = set(base)
    frontier = []
    if new not in els:
        els.add(new)
        frontier.append(new)
    while frontier:
        g = frontier.pop()
        for h in list(els):
            for prod in ((tuple(g[h[i]] for i in range(n))),
                         (tuple(h[g[i]] for i in range(n)))):
                if prod in els:
                    continue
                if len(els) >= n:
                    return None
                if prod != idp and any(prod[i] == i for i in range(n)):
                    return None
                els.add(prod)
                frontier.append(prod)
    return frozenset(els)


def _uniform_cycle_type(p: tuple) -> bool:
    n = len(p)
    seen = [False] * n
    length = None
    for i in range(n):
        if seen[i]:
            continue
        c, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            c += 1
        if length is None:
            length = c
        elif c != length:
            return False
    return True


def group_tables(n: int, identity: int = 0, traversal_rng=None) -> list[CayleyTable]:
    """All group tables on 0..n-1 with the given identity, sorted.

    traversal_rng, when given, shuffles the candidate order; the result is
    sorted and therefore independent of it (determinism seam for tests).
    """
    if n == 1:
        return [CayleyTable(((0,),), 0)]
    idp = tuple(range(n))
    by_image: dict[int, list[tuple]] = {x: [] for x in range(n) if x != identity}
    for p in itertools.permutations(range(n)):
        if p == idp or any(p[i] == i for i in range(n)):
            continue
        if not _uniform_cycle_type(p):
            continue
        by_image[p[identity]].append(p)
    if traversal_rng is not None:
        for lst in by_image.values():
            traversal_rng.shuffle(lst)

    results: set[frozenset] = set()
    seen: set[frozenset] = set()
    universe = set(range(n))

    def dfs(group: frozenset) -> None:
        if len(group) == n:
            results.add(group)
            return
        orbit = {p[identity] for p in group}
        missing = min(universe - orbit)
        for cand in by_image[missing]:
            closed = _closure(group, cand, n, idp)
            if closed is None or n % len(closed) != 0:
                continue
            if closed in seen:
                continue
            seen.add(closed)
            dfs(closed)

    dfs(frozenset({idp}))

    tables = []
    for group in results:
        by_img = {p[identity]: p for p in group}
        rows = tuple(tuple(by_img[a][b] for b in range(n)) for a in range(n))
        tables.append(CayleyTable(rows, identity))
    tables.sort(key=lambda t: t.table)
    return tables


# ---------------------------------------------------------------------------
# skew braces

@dataclass(frozen=True)
class SkewBraceData:
    """Two group tables on one index set sharing the identity element."""

    dot: CayleyTable
    circ: CayleyTable
    meta: dict | None = None

    def __post_init__(self):
        if self.dot.order != self.circ.order:
            raise ValueError("dot and circ tables have different orders")
        if self.dot.identity != self.circ.identity:
            raise ValueError("dot and circ tables must share the identity")

    @property
    def order(self) -> int:
        return self.dot.order


def _compat_witness(dot: CayleyTable, circ: CayleyTable) -> dict | None:
    """First (a, b, c) violating a circ (b dot c) = (a circ b) dot inv(a) dot (a circ c)."""
    n = dot.order
    dt, ct = dot.table, circ.table
    inv = [dot.inverse(a) for a in range(n)]
    for a in range(n):
        ia = inv[a]
        if ia is None:
            return {"a": a, "reason": "no dot inverse"}
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


def enumerate_skew_braces(dot: CayleyTable, traversal_rng=None) -> list[SkewBraceData]:
    """All skew braces with the given dot group, sorted by circ table.

    Walks every group structure on the index set with the shared identity
    and keeps those satisfying the compatibility law.  Guarded at order 8.
    """
    if dot.order > ENUMERATION_ORDER_BOUND:
        raise OrderTooLarge(
            f"enumeration is guarded at order {ENUMERATION_ORDER_BOUND}, "
            f"got {dot.order}")
    check_group(dot).require(NotAGroup, "dot table fails the group axioms")
    out = []
    for circ in group_tables(dot.order, dot.identity, traversal_rng):
        if _compat_witness(dot, circ) is None:
            out.append(SkewBraceData(dot, circ))
    out.sort(key=lambda s: s.circ.table)
    return out


def linearize(s: SkewBraceData, field):
    """Group-like linearization of a skew brace into a Hopf brace.

    Both products are group algebra products over the shared basis; the
    coalgebra is group-like and shared; the antipodes linearize the two
    group inversions.
    """
    check_skew_brace(s).require(SkewBraceAxiomsFailed, "skew brace law fails")
    from .brace import HopfBraceData
    from .hopf import group_algebra

    h1 = group_algebra(s.dot, field)
    h2 = group_algebra(s.circ, field)
    return HopfBraceData(
        unit=h1.unit,
        counit=h1.counit,
        coproduct=h1.coproduct,
        product1=h1.product,
        antipode1=h1.antipode,
        product2=h2.product,
        antipode2=h2.antipode,
    )
