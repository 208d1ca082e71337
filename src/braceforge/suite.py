"""The per-brace verdicts of a `braceforge suite` row.

A row checks the paper's two equivalences on one Hopf brace b: the triple
t = Q(b) and the brace P(t), and the matched pair m = F(b) and the brace
G(m).  Every record compares by its structure maps, never by its meta, so
each roundtrip verdict is the paper's equation between the rebuilt record
and the original.  All four functors are memoized, so a passing row
builds each of F(b), Q(b), P(t) and G(m) once, and phi, Q's action and
obt_from_matched_pair(m) once, whichever gate asks.  The witnesses of a
failing roundtrip come from roundtrip_PQ, roundtrip_QP, roundtrip_FG and
roundtrip_GF, which `braceforge roundtrip` runs.
"""
from __future__ import annotations

from collections.abc import Iterator

from .actions import LeftModuleData, check_module_algebra
from .brace import HopfBraceData, check_brace_identities, check_hopf_brace
from .hopf import check_hopf
from .matched import check_mp_over_A, functor_F, functor_G, obt_from_matched_pair
from .obt import check_lemma_mu_recovery, check_obt, functor_P, functor_Q


def row_verdicts(b: HopfBraceData) -> Iterator[tuple[str, bool]]:
    """The 13 (name, ok) verdicts of one suite row, in suite order, one at
    a time, so a caller can time each."""
    yield "brace", check_hopf_brace(b).ok
    yield "identities", check_brace_identities(b).ok
    m = functor_F(b)
    mp = check_mp_over_A(m)
    # axiom (i) of F(b): gamma and phi are module coalgebras over b's coalgebra
    mod = LeftModuleData(hopf=m.second, carrier=b.space, action=m.left_action)
    yield "modules", (all(e.passed for e in mp.entries if e.name.startswith("i."))
                      and check_module_algebra(mod, b.first().algebra).ok)
    t = functor_Q(b)
    yield "obt", check_obt(t).ok
    yield "lemma", check_lemma_mu_recovery(t).ok
    p = functor_P(t)
    yield "deformed_hopf", check_hopf(p.first()).ok
    yield "deformed_product", p.product1 == b.product1
    yield "roundtrip_PQ", p == b
    yield "roundtrip_QP", functor_Q(p) == t
    yield "matched_pair", mp.ok
    g = functor_G(m)
    yield "roundtrip_FG", functor_F(g) == m
    yield "roundtrip_GF", g == b
    yield "obt_from_mp", obt_from_matched_pair(m) == functor_Q(g)
