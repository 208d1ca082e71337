"""The verdict caches, the cached derived maps and the cached functors.

check_hopf, check_hopf_brace, check_obt, check_mp_over_A, the module
axioms behind check_left_module and check_right_module, the module-coalgebra
report behind check_module_coalgebra and check_right_module_coalgebra, and
is_cocommutative keep their last MEMO_SIZE verdicts; gamma, phi, Q's action,
psi, mu_tilde, the interchange and braiding their last MEMO_SIZE maps; and
all four functors and obt_from_matched_pair their last MEMO_SIZE records,
keyed on the record itself, which compares and hashes by its structure maps
and never by its meta.  A warm call must return what an uncached call
returns, witnesses included; the key must tell apart maps that differ only
in their field; a raising call stores nothing; and the cache stays within
its bound.  From cold caches, one suite row, or the same checks asked for
through the public functions, builds each derived map and each functor
image once, however many of its checks and functors ask for it.
"""
import dataclasses
import functools
import sys
import threading

import pytest

import braceforge
from braceforge import (BraceForgeError, CoalgebraData, LeftModuleData, LinMap,
                        MpAxiomsFailed, NotDiagonal, PrereqFailed, PrimeField,
                        QQ, RightModuleData, Space, check_hopf, check_hopf_brace,
                        check_mp_over_A, check_obt, cyclic,
                        enumerate_skew_braces, functor_F, functor_G,
                        functor_P, functor_Q, gamma, group_algebra,
                        groups_of_order, is_cocommutative, linearize,
                        mu_tilde, obt_from_matched_pair, parse_field, phi, psi)
from braceforge.actions import (_check_module, _check_module_coalgebra,
                                _interchange)
from braceforge.brace import _q_action
from braceforge.linmap import braiding
from braceforge.report import MEMO_SIZE, AxiomReport, memoize
from braceforge.suite import row_verdicts

from conftest import clear_caches, memoized_functions, package_bindings
from mutants import (broken_antipode, broken_brace, broken_matched_pair,
                     broken_obt, reentry)

F5 = PrimeField(5)
MEMOIZED = (check_hopf, check_hopf_brace, check_obt, check_mp_over_A,
            _check_module, _check_module_coalgebra, is_cocommutative, braiding,
            gamma, phi, _q_action, psi, mu_tilde, _interchange, functor_F,
            functor_G, functor_P, functor_Q, obt_from_matched_pair)


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


def test_the_memoized_functions_are_pinned():
    """Adding a cache is a deliberate choice: these nineteen functions keep one."""
    found = memoized_functions()
    assert sorted(found) == sorted([
        "check_hopf", "check_hopf_brace", "check_obt", "check_mp_over_A",
        "_check_module", "_check_module_coalgebra", "is_cocommutative",
        "braiding", "gamma", "phi", "_q_action", "psi", "mu_tilde",
        "_interchange", "functor_F", "functor_G", "functor_P", "functor_Q",
        "obt_from_matched_pair"])
    assert all(found[fn.__name__] is fn for fn in MEMOIZED)


def _uncached(monkeypatch):
    """Bind every memoized function in the package to the function it wraps."""
    originals = {id(fn): fn.__wrapped__ for fn in MEMOIZED}
    for mod, attr, value in package_bindings():
        if id(value) in originals:
            monkeypatch.setattr(mod, attr, originals[id(value)])


def _doubled(m: LinMap, which: int = 0) -> LinMap:
    """m with its which-th nonzero constant, in key order, doubled."""
    key, v = sorted(m.items())[which % m.support_size()]
    return reentry(m, {key: m.field.add(v, v)})


def _modules(m):
    """The module-coalgebra calls behind axiom (i) of the matched pair m:
    each side's module over its carrier's coalgebra."""
    left = LeftModuleData(hopf=m.second, carrier=m.first.space,
                          action=m.left_action)
    right = RightModuleData(hopf=m.first, carrier=m.second.space,
                            action=m.right_action)
    return [("check_module_coalgebra", (left, m.first.coalgebra)),
            ("check_right_module_coalgebra", (right, m.second.coalgebra))]


def _calls():
    """(function name, arguments): every order <= 4 linearized brace over Q
    and Fp:5 with its Q and F images, one-constant mutants of each, and the
    mutants of tests/mutants.py, each given to its checker and to the
    derived maps and functors built on it; every matched pair's two modules
    go to the module-coalgebra checks, and so do each brace's regular
    modules over its coalgebra with one coproduct constant doubled."""
    out = []
    for spec in ("Q", "Fp:5"):
        for order in range(1, 5):
            for g in groups_of_order(order):
                for i, s in enumerate(enumerate_skew_braces(g)):
                    b = linearize(s, parse_field(spec))
                    t, m = functor_Q(b), functor_F(b)
                    out += [("check_hopf", b.first()), ("check_hopf", b.second()),
                            ("check_hopf_brace", b), ("check_obt", t),
                            ("check_mp_over_A", m)]
                    # the regular modules moving the basis element whose
                    # coproduct constant is doubled fail the coproduct law
                    h, doubled = b.second(), CoalgebraData(
                        b.counit, _doubled(b.coproduct, i))
                    out += [("check_module_coalgebra", (LeftModuleData(
                                hopf=h, carrier=h.space, action=h.product), doubled)),
                            ("check_right_module_coalgebra", (RightModuleData(
                                hopf=h, carrier=h.space, action=h.product), doubled))]
                    if order > 1:
                        out += [
                            ("check_hopf_brace", dataclasses.replace(
                                b, product2=_doubled(b.product2, i))),
                            ("check_obt", dataclasses.replace(
                                t, action=_doubled(t.action, i))),
                            ("check_mp_over_A", dataclasses.replace(
                                m, left_action=_doubled(m.left_action, i))),
                        ]
    out += [("check_hopf", broken_antipode()),
            ("check_hopf_brace", broken_brace())]
    out += [("check_obt", broken_obt(a))
            for a in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")]
    out += [("check_mp_over_A", broken_matched_pair(a))
            for a in ("i", "ii", "iii", "iv", "v", "vi")]
    derived = {"check_hopf_brace": ("gamma", "phi", "_q_action", "functor_F",
                                    "functor_Q"),
               "check_obt": ("mu_tilde", "functor_P"),
               "check_mp_over_A": ("psi", "functor_G", "obt_from_matched_pair")}
    out += [(fn, x) for name, x in out for fn in derived.get(name, ())]
    out += [call for name, m in out if name == "check_mp_over_A"
            for call in _modules(m)]
    return [(name, x if isinstance(x, tuple) else (x,)) for name, x in out]


def _outcome(name: str, args: tuple):
    """The report, map or record, or the class and message of the error raised."""
    # Q's action, _q_action, is the one cache the package does not export
    fn = getattr(braceforge, name, None) or getattr(braceforge.brace, name)
    try:
        return fn(*args)
    except BraceForgeError as exc:
        return (type(exc), str(exc))


def _rebuilt(x):
    """x with every map a new, equal LinMap and every meta replaced."""
    if isinstance(x, LinMap):
        return LinMap(x.field, x.domain, x.codomain, dict(x.items()))
    if isinstance(x, Space):
        return Space(x.dim)
    rebuilt = {f.name: _rebuilt(getattr(x, f.name))
               for f in dataclasses.fields(x) if f.name != "meta"}
    if "meta" in {f.name for f in dataclasses.fields(x)}:
        rebuilt["meta"] = {"label": "rebuilt"}
    return dataclasses.replace(x, **rebuilt)


def test_warm_reports_equal_uncached_ones(monkeypatch):
    calls = _calls()
    clear_caches()  # building the inputs ran the gates
    with monkeypatch.context() as patch:
        _uncached(patch)
        cold = [_outcome(name, args) for name, args in calls]
    assert all(fn.cache_info().misses == 0 for fn in MEMOIZED)
    # warm: each input as a new but equal record, then as itself
    warm = [_outcome(name, y) for name, args in calls
            for y in (tuple(map(_rebuilt, args)), args)]
    want_twice = [c for c in cold for _ in range(2)]
    assert warm == want_twice
    for got, want in zip(warm, want_twice):
        if isinstance(want, AxiomReport):
            assert (str(got), got.to_dict()) == (str(want), want.to_dict())
    assert any(isinstance(rep, tuple) for rep in cold)  # NotDiagonal
    # every gated cache is also asked for on inputs that fail or raise
    failing = {name for (name, _), got in zip(calls, cold)
               if isinstance(got, tuple)
               or (isinstance(got, AxiomReport) and not got.ok)}
    assert failing == {"check_hopf", "check_hopf_brace", "check_obt",
                       "check_mp_over_A", "check_module_coalgebra",
                       "check_right_module_coalgebra", "functor_F",
                       "functor_Q", "functor_P", "functor_G",
                       "obt_from_matched_pair"}
    assert all(fn.cache_info().hits > 0 for fn in MEMOIZED)


def test_equal_records_share_an_entry():
    s = enumerate_skew_braces(cyclic(4))[1]
    b1, b2 = linearize(s, QQ), linearize(s, QQ)
    b2 = dataclasses.replace(b2, meta={"label": "other"})
    assert b1.product1 is not b2.product1 and b1.product1 == b2.product1
    rep = check_hopf_brace(b1)
    assert check_hopf_brace(b2) is rep
    info = check_hopf_brace.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_fields_never_share_an_entry():
    # antipode -id on Z2: antipode.left fails at e with -1, which is 4 mod 5
    reps = []
    for field in (QQ, F5):
        h = group_algebra(cyclic(2), field)
        minus = LinMap(field, h.space, h.space, {(0, 0): -1, (1, 1): -1})
        reps.append(check_hopf(dataclasses.replace(h, antipode=minus)))
    q, f = (rep.entry("antipode.left").witness for rep in reps)
    assert (q["left"], f["left"]) == ("-1", "4")
    assert check_hopf.cache_info().currsize == 2
    assert braiding(QQ, Space(2), Space(2)) is braiding(QQ, Space(2), Space(2))
    assert braiding(QQ, Space(2), Space(2)) != braiding(F5, Space(2), Space(2))
    assert braiding.cache_info().currsize == 2


def test_suite_row_verifies_each_module_structure_once():
    """From cold caches, an order-6 row over Q computes the module axioms
    twice: a left and a right record never compare equal, so that is once
    per side.  Its Hopf algebras, first and second, are each checked and
    tested for cocommutativity once."""
    rows = [linearize(s, QQ) for g in groups_of_order(6)
            for s in enumerate_skew_braces(g)]
    assert len(rows) == 10
    for b in rows:
        clear_caches()
        list(row_verdicts(b))
        assert _check_module.cache_info().misses == 2
        assert is_cocommutative.cache_info().misses <= 2
        assert check_hopf.cache_info().misses <= 2


def test_suite_row_builds_each_image_once(count_calls, monkeypatch):
    """From cold caches, an order-6 row over Q or Fp:5 builds F(b), Q(b),
    P(Q(b)) and G(F(b)) once each, and no other F or Q: a passing row has
    P(Q(b)) == b and G(F(b)) == b, so the F and Q of its QP, FG and
    obt_from_mp verdicts are cache hits on F(b) and Q(b).  It also builds
    gamma, psi, mu_tilde, Q's action and obt_from_matched_pair(F(b)) once
    each: gamma serves check_hopf_brace, check_brace_identities, F's two
    actions and Q's action; Q's action check_brace_identities and Q; psi
    the matched pair axioms and the interweaving identity; mu_tilde
    check_obt, the recovery lemma, P and G; the triple of F(b) G and the
    obt_from_mp verdict.  G and P are counted by calls; the other cached
    functions by cache misses, since a cache hit builds nothing.

    The row asks for four interchanges: the second product's, by the brace
    compatibility and again by the antipode exchange, gamma's, by the
    module-algebra check, and that of triple axiom (v)'s A^op module.  It
    builds each distinct one once: 3 builds, or 2 where Q(b)'s action is
    gamma and A^op is the second structure, so the last two modules are
    equal."""
    calls = count_calls(functor_G, functor_P)
    asked = []

    @functools.wraps(_interchange)  # keeps cache_clear, so clear_caches sees it
    def asking(m):
        asked.append(m)
        return _interchange(m)

    for mod, attr, value in package_bindings():
        if value is _interchange:
            monkeypatch.setattr(mod, attr, asking)
    rows = [linearize(s, field) for field in (QQ, F5)
            for g in groups_of_order(6) for s in enumerate_skew_braces(g)]
    assert len(rows) == 20
    interchanges = []
    for b in rows:
        clear_caches()
        calls.update(dict.fromkeys(calls, 0))
        asked.clear()
        assert all(ok for _, ok in row_verdicts(b))
        assert calls == {"functor_G": 1, "functor_P": 1}
        builds = {fn.__name__: fn.cache_info().misses
                  for fn in (functor_F, functor_Q, gamma, psi, mu_tilde,
                             _q_action, obt_from_matched_pair)}
        assert builds == {"functor_F": 1, "functor_Q": 1, "gamma": 1,
                          "psi": 1, "mu_tilde": 1, "_q_action": 1,
                          "obt_from_matched_pair": 1}
        assert len(asked) == 4
        assert _interchange.cache_info().misses == len(set(asked))
        interchanges.append(len(set(asked)))
    assert interchanges.count(3) == 12 and interchanges.count(2) == 8


def test_public_calls_build_each_structure_once():
    """From cold caches, the 13 verdicts of a suite row asked for through
    the public functions, as a caller without row_verdicts would, on every
    order-6 brace over Q and Fp:5, build phi, Q's action, P(Q(b)), G(F(b))
    and obt_from_matched_pair(F(b)) once each, though phi is asked for
    twice, P three times, G three times and obt_from_matched_pair four
    times.  The module-coalgebra report is built once per side, though the
    module checks and matched-pair axiom (i) both ask for each side's.
    Builds are counted by cache misses, since a cache hit builds nothing."""
    bf = braceforge
    rows = [linearize(s, field) for field in (QQ, F5)
            for g in groups_of_order(6) for s in enumerate_skew_braces(g)]
    assert len(rows) == 20
    for b in rows:
        clear_caches()
        h1, h2 = b.first(), b.second()
        left = bf.LeftModuleData(hopf=h2, carrier=b.space, action=bf.gamma(b))
        right = bf.RightModuleData(hopf=h2, carrier=b.space, action=bf.phi(b))
        t, m = bf.functor_Q(b), bf.functor_F(b)
        direct, via_g = bf.obt_from_matched_pair(m), bf.functor_Q(bf.functor_G(m))
        verdicts = [
            bf.check_hopf_brace(b).ok,
            bf.check_brace_identities(b).ok,
            bf.check_left_module(left).ok,
            bf.check_module_algebra(left, h1.algebra).ok,
            bf.check_module_coalgebra(left, h1.coalgebra).ok,
            bf.check_right_module(right).ok,
            bf.check_right_module_coalgebra(right, h1.coalgebra).ok,
            bf.check_obt(t).ok,
            bf.check_lemma_mu_recovery(t).ok,
            bf.check_hopf(bf.build_deformed_hopf(t)).ok,
            bf.mu_tilde(t) == b.product1,
            bf.roundtrip_PQ(b).ok,
            bf.roundtrip_QP(t).ok,
            bf.check_mp_over_A(m).ok,
            bf.roundtrip_FG(m).ok,
            bf.roundtrip_GF(b).ok,
            direct == via_g,
        ]
        assert all(verdicts)
        builds = {fn.__name__: fn.cache_info().misses
                  for fn in (phi, _q_action, functor_P, functor_G,
                             obt_from_matched_pair, _check_module_coalgebra)}
        assert builds == {"phi": 1, "_q_action": 1, "functor_P": 1,
                          "functor_G": 1, "obt_from_matched_pair": 1,
                          "_check_module_coalgebra": 2}


def test_each_call_builds_its_shared_map_once():
    """functor_F(b) builds gamma(b) once, in its gate check_hopf_brace, and
    its two actions reuse it; check_mp_over_A(m) builds psi(m) once for the
    six axioms and the interweaving identity; on every order <= 4 brace
    over Q and Fp:5."""
    braces = [linearize(s, parse_field(spec)) for spec in ("Q", "Fp:5")
              for order in range(1, 5) for g in groups_of_order(order)
              for s in enumerate_skew_braces(g)]
    assert len(braces) == 18

    def builds():
        return gamma.cache_info().misses, psi.cache_info().misses

    for b in braces:
        clear_caches()
        check_hopf_brace(b)
        assert builds() == (1, 0)
        m = functor_F(b)
        assert builds() == (1, 0)  # no second gamma after the gate
        assert functor_F(b) == m
        assert builds() == (1, 0)
        clear_caches()
        assert check_mp_over_A(m).ok
        assert builds() == (0, 1)


def test_derived_maps_are_shared_by_value_and_split_by_field():
    """An equal record with another meta gets the same gamma, psi and
    mu_tilde object; a brace over Q and its reduction over Fp:5, equal
    constants on another field, never share an entry."""
    s = enumerate_skew_braces(groups_of_order(6)[1])[-1]
    b, bf = linearize(s, QQ), linearize(s, F5)
    for fn, over_q, over_f in ((gamma, b, bf),
                               (psi, functor_F(b), functor_F(bf)),
                               (mu_tilde, functor_Q(b), functor_Q(bf))):
        assert fn(_rebuilt(over_q)) is fn(over_q), fn.__name__
        assert fn(over_f) != fn(over_q), fn.__name__
        assert fn.cache_info().currsize == 2, fn.__name__


def test_cache_holds_at_most_its_bound():
    h = group_algebra(cyclic(2), QQ)
    inputs = [dataclasses.replace(h, antipode=LinMap(
        QQ, h.space, h.space, {(0, 0): k, (1, 1): k})) for k in range(2, 42)]
    assert len(inputs) > MEMO_SIZE
    reps = [check_hopf(x) for x in inputs]
    info = check_hopf.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == \
        (len(inputs), MEMO_SIZE, MEMO_SIZE)
    assert check_hopf(inputs[-1]) is reps[-1]  # the newest is kept
    assert check_hopf(inputs[0]) is not reps[0]  # the oldest was evicted
    assert check_hopf(inputs[0]) == reps[0]


def test_errors_are_not_cached():
    pair = broken_matched_pair("vi")  # its two Hopf components differ
    for _ in range(2):
        with pytest.raises(NotDiagonal):
            check_mp_over_A(pair)
    bad = dataclasses.replace(broken_obt("i"), hopf=broken_antipode())
    for _ in range(2):
        with pytest.raises(PrereqFailed):
            check_obt(bad)
    assert check_mp_over_A.cache_info().currsize == 0
    assert check_obt.cache_info().currsize == 0
    # the failing Hopf report behind the gate is a verdict, so it is kept
    assert check_hopf.cache_info().currsize == 1
    pair = broken_matched_pair("i")  # its left action is not a module
    left = LeftModuleData(hopf=pair.second, carrier=pair.first.space,
                          action=pair.left_action)
    for _ in range(2):
        with pytest.raises(PrereqFailed):
            braceforge.check_module_coalgebra(left, pair.first.coalgebra)
    assert _check_module_coalgebra.cache_info().currsize == 0
    for _ in range(2):
        for fn in (obt_from_matched_pair, functor_G):
            with pytest.raises(MpAxiomsFailed):
                fn(pair)
    assert obt_from_matched_pair.cache_info().currsize == 0
    assert functor_G.cache_info().currsize == 0


def test_memoize_under_threads():
    lock = threading.Lock()
    computed = []

    @memoize
    def square(x):
        with lock:
            computed.append(x)
        return x ** 2

    calls_per_thread, errors = 2000, []

    def work(seed):
        try:
            for i in range(calls_per_thread):
                x = (i * 7 + seed) % 200
                assert square(x % 50) == (x % 50) ** 2
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    info = square.cache_info()
    assert info.hits + info.misses == 6 * calls_per_thread
    assert info.misses == len(computed)
    assert info.currsize <= MEMO_SIZE
