"""Corpus-verification benchmark for braceforge.

Run from the root of a checkout; the library is imported from its src/:

    python3 perfbench/run.py --workload corpus_q6 --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each was chosen):

  corpus_q6   the 10 labeled skew braces of order 6, over Q
  corpus_fp8  a seeded sample of the 314 labeled skew braces of order 8, over Fp:5
  mutants_q8  trivial order-8 braces and triples over Q with one structure
              constant doubled

An op of a corpus workload is linearize plus the 13-check battery that
`braceforge suite` runs per brace; an op of mutants_q8 is one checker
call on one mutant.  Inputs come in a stratified order, so every run
of a workload verifies the same mix of input classes whatever its seed.
Inputs never repeat within a run: once a corpus is used up, rows come
back relabeled by a seeded permutation of the elements that fixes the
identity.

Times are reported on a reference host: HostClock runs a fixed
calibration kernel between timed pieces of work and scales each piece
by how much slower than its reference time the kernel ran around it.
This takes out the drift of a shared host's speed; the human lines
print the wall times too.

--trace 0 verifies inputs for --seconds seconds and reports the
end-to-end metrics.  --trace 1 wraps the layer functions (tracer.py),
verifies a fixed list of inputs so that its counts repeat exactly for a
seed, writes the spans to perfbench/out/ and reports the per-layer
metrics.  Everything runs in this one process on one thread.

Earlier stdout lines are for people; the last one is a JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The 13 verdicts `braceforge suite` reports per brace row, in its order.
BATTERY = ("brace", "identities", "modules", "obt", "lemma", "deformed_hopf",
           "deformed_product", "roundtrip_PQ", "roundtrip_QP", "matched_pair",
           "roundtrip_FG", "roundtrip_GF", "obt_from_mp")

END_TO_END = {  # name -> unit
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Layer functions reported by the traced run: the public functions of the
# layer modules that some workload calls on its critical path.
LAYER_FUNCTIONS = (
    "linmap.compose", "linmap.tensor", "linmap.braiding",
    "linmap.equation_entry", "linmap.equal", "linmap.first_difference",
    "hopf.check_hopf", "hopf.check_algebra", "hopf.check_coalgebra",
    "hopf.convolve", "hopf.convolution_unit", "hopf.is_cocommutative",
    "hopf.group_algebra", "hopf.make_hopf",
    "actions.check_left_module", "actions.check_right_module",
    "actions.check_module_algebra", "actions.check_module_coalgebra",
    "actions.check_right_module_coalgebra",
    "actions.left_tensor_square_action", "actions.right_tensor_square_action",
    "brace.check_hopf_brace", "brace.check_brace_identities", "brace.gamma",
    "brace.phi", "brace.require_valid_brace", "brace.trivial_brace",
    "obt.check_obt", "obt.require_valid_obt", "obt.mu_tilde",
    "obt.build_deformed_hopf", "obt.check_lemma_mu_recovery",
    "obt.functor_P", "obt.functor_Q", "obt.roundtrip_PQ", "obt.roundtrip_QP",
    "matched.check_matched_pair", "matched.check_mp_over_A",
    "matched.require_valid_mp_over_A", "matched.psi", "matched.functor_F",
    "matched.functor_G", "matched.roundtrip_FG", "matched.roundtrip_GF",
    "matched.obt_from_matched_pair",
    "skewbraces.enumerate_skew_braces", "skewbraces.group_tables",
    "skewbraces.check_group", "skewbraces.check_skew_brace",
    "skewbraces.linearize",
)
LAYER_EXTRAS = ("linmap.compose.nnz_out", "linmap.tensor.nnz_out",
                "linmap.equation_entry.failed", "hopf.check_hopf.distinct")
PER_LAYER = {  # name -> unit
    **{f"{fn}.{kind}": unit for fn in LAYER_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{name: "count" for name in LAYER_EXTRAS},
}

RELABEL_TRIES = 64


def import_library():
    """braceforge from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "braceforge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no braceforge sources under {src}")
    sys.path.insert(0, str(src))
    import braceforge

    if Path(braceforge.__file__).resolve().parent != src / "braceforge":
        sys.exit(f"perfbench: imported braceforge from {braceforge.__file__}")
    return braceforge


def battery(bf, b) -> list[tuple[str, bool]]:
    """The per-brace verdicts of `braceforge suite`, through the public API."""
    return list(verdicts(bf, b))


def verdicts(bf, b):
    """battery() one verdict at a time, so a caller can lap a clock between."""
    yield "brace", bf.check_hopf_brace(b).ok
    yield "identities", bf.check_brace_identities(b).ok
    h1, h2 = b.first(), b.second()
    mod = bf.LeftModuleData(hopf=h2, carrier=b.space, action=bf.gamma(b))
    mods_ok = (bf.check_left_module(mod).ok
               and bf.check_module_algebra(mod, h1.algebra).ok
               and bf.check_module_coalgebra(mod, h1.coalgebra).ok)
    rmod = bf.RightModuleData(hopf=h2, carrier=b.space, action=bf.phi(b))
    mods_ok = (mods_ok and bf.check_right_module(rmod).ok
               and bf.check_right_module_coalgebra(rmod, h1.coalgebra).ok)
    yield "modules", mods_ok
    t = bf.functor_Q(b)
    yield "obt", bf.check_obt(t).ok
    yield "lemma", bf.check_lemma_mu_recovery(t).ok
    yield "deformed_hopf", bf.check_hopf(bf.build_deformed_hopf(t)).ok
    yield "deformed_product", bf.mu_tilde(t) == b.product1
    yield "roundtrip_PQ", bf.roundtrip_PQ(b).ok
    yield "roundtrip_QP", bf.roundtrip_QP(t).ok
    m = bf.functor_F(b)
    yield "matched_pair", bf.check_mp_over_A(m).ok
    yield "roundtrip_FG", bf.roundtrip_FG(m).ok
    yield "roundtrip_GF", bf.roundtrip_GF(b).ok
    direct = bf.obt_from_matched_pair(m)
    via_g = bf.functor_Q(bf.functor_G(m))
    yield "obt_from_mp", (direct.action == via_g.action
                          and direct.involution == via_g.involution
                          and direct.hopf.product == via_g.hopf.product)


def relabel(bf, s, perm):
    """The skew brace s with element a renamed perm[a]."""
    def move(t):
        n = t.order
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                rows[perm[a]][perm[b]] = perm[t.table[a][b]]
        return bf.CayleyTable(tuple(map(tuple, rows)), perm[t.identity], t.meta)
    return bf.SkewBraceData(move(s.dot), move(s.circ), s.meta)


def element_orders(t) -> tuple[int, ...]:
    """The sorted orders of a group's elements: its class up to isomorphism
    among the groups of order 6 and 8."""
    orders = []
    for a in range(t.order):
        k, x = 1, a
        while x != t.identity:
            x, k = t.table[x][a], k + 1
        orders.append(k)
    return tuple(sorted(orders))


def stratified(strata: dict, rng: random.Random) -> list:
    """The members of every stratum, in seeded order within each stratum,
    taken round-robin over the strata in key order.

    Any prefix of the result holds the same number of members of each
    stratum whatever the seed, so runs of one length verify one mix."""
    queues = []
    for key in sorted(strata):
        members = list(strata[key])
        rng.shuffle(members)
        queues.append(members)
    return [m for rnd in itertools.zip_longest(*queues) for m in rnd
            if m is not None]


# ---------------------------------------------------------------------------
# the clock

class HostClock:
    """Wall time of benchmark work, converted to time on a reference host.

    The speed of a shared host drifts, by up to 2x in phases of seconds
    to tens of seconds (README.md), so wall times of the same work spread
    more across runs than any change worth measuring.  The clock runs a
    fixed calibration kernel before a piece of timed work and after it,
    and scales the piece by REF_CALIBRATION_S over the mean of the two
    calibration times: a piece that took 100 ms while the kernel took
    twice its reference time counts 50 ms.  The kernel is a sparse matrix
    product over fractions.Fraction with dict rows, the kind of work
    braceforge does, written here so that no change to braceforge can
    speed it up.  Callers lap the clock between short pieces of an op,
    so that the calibrations sit close to the work they scale.
    """

    REF_CALIBRATION_S = 0.006  # about the kernel's time on the README's machine
    SIZE = 40

    def __init__(self):
        rng = random.Random(0)
        self._a, self._b = (
            {i: {rng.randrange(self.SIZE): Fraction(rng.randrange(1, 9),
                                                    rng.randrange(1, 5))
                 for _ in range(6)} for i in range(self.SIZE)}
            for _ in range(2))
        self.wall = self.ref = 0.0
        self._cal = self._t0 = 0.0

    def _calibrate(self) -> float:
        t0 = time.perf_counter()
        out: dict = {}
        for i, row in self._a.items():
            for k, x in row.items():
                for j, y in self._b[k].items():
                    out[i, j] = out.get((i, j), 0) + x * y
        return time.perf_counter() - t0

    def start(self) -> None:
        """Calibrate, then start timing a new piece of work from zero."""
        self.wall = self.ref = 0.0
        self._cal = self._calibrate()
        self._t0 = time.perf_counter()

    def lap(self) -> None:
        """Add the time since the last start or lap, scaled, and calibrate."""
        d = time.perf_counter() - self._t0
        cal = self._calibrate()
        self.wall += d
        self.ref += d * 2 * self.REF_CALIBRATION_S / (self._cal + cal)
        self._cal = cal
        self._t0 = time.perf_counter()


# ---------------------------------------------------------------------------
# workloads

class Corpus:
    """Every labeled skew brace on the catalog groups of one order.

    A stratum is the pair (dot group, isomorphism class of the circ
    group); verifying rows of one stratum costs about the same.
    """

    def __init__(self, order: int, field: str, counts: dict[str, int],
                 trace_ops: int, setup_runs: int):
        self.order, self.field_spec = order, field
        self.counts, self.trace_ops = counts, trace_ops
        self.setup_runs = setup_runs

    def setup(self, bf, rng: random.Random, lap) -> list[str]:
        """Enumerate the corpus; returns setup oracle failures."""
        self.bf, self.rng = bf, rng
        self.field = bf.parse_field(self.field_spec)
        self.rows, found = [], {}
        for g in bf.groups_of_order(self.order):
            braces = bf.enumerate_skew_braces(g)
            lap()
            found[g.label] = len(braces)
            self.rows.extend(braces)
        self.strata = defaultdict(list)
        for i, s in enumerate(self.rows):
            self.strata[s.dot.label, element_orders(s.circ)].append(i)
        self.first_pass = stratified(self.strata, rng)
        if found != self.counts:
            return [f"skew brace counts {found}, expected {self.counts}"]
        return []

    def digest_data(self):
        return [self.field_spec] + [
            [self.rows[i].dot.table, self.rows[i].circ.table]
            for i in self.first_pass]

    def inputs(self):
        rng, rows = self.rng, self.rows
        seen = {(s.dot.table, s.circ.table) for s in rows}
        yield from (rows[i] for i in self.first_pass)
        while True:
            for i in stratified(self.strata, rng):
                s = rows[i]
                e = s.dot.identity
                others = [a for a in range(s.order) if a != e]
                for _ in range(RELABEL_TRIES):
                    images = others[:]
                    rng.shuffle(images)
                    perm = list(range(s.order))
                    for a, image in zip(others, images):
                        perm[a] = image
                    r = relabel(self.bf, s, perm)
                    key = (r.dot.table, r.circ.table)
                    if key not in seen:
                        break
                else:
                    return  # no unused relabeling found: the stream ends
                seen.add(key)
                yield r

    def prepare(self, item):
        return item

    def op(self, s, lap):
        out = []
        for verdict in verdicts(self.bf, self.bf.linearize(s, self.field)):
            lap()
            out.append(verdict)
        return out

    def check(self, item, out) -> bool:
        return (tuple(name for name, _ in out) == BATTERY
                and all(ok for _, ok in out))


class Mutants:
    """One doubled nonzero structure constant per input.

    Mutated maps: product1 or product2 of trivial_brace(group_algebra(g, Q)),
    checked by check_hopf_brace, and the action of functor_Q of that brace,
    checked by check_obt, for the five catalog groups of order 8.  Doubling
    the constant in column c makes the counit equation fail first at
    column c, with left value 2 and right value 1.  A stratum is the pair
    (group, mutated map).
    """

    ENTRY = {"product1": "first.bialgebra.product.counit",
             "product2": "second.bialgebra.product.counit",
             "action": "i"}
    trace_ops = 150
    setup_runs = 3

    def setup(self, bf, rng: random.Random, lap) -> list[str]:
        self.bf = bf
        self.bases = []
        for g in bf.groups_of_order(8):
            b = bf.trivial_brace(bf.group_algebra(g, bf.QQ))
            self.bases.append((b, bf.functor_Q(b)))
            lap()
        # (group index, mutated map, doubled entry, predicted witness column)
        strata = {
            (gi, which): [(gi, which, key, key[1])
                          for key in sorted(k for k, _ in m.items())]
            for gi, (b, t) in enumerate(self.bases)
            for which, m in (("product1", b.product1), ("product2", b.product2),
                             ("action", t.action))}
        self.plan = stratified(strata, rng)
        return []

    def digest_data(self):
        return self.plan

    def inputs(self):
        # 960 distinct mutants; a run that uses them all ends early
        return iter(self.plan)

    def prepare(self, item):
        gi, which, key, _ = item
        b, t = self.bases[gi]
        target = t if which == "action" else b
        m = getattr(target, which)
        entries = dict(m.items())
        entries[key] = m.field.add(entries[key], entries[key])
        doubled = self.bf.LinMap(m.field, m.domain, m.codomain, entries)
        return which, dataclasses.replace(target, **{which: doubled})

    def op(self, x, lap):
        which, data = x
        check = self.bf.check_obt if which == "action" else self.bf.check_hopf_brace
        return check(data)

    def check(self, item, rep) -> bool:
        _, which, _, col = item
        entry = rep.entry(self.ENTRY[which])
        return (not entry.passed and entry.witness == {
            "kind": "entry", "row": 0, "col": col, "left": "2", "right": "1"})


WORKLOADS = {
    "corpus_q6": lambda: Corpus(6, "Q", {"Z6": 2, "S3": 8}, trace_ops=16,
                                setup_runs=5),
    "corpus_fp8": lambda: Corpus(
        8, "Fp:5", {"Z8": 6, "Z2xZ4": 28, "Z2xZ2xZ2": 232, "D4": 20, "Q8": 28},
        trace_ops=16, setup_runs=1),
    "mutants_q8": Mutants,
}


# ---------------------------------------------------------------------------
# measuring

@dataclasses.dataclass
class Measured:
    latencies: list[float]  # per op, on the reference host
    wall: list[float]  # per op, as the wall clock read them
    attempted: int
    failed: int
    first_error: str | None = None


def measure(wl, items, clock: HostClock, deadline: float = math.inf,
            tracer=None) -> Measured:
    """Run ops over items until they end or an op ends past the deadline.

    An op counts as failed when its output disagrees with the workload's
    oracle or when preparing or running it raises.
    """
    got = Measured([], [], 0, 0)
    for item in items:
        if tracer is not None:
            tracer.op = got.attempted
        got.attempted += 1
        try:
            x = wl.prepare(item)
            with tracer.span("op") if tracer is not None else nullcontext():
                clock.start()
                try:
                    out = wl.op(x, clock.lap)
                finally:
                    clock.lap()
                    got.latencies.append(clock.ref)
                    got.wall.append(clock.wall)
            ok = wl.check(item, out)
            why = "output disagrees with the oracle"
        except Exception as exc:  # a raising op is a failed op, not a crash
            ok, why = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            got.failed += 1
            if got.first_error is None:
                got.first_error = f"input {item!r:.120}: {why}"
        if time.perf_counter() >= deadline:
            break
    return got


def tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest nearest-rank
    percentile with at least ten samples beyond it; the maximum when there
    are too few samples for one."""
    n = len(sorted_ms)
    if n > 10:
        return sorted_ms[n - 11], 100.0 * (n - 10) / n, 10
    return sorted_ms[-1], 100.0, 0


def timed_setup(wl, bf, seed: int, clock: HostClock, tracer=None):
    """(problems, reference seconds, wall seconds) of one set-up."""
    with tracer.span("setup") if tracer is not None else nullcontext():
        clock.start()
        problems = wl.setup(bf, random.Random(seed), clock.lap)
        clock.lap()
    return problems, clock.ref, clock.wall


def child_setup_s(args) -> float:
    """Reference seconds of one set-up in a fresh process, so that nothing
    the library cached in this process serves it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # time one set-up, print its reference seconds and exit (child_setup_s)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bf = import_library()
    wl = WORKLOADS[args.workload]()
    clock = HostClock()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    problems, setup_ref, setup_wall = timed_setup(wl, bf, args.seed, clock,
                                                  tracer)
    if args.setup_only:
        for line in problems:
            print(f"perfbench: {line}", file=sys.stderr)
        print(setup_ref)
        return 1 if problems else 0
    digest = hashlib.sha256(
        json.dumps(wl.digest_data()).encode()).hexdigest()[:16]

    if tracer is not None:
        setups = [setup_ref]
        run = measure(wl, itertools.islice(wl.inputs(), wl.trace_ops), clock,
                      tracer=tracer)
        tracer.uninstall()
    else:
        # set-up in fresh processes too, for a median of cold set-ups
        setups = [setup_ref] + [child_setup_s(args)
                                for _ in range(wl.setup_runs - 1)]
        items = wl.inputs()
        warm_up = measure(wl, itertools.islice(items, 1), clock)  # not counted
        if warm_up.first_error:
            problems.append(f"warm-up op failed: {warm_up.first_error}")
        run = measure(wl, items, clock, time.perf_counter() + args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if run.first_error:
        problems.append(f"{run.failed} failed ops; first: {run.first_error}")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)

    lat_ms = sorted(1000 * x for x in run.latencies)
    if not lat_ms:
        print("perfbench: no op ran to completion; nothing to report",
              file=sys.stderr)
        return 1
    tail_ms, tail_pct, beyond = tail(lat_ms)
    e2e = {
        "ops_per_s": run.attempted / sum(run.latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={digest} ops={run.attempted} "
          f"failed_ratio={run.failed / max(run.attempted, 1):g} "
          f"({run.failed}/{run.attempted})")
    print("  " + "  ".join(f"{k}={v:.6g} {END_TO_END[k]}" for k, v in e2e.items())
          + f"  (op_tail_ms is p{tail_pct:.4g}, {beyond} of {len(lat_ms)} "
            f"samples beyond it; setup_s is the median of {len(setups)})")
    print(f"  wall clock: op_p50_ms={1000 * statistics.median(run.wall):.6g} "
          f"setup_s={setup_wall:.6g}; reference/wall time "
          f"{sum(run.latencies) / sum(run.wall):.3f}")

    if tracer is not None:
        measured = tracer.layer_metrics()
        metrics = {name: {"value": measured.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
        out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(out)
        print(f"  {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
