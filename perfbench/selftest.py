"""Self-tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Takes about three minutes on two cores: most of it is the two order-8
enumerations and the two traced mutants_q8 runs.  Exits non-zero on the
first failed test.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import run

BF = run.import_library()
from braceforge import cli  # noqa: E402  (importable only after run put src/ on the path)


def bench(*args: str) -> tuple[list[str], dict]:
    """Run the benchmark in a fresh process; (human lines, result object)."""
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def human_field(lines: list[str], key: str) -> str:
    m = re.search(rf"\b{key}=(\S+)", "\n".join(lines))
    assert m, (key, lines)
    return m.group(1)


def test_benchmark_json_lists_what_run_reports():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_planted_wrong_oracles_are_counted():
    wl = run.WORKLOADS["mutants_q8"]()
    wl.setup(BF, random.Random(0), lambda: None)
    good, wrong_col, missing = wl.plan[:3]
    gi, which, key, col = wrong_col
    wrong_col = (gi, which, key, col + 1)  # predicts the wrong witness column
    gi, which, key, col = missing
    missing = (gi, which, (key[0], -1), col)  # no such entry: prepare raises
    got = run.measure(wl, [good, wrong_col, missing], run.HostClock())
    assert (got.attempted, got.failed) == (3, 2), got

    wl = run.WORKLOADS["corpus_q6"]()
    wl.setup(BF, random.Random(0), lambda: None)
    row = wl.rows[0]
    other = next(s for s in wl.rows if s.dot.table != row.dot.table)
    broken = BF.SkewBraceData(row.dot, other.dot)  # not a skew brace
    assert not BF.check_skew_brace(broken).ok
    got = run.measure(wl, [broken], run.HostClock())
    assert (got.attempted, got.failed) == (1, 1), got
    assert "SkewBraceAxiomsFailed" in got.first_error, got.first_error


def test_every_seed_gets_the_same_mix():
    for name, stratum in (("mutants_q8", lambda item: item[:2]),
                          ("corpus_q6", None)):
        mixes, orders = [], []
        for seed in (1, 2):
            wl = run.WORKLOADS[name]()
            wl.setup(BF, random.Random(seed), lambda: None)
            if stratum is None:  # a corpus: the stratum of each row
                of = {i: key for key, rows in wl.strata.items() for i in rows}
                items = list(itertools.islice(wl.inputs(), 25))
                keys = [(s.dot.label, run.element_orders(s.circ))
                        for s in items]
                assert keys[:10] == [of[i] for i in wl.first_pass]
                orders.append([(s.dot.table, s.circ.table) for s in items])
            else:
                keys = [stratum(item) for item in wl.plan]
                orders.append(wl.plan)
            mixes.append(keys)
        assert mixes[0] == mixes[1], name
        assert orders[0] != orders[1], name


def test_host_clock_scales_by_calibration():
    clock = run.HostClock()
    clock.start()
    clock._cal = 2 * clock.REF_CALIBRATION_S  # the host ran at half speed
    clock._calibrate = lambda: 2 * clock.REF_CALIBRATION_S
    time.sleep(0.05)
    clock.lap()
    assert 0.05 <= clock.wall < 0.5, clock.wall
    assert abs(clock.ref - clock.wall / 2) < 1e-9, (clock.ref, clock.wall)


def test_battery_matches_cli_suite():
    env = os.environ.pop("BRACE_FORGE_THREADS", None)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["suite", "--max-order", "4"])
    finally:
        if env is not None:
            os.environ["BRACE_FORGE_THREADS"] = env
    assert code == 0, out.getvalue()
    rows = [line for line in out.getvalue().splitlines() if "#" in line]
    cli_pass = [line for line in rows
                if line.startswith("PASS") and line.endswith("(13 checks)")]

    bench_pass = attempted = 0
    for order in range(1, 5):
        for g in BF.groups_of_order(order):
            for s in BF.enumerate_skew_braces(g):
                verdicts = run.battery(BF, BF.linearize(s, BF.QQ))
                assert tuple(name for name, _ in verdicts) == run.BATTERY
                attempted += 1
                bench_pass += all(ok for _, ok in verdicts)
    assert len(run.BATTERY) == 13
    assert len(rows) == attempted, (rows, attempted)
    assert len(cli_pass) == bench_pass == attempted, (cli_pass, bench_pass)


def test_traced_counts_repeat_and_overhead():
    args = ("--workload", "mutants_q8", "--seed", "7")
    # 30 s untraced covers about as many ops as the traced list
    untraced, _ = bench(*args, "--seconds", "30", "--trace", "0")
    first_lines, first = bench(*args, "--seconds", "1", "--trace", "1")
    second_lines, second = bench(*args, "--seconds", "1", "--trace", "1")
    assert set(first["metrics"]) == set(run.PER_LAYER)
    counts = {name for name, unit in run.PER_LAYER.items() if unit == "count"}
    a = {k: v["value"] for k, v in first["metrics"].items() if k in counts}
    b = {k: v["value"] for k, v in second["metrics"].items() if k in counts}
    assert a == b, {k: (a[k], b[k]) for k in a if a[k] != b[k]}
    assert a["linmap.equation_entry.failed"] > 0
    assert a["hopf.check_hopf.calls"] > a["hopf.check_hopf.distinct"] > 0
    assert first["failed"] == 0 and first["correct"]
    digests = {human_field(lines, "inputs")
               for lines in (untraced, first_lines, second_lines)}
    assert len(digests) == 1, digests
    traced = float(human_field(first_lines, "op_p50_ms"))
    plain = float(human_field(untraced, "op_p50_ms"))
    print(f"    tracing overhead on mutants_q8: op_p50_ms {traced:.1f} traced - "
          f"{plain:.1f} untraced = {traced - plain:+.1f} ms "
          f"({100 * (traced - plain) / plain:+.0f}%)")


def test_seed_changes_fp8_sample():
    digests = {}
    for seed in ("1", "2"):
        lines, result = bench("--workload", "corpus_fp8", "--seed", seed,
                              "--seconds", "0.1")
        assert result["correct"] and result["failed"] == 0
        digests[seed] = human_field(lines, "inputs")
    assert digests["1"] != digests["2"], digests


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    for name, fn in tests:
        t0 = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL  {name}: {exc!r:.2000}")
            return 1
        print(f"PASS  {name} ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
