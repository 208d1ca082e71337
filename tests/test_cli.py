import dataclasses
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import braceforge
from braceforge import (CayleyTable, HopfAlgebraData, LinMap,
                        OppBraceTripleData, QQ, SkewBraceData, check_group,
                        check_hopf, check_hopf_brace, cyclic,
                        enumerate_skew_braces, functor_F, functor_Q,
                        group_algebra, linearize, load, save, symmetric_3,
                        trivial_brace)
from braceforge.cli import _CONSTRUCTIONS, main
from braceforge.storage import KINDS, to_document

from mutants import dual_group_hopf, trivial_left_action


def run(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


@pytest.fixture()
def files(tmp_path):
    paths = {}
    save(symmetric_3(), tmp_path / "s3.json")
    save(group_algebra(symmetric_3(), QQ), tmp_path / "h_s3.json")
    z3 = group_algebra(cyclic(3), QQ)
    broken = HopfAlgebraData(z3.unit, z3.product, z3.counit, z3.coproduct,
                             LinMap.identity(QQ, z3.space))
    save(broken, tmp_path / "broken.json")
    save(trivial_brace(dual_group_hopf(symmetric_3(), QQ)),
         tmp_path / "dual_brace.json")
    paths.update(s3=tmp_path / "s3.json", hopf=tmp_path / "h_s3.json",
                 broken=tmp_path / "broken.json",
                 dual_brace=tmp_path / "dual_brace.json", dir=tmp_path)
    return paths


def test_check_passing_file(files, capsys):
    code, out, _ = run("check", "hopf", str(files["hopf"]), capsys=capsys)
    assert code == 0
    assert out.strip().endswith(f"OK  hopf {files['hopf']}")


def test_check_failing_file(files, capsys):
    code, out, _ = run("check", "hopf", str(files["broken"]), capsys=capsys)
    assert code == 1
    assert "FAIL" in out
    assert "antipode.left" in out


def test_check_json_output(files, capsys):
    code, out, _ = run("check", "hopf", str(files["hopf"]), "--json",
                       capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert {"name", "passed", "witness"} <= set(doc["entries"][0])
    names = [e["name"] for e in doc["entries"]]
    assert "antipode.left" in names and "algebra.associativity" in names


def test_check_wrong_kind_exits_2(files, capsys):
    code, _, err = run("check", "group", str(files["hopf"]), capsys=capsys)
    assert code == 2
    assert "expected group" in err


def test_check_every_kind_rejects_every_other_kind(tmp_path, capsys):
    s = enumerate_skew_braces(cyclic(4))[1]
    b = linearize(s, QQ)
    objs = {"hopf": group_algebra(cyclic(2), QQ), "brace": b,
            "obt": functor_Q(b), "matched_pair": functor_F(b),
            "group": cyclic(4), "skew_brace": s}
    assert sorted(objs) == sorted(KINDS)
    for kind, obj in objs.items():
        save(obj, tmp_path / f"{kind}.json")
    for kind in KINDS:
        for other in KINDS:
            if other == kind:
                continue
            path = tmp_path / f"{other}.json"
            code, out, err = run("check", kind, str(path), capsys=capsys)
            assert code == 2
            assert out == ""
            assert err == f"error: {path} holds a {other} file, expected {kind}\n"


@pytest.mark.parametrize("data, error", [
    (b"[" * 200000, "cannot parse: "),
    (b"1" * 5000, "cannot parse: "),
    (b'{"metadata": "caf\xe9"}', "cannot read {path}: 'utf-8' codec"),
    (b'{"kind": "hopf", "kind": "group"}', "duplicate key 'kind'"),
], ids=["deep_nesting", "long_integer", "not_utf8", "duplicate_key"])
def test_check_unparsable_json_exits_2(data, error, tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_bytes(data)
    code, out, err = run("check", "hopf", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + error.format(path=path))
    assert err.count("\n") == 1


def test_check_null_metadata_exits_2(tmp_path, capsys):
    doc = to_document(symmetric_3())
    doc["metadata"] = None
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = run("check", "group", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: metadata must be an object\n"


def test_check_missing_file_exits_2(files, capsys):
    code, _, err = run("check", "hopf", str(files["dir"] / "nope.json"),
                       capsys=capsys)
    assert code == 2
    assert "error:" in err


def test_group_algebra_construct_and_recheck(files, capsys):
    out_path = files["dir"] / "built.json"
    code, out, _ = run("construct", "group-algebra", str(files["s3"]),
                       "-o", str(out_path), "--field", "Fp:5", capsys=capsys)
    assert code == 0
    assert out.strip() == f"wrote hopf {out_path}"
    assert run("check", "hopf", str(out_path), capsys=capsys)[0] == 0


def test_group_algebra_requires_field(files, capsys):
    code, _, err = run("construct", "group-algebra", str(files["s3"]),
                       "-o", str(files["dir"] / "x.json"), capsys=capsys)
    assert code == 2 and "--field" in err
    code, _, err = run("construct", "group-algebra", str(files["s3"]),
                       "-o", str(files["dir"] / "x.json"), "--field", "F3",
                       capsys=capsys)
    assert code == 2


def test_field_on_any_other_construction_exits_2(tmp_path, capsys):
    b = trivial_brace(group_algebra(cyclic(2), QQ))
    inputs = {"hopf": b.first(), "brace": b, "obt": functor_Q(b),
              "matched_pair": functor_F(b)}
    for kind, obj in inputs.items():
        save(obj, tmp_path / f"{kind}.json")
    ops = [op for op in _CONSTRUCTIONS if op != "group-algebra"]
    assert len(ops) == 6
    for op in ops:
        out_path = tmp_path / f"{op}.out.json"
        code, out, err = run("construct", op,
                             str(tmp_path / f"{_CONSTRUCTIONS[op][0]}.json"),
                             "-o", str(out_path), "--field", "Fp:5",
                             capsys=capsys)
        assert (code, out) == (2, ""), op
        assert err == "error: --field applies only to construct group-algebra\n"
        assert not out_path.exists()


def test_construct_chain_and_roundtrips(files, capsys):
    d = files["dir"]
    assert run("construct", "trivial-brace", str(files["hopf"]),
               "-o", str(d / "b.json"), capsys=capsys)[0] == 0
    assert run("check", "brace", str(d / "b.json"), capsys=capsys)[0] == 0
    for op, src, out_name, kind in (
            ("Q", "b.json", "t.json", "obt"),
            ("P", "t.json", "b2.json", "brace"),
            ("F", "b.json", "m.json", "matched_pair"),
            ("G", "m.json", "b3.json", "brace"),
            ("obt-from-mp", "m.json", "t2.json", "obt")):
        code, out, _ = run("construct", op, str(d / src),
                           "-o", str(d / out_name), capsys=capsys)
        assert code == 0
        assert out.strip() == f"wrote {kind} {d / out_name}"
        assert run("check", kind, str(d / out_name), capsys=capsys)[0] == 0
    for which, src in (("PQ", "b.json"), ("QP", "t.json"),
                       ("FG", "m.json"), ("GF", "b.json")):
        code, out, _ = run("roundtrip", which, str(d / src), capsys=capsys)
        assert code == 0, which
        assert "OK" in out
    # the two obt constructions agree byte for byte
    assert (d / "t.json").read_bytes() == (d / "t2.json").read_bytes()


def test_construct_gate_exits_3(files, capsys):
    code, _, err = run("construct", "Q", str(files["dual_brace"]),
                       "-o", str(files["dir"] / "x.json"), capsys=capsys)
    assert code == 3
    assert "precondition:" in err


def test_construct_axioms_failed_prints_report_exits_1(files, capsys):
    b = linearize(enumerate_skew_braces(cyclic(3))[0], QQ)
    product2 = dict(b.product2.items())
    product2[(0, 0)] = 2  # e.e := 2e breaks the second structure
    broken = dataclasses.replace(
        b, product2=LinMap(QQ, b.product2.domain, b.product2.codomain, product2))
    save(broken, files["dir"] / "broken_brace.json")
    code, out, err = run("construct", "Q", str(files["dir"] / "broken_brace.json"),
                         "-o", str(files["dir"] / "x.json"), capsys=capsys)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[0] == "error: hopf brace axioms fail"
    assert "\n".join(lines[1:]) == str(check_hopf_brace(broken))
    assert "FAIL  second.bialgebra.product.counit" in err


def test_construct_not_a_group_prints_report_exits_1(files, capsys):
    rows = [list(r) for r in cyclic(3).table]
    rows[1][1] = 1  # g.g := g
    save(CayleyTable(rows, 0), files["dir"] / "bad_group.json")
    code, _, err = run("construct", "group-algebra",
                       str(files["dir"] / "bad_group.json"), "--field", "Q",
                       "-o", str(files["dir"] / "x.json"), capsys=capsys)
    assert code == 1
    assert err.splitlines() == [
        "error: table fails the group axioms",
        "PASS  identity",
        "PASS  inverses",
        "FAIL  associativity  [a=1 b=1 c=2 left=0 right=1]"]


def test_enumerate_builtin(files, capsys):
    outdir = files["dir"] / "braces"
    code, out, _ = run("enumerate", "skew-braces", "--group", "builtin:Z4",
                       "-o", str(outdir), capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "group=Z4 order=4 skew_braces=2"
    assert sorted(p.name for p in outdir.iterdir()) == [
        "skew_brace_000.json", "skew_brace_001.json"]
    assert run("check", "skew_brace", str(outdir / "skew_brace_001.json"),
               capsys=capsys)[0] == 0


def test_enumerate_group_file_and_linearize(files, capsys):
    d = files["dir"]
    code, out, _ = run("enumerate", "skew-braces", "--group", str(files["s3"]),
                       capsys=capsys)
    assert code == 0
    assert out.strip() == "group=S3 order=6 skew_braces=8"
    outdir = d / "z3"
    run("enumerate", "skew-braces", "--group", "builtin:Z3",
        "-o", str(outdir), capsys=capsys)
    code, out, _ = run("linearize", str(outdir / "skew_brace_000.json"),
                       "--field", "Fp:5", "-o", str(d / "lin.json"),
                       capsys=capsys)
    assert code == 0
    assert run("check", "brace", str(d / "lin.json"), capsys=capsys)[0] == 0


def test_enumerate_order_guard_exits_3(files, capsys):
    code, _, err = run("enumerate", "skew-braces", "--group", "builtin:Z8",
                       "--max-order", "4", capsys=capsys)
    assert code == 3
    assert "precondition:" in err
    # a group file past the library bound is refused before -o is created
    d = files["dir"]
    save(cyclic(9), d / "z9.json")
    code, out, err = run("enumerate", "skew-braces", "--group",
                         str(d / "z9.json"), "--max-order", "20",
                         "-o", str(d / "out"), capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "precondition: enumeration is guarded at order 8, got 9\n"
    assert not (d / "out").exists()


def test_enumerate_order_guard_precedes_the_cyclic_table(capsys, monkeypatch):
    small = braceforge.skewbraces.cyclic

    def cyclic_up_to_8(n):
        assert n <= 8, f"built the Z{n} table"
        return small(n)

    monkeypatch.setattr(braceforge.skewbraces, "cyclic", cyclic_up_to_8)
    for bound, want in (
            ((), "group order 100000 exceeds --max-order 8"),
            (("--max-order", "100000"),
             "enumeration is guarded at order 8, got 100000")):
        code, out, err = run("enumerate", "skew-braces", "--group",
                             "builtin:Z100000", *bound, capsys=capsys)
        assert (code, out) == (3, "")
        assert err == f"precondition: {want}\n"


def test_enumerate_output_onto_a_file_exits_2(files, capsys):
    code, out, err = run("enumerate", "skew-braces", "--group", "builtin:Z3",
                         "-o", str(files["s3"]), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {files['s3']}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("target", ["nodir/b.json", "."])
def test_linearize_unwritable_output_exits_2(target, files, capsys):
    d = files["dir"]
    save(enumerate_skew_braces(cyclic(3))[0], d / "s.json")
    path = d / target
    code, out, err = run("linearize", str(d / "s.json"), "--field", "Q",
                         "-o", str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-3"])
def test_enumerate_max_order_below_1_exits_2(value, capsys):
    code, out, err = run("enumerate", "skew-braces", "--group", "builtin:Z3",
                         "--max-order", value, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --max-order must be at least 1, got {value}\n"


def test_check_gate_prints_report_exits_3(files, capsys):
    broken = load(files["broken"])
    triple = OppBraceTripleData(
        hopf=broken, action=trivial_left_action(broken, broken.space),
        involution=broken.antipode)
    save(triple, files["dir"] / "t.json")
    code, out, err = run("check", "obt", str(files["dir"] / "t.json"),
                         capsys=capsys)
    assert (code, out) == (3, "")
    assert err == ("precondition: triple axioms are gated on check_hopf\n"
                   f"{check_hopf(broken)}\n")


def test_linearize_gate_prints_report_exits_3(files, capsys):
    rows = [list(r) for r in cyclic(3).table]
    rows[1][1] = 1  # g.g := g
    circ = CayleyTable(rows, 0)
    save(SkewBraceData(cyclic(3), circ), files["dir"] / "bad_circ.json")
    code, out, err = run("linearize", str(files["dir"] / "bad_circ.json"),
                         "--field", "Q", "-o", str(files["dir"] / "x.json"),
                         capsys=capsys)
    assert (code, out) == (3, "")
    assert err == ("precondition: circ table is not a group\n"
                   f"{check_group(circ)}\n")


def test_unknown_builtin_exits_2(files, capsys):
    code, _, err = run("enumerate", "skew-braces", "--group", "builtin:M11",
                       capsys=capsys)
    assert code == 2


def test_suite_small(capsys):
    code, out, _ = run("suite", "--max-order", "3", capsys=capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "suite: 6/6 pass (max order 3, field Q)"
    assert sum(1 for l in lines if l.startswith("PASS")) == 6
    assert any("(13 checks)" in l for l in lines)


def test_suite_failing_row_names_its_verdicts_and_exits_1(capsys, monkeypatch):
    monkeypatch.delenv("BRACE_FORGE_THREADS", raising=False)
    verdicts = braceforge.cli.row_verdicts

    def lemma_fails_on_z2(b):
        for name, ok in verdicts(b):
            yield name, ok and not (name == "lemma" and b.space.dim == 2)

    monkeypatch.setattr(braceforge.cli, "row_verdicts", lemma_fails_on_z2)
    code, out, _ = run("suite", "--max-order", "3", capsys=capsys)
    assert code == 1
    assert out.splitlines() == [
        "PASS  Z1 group-algebra             (1 checks)",
        "PASS  Z2 group-algebra             (1 checks)",
        "PASS  Z3 group-algebra             (1 checks)",
        "PASS  Z1#0 Q                       (13 checks)",
        "FAIL  Z2#0 Q                       [lemma]",
        "PASS  Z3#0 Q                       (13 checks)",
        "suite: 5/6 pass (max order 3, field Q)"]


# sha256 of the serial `suite --max-order 8` stdout: the whole order <= 8
# corpus, 14 group algebras and 335 braces with 13 verdicts each
SUITE_8_SHA256 = {
    "Q": "bcae20399d544d89e08715da8eca9bbeacbaf922201509ab13cbd0999d2e73f5",
    "Fp:5": "067a9e62a0022b3b036904800b064ea3254cfe00600e2e2e708c18e1f820de35",
}


@pytest.mark.parametrize("spec", list(SUITE_8_SHA256))
def test_suite_order_8_is_frozen(spec, capsys, monkeypatch):
    monkeypatch.delenv("BRACE_FORGE_THREADS", raising=False)
    code, out, err = run("suite", "--max-order", "8", "--field", spec,
                         capsys=capsys)
    assert (code, err) == (0, "")
    assert out.endswith(f"suite: 349/349 pass (max order 8, field {spec})\n")
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_8_SHA256[spec]


def test_suite_past_the_catalogue_exits_3_before_any_work(capsys, monkeypatch):
    def never(table):
        raise AssertionError("suite enumerated before checking --max-order")

    monkeypatch.setattr(braceforge.cli, "enumerate_skew_braces", never)
    code, out, err = run("suite", "--max-order", "9", capsys=capsys)
    assert (code, out) == (3, "")
    assert err == "precondition: no group catalogue for order 9\n"


@pytest.mark.parametrize("value", ["0", "-3"])
def test_suite_max_order_below_1_exits_2(value, capsys):
    code, out, err = run("suite", "--max-order", value, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --max-order must be at least 1, got {value}\n"


@pytest.mark.parametrize("p, why", [
    ("318665857834031151167461", "a prime integer"),  # strong pseudoprime to 2..37
    ("3317044064679887385961981", "below 3317044064679887385961981"),  # to 2..41
])
def test_suite_pseudoprime_field_exits_2(p, why, capsys):
    code, out, err = run("suite", "--max-order", "2", "--field", f"Fp:{p}",
                         capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: modulus must be {why}, got {p}\n"


def test_suite_field_and_threads(capsys, monkeypatch):
    monkeypatch.setenv("BRACE_FORGE_THREADS", "2")
    code, out, _ = run("suite", "--max-order", "3", "--field", "Fp:5",
                       capsys=capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == \
        "suite: 6/6 pass (max order 3, field Fp:5)"
    monkeypatch.delenv("BRACE_FORGE_THREADS")
    assert run("suite", "--max-order", "3", "--field", "Fp:5",
               capsys=capsys) == (0, out, "")


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Replace multiprocessing.Pool by a fake that records the requested
    size and maps serially, so no worker process is started."""
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    return sizes


def test_suite_threads_capped_at_cpus_and_rows(capsys, monkeypatch, pool_sizes):
    # --max-order 3 has three skew brace rows (Z1, Z2, Z3)
    _, serial, _ = run("suite", "--max-order", "3", capsys=capsys)
    monkeypatch.setenv("BRACE_FORGE_THREADS", "1000")
    for cpus, expected in ((64, 3), (2, 2), (1, None), (None, None)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert run("suite", "--max-order", "3", capsys=capsys) == (0, serial, "")
        assert pool_sizes[-1:] == ([expected] if expected else [])
        pool_sizes.clear()


@pytest.mark.parametrize("value", ["", " ", "0", "1"])
def test_suite_threads_serial_values(value, capsys, monkeypatch, pool_sizes):
    monkeypatch.setenv("BRACE_FORGE_THREADS", value)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    code, out, _ = run("suite", "--max-order", "2", capsys=capsys)
    assert code == 0 and out.strip().endswith("suite: 4/4 pass (max order 2, field Q)")
    assert pool_sizes == []


@pytest.mark.parametrize("value", ["abc", "-2", "1.5", "2x", "\u0662"])
def test_suite_bad_threads_exit_2(value, capsys, monkeypatch, pool_sizes):
    monkeypatch.setenv("BRACE_FORGE_THREADS", value)
    code, out, err = run("suite", "--max-order", "2", capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: BRACE_FORGE_THREADS must be a non-negative integer")
    assert pool_sizes == []


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["check", "ring", "x.json"])


def _child_env():
    # the child imports the same braceforge as this process
    src = str(Path(braceforge.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "braceforge.cli", "suite",
                           "--max-order", "2"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "suite: 4/4 pass (max order 2, field Q)" in proc.stdout


def test_pyproject_console_script_is_cli_main():
    # the README's `braceforge ...` sessions run this entry point once the
    # package is installed; read with a regex since tomllib needs 3.11
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n|\n)*)",
                        pyproject, re.M)
    assert scripts, "pyproject.toml has no [project.scripts] table"
    entry = re.search(r'^braceforge = "([\w.]+):(\w+)"$', scripts[1], re.M)
    assert entry, scripts[1]
    module, attr = entry.groups()
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [
    ("check", "group", "{tmp}/s3.json"),
    ("enumerate", "skew-braces", "--group", "builtin:D4", "-o", "{tmp}/d"),
])
def test_closed_stdout_exits_2_without_a_traceback(argv, unbuffered, files,
                                                   tmp_path):
    # stdout is a pipe whose read end closed before the child started, as
    # under `| head -1` once head has exited; a buffered stdout fails only
    # when it is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "braceforge.cli",
             *(a.format(tmp=tmp_path) for a in argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**_child_env(), "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: standard output is closed\n"


def _matches(expected: list[str], got: list[str]) -> bool:
    """got is expected, where an expected "..." line matches any run of lines."""
    if not expected:
        return not got
    if expected[0] == "...":
        return any(_matches(expected[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0] == expected[0] and _matches(expected[1:], got[1:])


def _readme_console_block(name: str) -> list[tuple[list[str], list[str]]]:
    """(arguments, printed lines) of each `$ braceforge` command in the
    README console block marked `<!-- console: name -->`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split(f"<!-- console: {name} -->\n", 1)[1].split("```console\n", 1)[1]
    commands = []
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("$ "):
            program, *argv = line[2:].split()
            assert program == "braceforge"
            commands.append((argv, []))
        else:
            commands[-1][1].append(line)
    return commands


@pytest.mark.parametrize("name", ["session", "suite"])
def test_readme_console_sessions_print_what_they_show(name, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_console_block(name)
    assert commands
    for argv, expected in commands:
        code, out, _ = run(*argv, capsys=capsys)
        assert code == 0, argv
        assert _matches(expected, out.splitlines()), (argv, out)
