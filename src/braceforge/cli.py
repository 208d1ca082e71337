"""Command line interface.

Exit codes: 0 all checks pass, 1 axiom failure, 2 I/O or schema error,
3 unmet precondition (for example a non-cocommutative input to a gated
construction).  Set BRACE_FORGE_THREADS to run the suite sweep across
worker processes: unset, empty, 0 or 1 run serially, and any larger count
is capped at the number of CPUs and of skew brace rows.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import storage
from .brace import check_hopf_brace, trivial_brace
from .errors import (BraceForgeError, NotAGroup, NotCocommutative, NotDiagonal,
                     OrderTooLarge, PrereqFailed, StorageError, _AxiomsFailed)
from .hopf import check_hopf, group_algebra
from .linmap import parse_field
from .matched import (check_matched_pair, functor_F, functor_G,
                      obt_from_matched_pair, roundtrip_FG, roundtrip_GF)
from .obt import check_obt, functor_P, functor_Q, roundtrip_PQ, roundtrip_QP
from .report import AxiomReport
from .skewbraces import (ENUMERATION_ORDER_BOUND, SkewBraceData,
                         _require_enumerable, builtin_group, builtin_order,
                         check_group, check_skew_brace, enumerate_skew_braces,
                         groups_of_order, linearize)
from .suite import row_verdicts

_CHECKERS = {
    "hopf": check_hopf,
    "brace": check_hopf_brace,
    "obt": check_obt,
    "matched_pair": check_matched_pair,
    "group": check_group,
    "skew_brace": check_skew_brace,
}


def _load_as(path: str, kind: str):
    obj = storage.load(path)
    found = storage.kind_of(obj)
    if found != kind:
        raise StorageError(f"{path} holds a {found} file, expected {kind}")
    return obj


def _emit_report(rep: AxiomReport, as_json: bool, label: str) -> int:
    if as_json:
        doc = {"label": label, **rep.to_dict()}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(rep)
        print(f"{'OK' if rep.ok else 'FAIL'}  {label}")
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args) -> int:
    obj = _load_as(args.file, args.kind)
    rep = _CHECKERS[args.kind](obj)
    return _emit_report(rep, args.json, f"{args.kind} {args.file}")


_CONSTRUCTIONS = {
    "P": ("obt", functor_P),
    "Q": ("brace", functor_Q),
    "F": ("brace", functor_F),
    "G": ("matched_pair", functor_G),
    "obt-from-mp": ("matched_pair", obt_from_matched_pair),
    "group-algebra": ("group", group_algebra),
    "trivial-brace": ("hopf", trivial_brace),
}


def _cmd_construct(args) -> int:
    kind, func = _CONSTRUCTIONS[args.op]
    if args.op == "group-algebra":  # the one construction that takes a field
        if args.field is None:
            raise StorageError("construct group-algebra requires --field")
        out = func(_load_as(args.file, kind), parse_field(args.field))
    elif args.field is not None:
        raise StorageError("--field applies only to construct group-algebra")
    else:
        out = func(_load_as(args.file, kind))
    storage.save(out, args.output)
    print(f"wrote {storage.kind_of(out)} {args.output}")
    return 0


_ROUNDTRIPS = {
    "PQ": ("brace", roundtrip_PQ),
    "QP": ("obt", roundtrip_QP),
    "FG": ("matched_pair", roundtrip_FG),
    "GF": ("brace", roundtrip_GF),
}


def _cmd_roundtrip(args) -> int:
    kind, func = _ROUNDTRIPS[args.which]
    obj = _load_as(args.file, kind)
    rep = func(obj)
    return _emit_report(rep, args.json, f"roundtrip {args.which} {args.file}")


def _require_max_order(max_order: int) -> None:
    if max_order < 1:
        raise ValueError(f"--max-order must be at least 1, got {max_order}")


def _require_order(order: int, max_order: int) -> None:
    if order > max_order:
        raise OrderTooLarge(f"group order {order} exceeds --max-order {max_order}")
    _require_enumerable(order)


def _cmd_enumerate(args) -> int:
    _require_max_order(args.max_order)
    spec = args.group
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        # before builtin_group builds a Z<n> table of n*n entries
        _require_order(builtin_order(name), args.max_order)
        table = builtin_group(name)
    else:
        table = _load_as(spec, "group")
        _require_order(table.order, args.max_order)
    if args.output:  # before the enumeration, which a bad path would waste
        outdir = Path(args.output)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot write {outdir}: {exc}") from None
    braces = enumerate_skew_braces(table)
    label = table.label or "group"
    print(f"group={label} order={table.order} skew_braces={len(braces)}")
    if args.output:
        for i, s in enumerate(braces):
            tagged = SkewBraceData(s.dot, s.circ,
                                   {"label": f"{label}-brace-{i}"})
            path = outdir / f"skew_brace_{i:03d}.json"
            storage.save(tagged, path)
            print(f"wrote skew_brace {path}")
    return 0


def _cmd_linearize(args) -> int:
    s = _load_as(args.file, "skew_brace")
    b = linearize(s, parse_field(args.field))
    storage.save(b, args.output)
    print(f"wrote brace {args.output}")
    return 0


# ---------------------------------------------------------------------------
# suite

def _suite_job(job) -> tuple[str, list[tuple[str, bool]]]:
    label, brace, field_spec = job
    checks = list(row_verdicts(linearize(brace, parse_field(field_spec))))
    return (label, checks)


def _requested_workers() -> int:
    """BRACE_FORGE_THREADS as a worker count; 0 when unset or empty."""
    raw = os.environ.get("BRACE_FORGE_THREADS", "").strip()
    if not raw:
        return 0
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(
            f"BRACE_FORGE_THREADS must be a non-negative integer, got {raw!r}")
    return int(raw)


def _cmd_suite(args) -> int:
    _require_max_order(args.max_order)
    field = parse_field(args.field)  # validates the field string early
    requested = _requested_workers()
    groups_of_order(args.max_order)  # past the catalogue: fail before any work
    rows: list[tuple[str, list[tuple[str, bool]]]] = []
    jobs = []
    for order in range(1, args.max_order + 1):
        for g in groups_of_order(order):
            h = group_algebra(g, field)
            rows.append((f"{g.label} group-algebra", [("hopf", check_hopf(h).ok)]))
            for i, s in enumerate(enumerate_skew_braces(g)):
                jobs.append((f"{g.label}#{i} {field.name}", s, args.field))

    workers = min(requested, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows.extend(pool.map(_suite_job, jobs))
    else:
        rows.extend(_suite_job(j) for j in jobs)

    failed = 0
    for label, checks in rows:
        bad = [name for name, ok in checks if not ok]
        if bad:
            failed += 1
            print(f"FAIL  {label:<28} [{', '.join(bad)}]")
        else:
            print(f"PASS  {label:<28} ({len(checks)} checks)")
    total = len(rows)
    print(f"suite: {total - failed}/{total} pass "
          f"(max order {args.max_order}, field {field.name})")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braceforge",
        description="exact checkers and constructions for Hopf structure files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the axiom checker for a structure file")
    p.add_argument("kind", choices=sorted(_CHECKERS))
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="apply a construction and save the result")
    p.add_argument("op", choices=list(_CONSTRUCTIONS))
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--field", help="field spec for group-algebra (Q or Fp:<p>)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("roundtrip", help="verify a functor round trip exactly")
    p.add_argument("which", choices=list(_ROUNDTRIPS))
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("enumerate", help="enumerate skew braces over a group")
    p.add_argument("what", choices=["skew-braces"])
    p.add_argument("--group", required=True,
                   help="structure file or builtin:<name> (e.g. builtin:Z4)")
    p.add_argument("--max-order", type=int, default=ENUMERATION_ORDER_BOUND)
    p.add_argument("-o", "--output", help="directory for one file per result")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("linearize", help="group-like linearization of a skew brace")
    p.add_argument("file")
    p.add_argument("--field", required=True, help="Q or Fp:<p>")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("suite", help="corpus acceptance sweep with a pass/fail table")
    p.add_argument("--max-order", type=int, default=6)
    p.add_argument("--field", default="Q")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the rest of the buffer goes to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code, prefix, error = 2, "error", "standard output is closed"
    except (_AxiomsFailed, NotAGroup) as exc:
        code, prefix, error = 1, "error", exc
    except (NotCocommutative, NotDiagonal, PrereqFailed, OrderTooLarge) as exc:
        code, prefix, error = 3, "precondition", exc
    except (BraceForgeError, ValueError) as exc:
        code, prefix, error = 2, "error", exc
    print(f"{prefix}: {error}", file=sys.stderr)
    if getattr(error, "report", None) is not None:  # the gate's witnesses
        print(error.report, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
