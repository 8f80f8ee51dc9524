"""Command-line surface: verify identities, emit counts, reproduce tables.

Subcommands
    info GROUP              degrees, h, |W|, reflection count, Catalan and
                            LL numbers, discriminant/Jacobian degrees
    verify GROUP            run the full identity suite (see verify module)
    count GROUP KIND [ARG]  red | fact-k K | composition c1,c2,... | by-class
    table GROUP-OR-FAMILY   expected per-class row next to the enumerated one

Common flags: --format md|json|csv, --budget N, --cache PATH, --no-cache,
and --p-max for verify.  Exit codes: 0 all checks pass, 1 a check failed,
2 parse/usage error, 3 enumeration budget exceeded.

Output on stdout is byte-identical across runs for the same inputs and
version: report payloads carry numbers as decimal strings, key order is
sorted, and timing goes to stderr only.  The optional cache file stores
finished payloads keyed by (source digest, version, command, group,
parameters), where the source digest covers the package's code and data
files, so an entry written by other code is recomputed, never replayed; a
cache hit replays exactly the bytes a fresh run would print.  A run holds
an exclusive lock on the sidecar file PATH.lock while it reads, computes
and stores, so concurrent runs keep each other's entries, and a file that
does not parse as a cache is left as it is: the run recomputes and says so
on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional, Tuple

from . import __version__
from .closedform import (deg_discriminant, deg_jacobian, ll_number,
                         table_records)
from .errors import (BudgetExceeded, IndexOutOfRange, NonIntegerResult,
                     NoTableRow, NotInNC, NotLengthTwo, ParseError,
                     RankTooSmall, UnsupportedGroup)
from .facto import (count_fact_by_composition, count_fact_k, count_reduced,
                    submaximal_by_class)
from .families import GroupSpec, parse_group
from .groups import build_group
from .ncp import build_nc, fuss_catalan
from .verify import (Check, Report, make_meta, row_records, run_verify,
                     table_rows_check)

_USAGE_ERRORS = (ParseError, UnsupportedGroup, RankTooSmall, NotLengthTwo,
                 NotInNC, IndexOutOfRange)


def cmd_info(spec: GroupSpec) -> dict:
    facts = [
        ("family", spec.family),
        ("rank", spec.rank),
        ("degrees", ",".join(str(d) for d in spec.degrees)),
        ("coxeter-number", spec.h),
        ("order", spec.order),
        ("reflections", spec.num_reflections),
        ("catalan", fuss_catalan(spec, 1)),
        ("ll-number", ll_number(spec)),
        ("deg-discriminant", deg_discriminant(spec)),
        ("deg-jacobian", deg_jacobian(spec)),
        ("two-reflection", "yes" if spec.is_two_reflection else "no"),
    ]
    checks = [Check(name, str(v), str(v)) for name, v in facts]
    return Report(spec.name, checks, [], make_meta(None)).payload()


def _parse_composition(text: str) -> Tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad composition {text!r}: {exc}") from None
    return parts


def cmd_count(spec: GroupSpec, kind: str, arg: Optional[str],
              budget: Optional[int]) -> dict:
    g = build_group(spec, budget=budget)
    checks: List[Check] = []
    rows: List[dict] = []
    if kind == "red":
        nc = build_nc(g)
        checks.append(Check("red", str(ll_number(spec)),
                            str(count_reduced(nc))))
    elif kind == "fact-k":
        if arg is None:
            raise ParseError("count fact-k needs a block count argument")
        try:
            k = int(arg)
        except ValueError:
            raise ParseError(f"bad block count {arg!r}") from None
        if k < 1:
            raise ParseError(f"block count must be >= 1, got {k}")
        nc = build_nc(g)
        value = str(count_fact_k(nc, k))
        checks.append(Check(f"fact-k {k}", value, value))
    elif kind == "composition":
        if arg is None:
            raise ParseError("count composition needs a c1,c2,... argument")
        parts = _parse_composition(arg)
        nc = build_nc(g)
        try:
            value = str(count_fact_by_composition(nc, parts))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        checks.append(Check(f"composition {arg}", value, value))
    else:  # by-class
        nc = build_nc(g)
        rows = row_records(submaximal_by_class(nc))
    return Report(spec.name, checks, rows, make_meta(budget)).payload()


def cmd_verify(spec: GroupSpec, p_max: int, budget: Optional[int]) -> dict:
    return run_verify(spec, p_max=p_max, budget=budget).payload()


def _family_records(label: str) -> List[dict]:
    """Symbolic table rows matching a family label like B, GEEN, or G24."""
    key = label.strip().upper()
    matches = [rec for rec in table_records()
               if rec["row"].upper() == key
               or rec["row"].upper().startswith(key + "-")]
    return matches


def cmd_table(group_or_family: str, budget: Optional[int]) -> dict:
    try:
        spec = parse_group(group_or_family)
    except (ParseError, UnsupportedGroup):
        records = _family_records(group_or_family)
        if not records:
            raise ParseError(
                f"{group_or_family!r} is neither a group nor a table family")
        checks = []
        for rec in records:
            entries = " ".join(f"({r}:{u})" for r, u in rec["entries"])
            desc = (f"applies {rec['applies']}; prefactor {rec['prefactor']};"
                    f" entries {entries}")
            checks.append(Check(f"row-{rec['row']}", desc, desc))
        return Report(group_or_family.strip().upper(), checks, [],
                      make_meta(None)).payload()

    g = build_group(spec, budget=budget)
    checks, rows = [], []
    if g.rank >= 2:
        rows = submaximal_by_class(build_nc(g))
        checks = [table_rows_check(spec, rows)]
    return Report(spec.name, checks, row_records(rows),
                  make_meta(budget)).payload()


# ---------------------------------------------------------------- rendering

_ROW_COLS = ("class_id", "label", "d1p", "hp", "r", "u", "count")


def _md_checks(checks: List[dict]) -> List[str]:
    lines = ["| check | expected | actual | ok |",
             "|---|---|---|---|"]
    for c in checks:
        mark = "ok" if c["pass"] else "FAIL"
        lines.append(f"| {c['name']} | {c['expected']} | {c['actual']} "
                     f"| {mark} |")
    return lines


def _md_rows(rows: List[dict]) -> List[str]:
    lines = ["| class | label | d1' | h' | r | u | count |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r['class_id']} | {r['label']} | {r['d1p']} "
                     f"| {r['hp']} | {r['r']} | {r['u']} | {r['count']} |")
    return lines


def render_md(command: str, payload: dict) -> str:
    lines = [f"# ncfact {command} {payload['group']}", ""]
    if command == "info":
        lines += ["| field | value |", "|---|---|"]
        lines += [f"| {c['name']} | {c['actual']} |"
                  for c in payload["checks"]]
    elif command == "count":
        for c in payload["checks"]:
            lines.append(f"{c['name']}: {c['actual']}")
        for r in payload["rows"]:
            lines.append(f"{r['label']}: {r['count']}")
    else:  # verify, table
        if payload["checks"]:
            lines += _md_checks(payload["checks"])
        if payload["rows"]:
            if payload["checks"]:
                lines.append("")
            lines += _md_rows(payload["rows"])
        failed = sum(1 for c in payload["checks"] if not c["pass"])
        lines.append("")
        if failed:
            lines.append(f"FAIL ({failed} of {len(payload['checks'])} "
                         "checks failed)")
        else:
            lines.append(f"PASS ({len(payload['checks'])} checks)")
    return "\n".join(lines)


def render_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["checks"]:
        writer.writerow(["name", "expected", "actual", "pass"])
        for c in payload["checks"]:
            writer.writerow([c["name"], c["expected"], c["actual"],
                             "true" if c["pass"] else "false"])
    if payload["rows"]:
        if payload["checks"]:
            writer.writerow([])
        writer.writerow(list(_ROW_COLS))
        for r in payload["rows"]:
            writer.writerow([r[k] for k in _ROW_COLS])
    return buf.getvalue().rstrip("\n")


def render(command: str, payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        return render_csv(payload)
    return render_md(command, payload)


# ------------------------------------------------------------------- cache

def _cache_load(path: str) -> Optional[dict]:
    """The entries in the cache file: {} when there is no file yet, None
    when the file is not a readable cache."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return {}
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _cache_store(path: str, cache: dict) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".ncfact-cache-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's *.py and data/*.json files, sorted by path."""
    package = Path(__file__).resolve().parent
    files = sorted([*package.rglob("*.py"),
                    *(package / "data").glob("*.json")])
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(package).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest()


def _with_cache(key: str, path: Optional[str], compute) -> dict:
    if path is None:
        return compute()
    import fcntl  # POSIX only, and only --cache needs it
    key = f"{_source_digest()}|{key}"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # concurrent runs read, compute and store one at a time; closing the
    # sidecar file releases its lock
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = _cache_load(path)
        if cache is None:
            print(f"ncfact: note: {path} is not a readable cache; "
                  "recomputing and leaving it unchanged", file=sys.stderr)
            return compute()
        hit = cache.get(key)
        if hit is not None:
            return hit
        payload = compute()
        cache[key] = payload
        _cache_store(path, cache)
        return payload


# --------------------------------------------------------------- arg plumbing

def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncfact",
        description="Noncrossing-partition factorization counting and "
                    "verification for well-generated reflection groups.")
    parser.add_argument("--version", action="version",
                        version=f"ncfact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, cache: bool = True) -> None:
        p.add_argument("--format", choices=("md", "json", "csv"),
                       default="md", help="output format (default md)")
        p.add_argument("--budget", type=positive_int, default=None,
                       help="explicit enumeration budget (element count)")
        if cache:
            p.add_argument("--cache", metavar="PATH", default=None,
                           help="JSON cache file for finished reports")
            p.add_argument("--no-cache", action="store_true",
                           help="ignore --cache and recompute")

    p_info = sub.add_parser("info", help="closed-form facts about a group")
    p_info.add_argument("group")
    common(p_info, cache=False)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("group")
    p_verify.add_argument("--p-max", type=int, default=4,
                          help="largest Fuss parameter tested (default 4)")
    common(p_verify)

    p_count = sub.add_parser("count", help="count factorizations")
    p_count.add_argument("group")
    p_count.add_argument("kind",
                         choices=("red", "fact-k", "composition", "by-class"))
    p_count.add_argument("arg", nargs="?", default=None,
                         help="K for fact-k; c1,c2,... for composition")
    common(p_count)

    p_table = sub.add_parser("table",
                             help="expected vs. enumerated per-class row")
    p_table.add_argument("group", metavar="group-or-family")
    common(p_table)
    return parser


def _dispatch(args: argparse.Namespace) -> dict:
    budget = args.budget
    cache_path = None
    if getattr(args, "cache", None) and not getattr(args, "no_cache", False):
        cache_path = args.cache
    if args.command == "info":
        return cmd_info(parse_group(args.group))
    if args.command == "verify":
        if args.p_max < 1:
            raise ParseError(f"--p-max must be >= 1, got {args.p_max}")
        spec = parse_group(args.group)
        key = "|".join([__version__, "verify", spec.name,
                        f"pmax={args.p_max}", f"budget={budget}"])
        return _with_cache(key, cache_path,
                           lambda: cmd_verify(spec, args.p_max, budget))
    if args.command == "count":
        spec = parse_group(args.group)
        key = "|".join([__version__, "count", spec.name,
                        f"{args.kind}:{args.arg}", f"budget={budget}"])
        return _with_cache(
            key, cache_path,
            lambda: cmd_count(spec, args.kind, args.arg, budget))
    key = "|".join([__version__, "table", args.group.strip().upper(),
                    f"budget={budget}"])
    return _with_cache(key, cache_path,
                       lambda: cmd_table(args.group, budget))


def main(argv: Optional[List[str]] = None) -> int:
    # output is exact decimal, so lift the int-to-str digit limit
    # (Python >= 3.11) that |W| of e.g. A3000 would exceed
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    start = time.perf_counter()
    try:
        payload = _dispatch(args)
    except _USAGE_ERRORS as exc:
        print(f"ncfact: error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"ncfact: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except NonIntegerResult as exc:
        print(f"ncfact: non-integer result: {exc}", file=sys.stderr)
        return 1
    except NoTableRow as exc:
        print(f"ncfact: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    print(render(args.command, payload, args.format))
    print(f"[{args.command} {payload['group']}: {elapsed:.2f}s]",
          file=sys.stderr)
    return 0 if all(c["pass"] for c in payload["checks"]) else 1


if __name__ == "__main__":
    raise SystemExit(main())
