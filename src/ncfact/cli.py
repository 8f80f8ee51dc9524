"""Command-line surface: verify identities, emit counts, reproduce tables.

The subcommands are info, verify, count and table; `HELP` below is the one
help text of the CLI: `-h` prints it, a usage error prints its usage line
for the command, and README's "Command line" section describes the same
grammar and the exit codes.  A run that raises an `NcfactError` prints
that class's label and the message on stderr and exits with the class's
code (see `errors`).

The argv parser is table-driven (`_OPTIONS`, `_COMMANDS`, `_CHOICES`) and
reads a command line as argparse did; tests/oracle.py keeps the argparse
parser, and a property test checks that the two agree.  argparse itself
cost every run about 7 ms to import (with gettext and locale) and to build.
The parser checks option values, and `_dispatch` the group, the closed
forms' budget charge and `count`'s ARG, once and before the cache or any
group; the commands take what it resolved.  A `table` name that is no
group goes straight to `cmd_table`, which looks it up as a family:
closed-form answers (`info`, `table FAMILY`) never touch the cache.

Every command returns one report (see `report`, which also renders it):
the cache stores it, and the exit code folds the `pass` of its checks.
Timing goes to stderr only, so stdout is byte-identical across runs for
the same inputs and version.  The optional cache file stores finished
reports under one key, built in `_dispatch`: the source digest, the
command, the canonical group name and every parameter.  The source digest
covers the package's code and data files (the version with them), so an
entry written by other code is recomputed, never replayed; a cache hit
replays exactly the bytes a fresh run would print.  A run holds an
exclusive lock on the sidecar file PATH.lock while it reads, computes and
stores, so concurrent runs keep each other's entries.  A file that is not
a readable cache, or has a malformed entry for the run, is left as it is,
and a PATH that is empty, a directory or ends in a separator, or cannot
be made, locked or stored to, goes unused: the run computes and says so
on stderr.

Run as a script (`python3 -m ncfact.cli`), the process ends with
os._exit(code) once main() has returned and stdout and stderr are flushed.
That skips the interpreter's teardown of modules and objects, 10-20 ms a
run, which nothing needs: the cache file and its lock are closed by then.
If a flush fails, e.g. on a closed pipe, the run leaves through SystemExit
instead, and the interpreter reports the failure as it always did.  main()
itself just returns, so callers in the same process see no difference.
Modules that only some runs need load where they are used: README's "What
one run costs" lists which lattice modules each command executes and which
standard modules load only where used.  verify and the lattice modules
are lazy (see the package docstring), so cli binds them as modules and
calls `groups.build_group(...)`; a test spy patches the defining module,
e.g. `ncfact.facto.count_reduced`: cli binds no such name.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import re
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Tuple, Union

from . import __version__, closedform, facto, groups, ncp, verify
from .errors import NcfactError, ParseError, UnsupportedGroup, check_budget
from .families import GroupSpec, parse_group, validate_composition
from .report import check, is_report, render, report, sha256


def cmd_info(spec: GroupSpec) -> dict:
    facts = [
        ("family", spec.family),
        ("rank", spec.rank),
        ("degrees", ",".join(str(d) for d in spec.degrees)),
        ("coxeter-number", spec.h),
        ("order", spec.order),
        ("reflections", spec.num_reflections),
        ("catalan", closedform.fuss_catalan(spec, 1)),
        ("ll-number", closedform.ll_number(spec)),
        ("deg-discriminant", closedform.deg_discriminant(spec)),
        ("deg-jacobian", closedform.deg_jacobian(spec)),
        ("two-reflection", "yes" if spec.is_two_reflection else "no"),
    ]
    return report(spec.name, [check(name, v, v) for name, v in facts], [],
                  None)


def cmd_count(spec: GroupSpec, kind: str, arg: Optional[str], value,
              budget: Optional[int]) -> dict:
    """`count`: arg is the ARG text, value what `_count_arg` resolved."""
    nc = ncp.build_nc(groups.build_group(spec, budget=budget))
    if kind == "by-class":
        rows = verify.row_records(facto.submaximal_by_class(nc))
        return report(spec.name, [], rows, budget)
    if kind == "red":
        counted = check("red", closedform.ll_number(spec),
                        facto.count_reduced(nc))
    elif kind == "fact-k":
        count = facto.count_fact_k(nc, value)
        counted = check(f"fact-k {value}", count, count)
    else:
        count = facto.count_fact_by_composition(nc, value)
        counted = check(f"composition {arg}", count, count)
    return report(spec.name, [counted], [], budget)


def cmd_verify(spec: GroupSpec, p_max: int, budget: Optional[int]) -> dict:
    return verify.run_verify(spec, p_max=p_max, budget=budget)


def cmd_table(target: Union[GroupSpec, str], budget: Optional[int]) -> dict:
    """A group's per-class table, or the rows of a table family key."""
    if isinstance(target, str):
        checks = []
        for rec in closedform.table_records():
            row = rec["row"].upper()
            if row == target or row.startswith(target + "-"):
                entries = " ".join(f"({r}:{u})" for r, u in rec["entries"])
                desc = (f"applies {rec['applies']}; prefactor "
                        f"{rec['prefactor']}; entries {entries}")
                checks.append(check(f"row-{rec['row']}", desc, desc))
        if not checks:
            raise ParseError(
                f"{target!r} is neither a group nor a table family")
        return report(target, checks, [], None)

    g = groups.build_group(target, budget=budget)
    checks, rows = [], []
    if g.rank >= 2:
        rows = facto.submaximal_by_class(ncp.build_nc(g))
        checks = [verify.table_rows_check(target, rows)]
    return report(target.name, checks, verify.row_records(rows), budget)


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
    import tempfile  # only a cache miss stores
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".ncfact-cache-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # compact, so json's C encoder writes it; the reports replay
            # the same either way
            fh.write(json.dumps(cache, sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the store failed
            os.unlink(tmp)


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's *.py and data/*.json files, sorted by path."""
    package = Path(__file__).resolve().parent
    files = sorted([*package.rglob("*.py"),
                    *(package / "data").glob("*.json")])
    digest = sha256()
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
    payload = None
    try:
        # refused before its directory is made or its lock beside or in it:
        # an empty PATH names no file, and one that ends in a separator a
        # directory, as an existing directory is
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT),
                                    path)
        if os.path.isdir(path) or path.endswith(os.sep):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        # concurrent runs read, compute and store one at a time; closing
        # the sidecar file releases its lock
        with open(path + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            cache = _cache_load(path)
            if cache is not None and is_report(cache.get(key)):
                return cache[key]
            if cache is None or key in cache:
                print(f"ncfact: note: {path} is not a readable cache; "
                      "recomputing and leaving it unchanged", file=sys.stderr)
                return compute()
            payload = compute()
            cache[key] = payload
            _cache_store(path, cache)
    except OSError as exc:
        print(f"ncfact: note: cannot use {path} as a cache ({exc})",
              file=sys.stderr)
    return compute() if payload is None else payload


# ------------------------------------------------------------- argv grammar

HELP = """\
usage: ncfact info GROUP [OPTIONS]
       ncfact verify GROUP [OPTIONS]
       ncfact count GROUP KIND [ARG] [OPTIONS]
       ncfact table GROUP-OR-FAMILY [OPTIONS]
       ncfact -h | --help | --version

Noncrossing-partition factorization counting and verification for
well-generated reflection groups.

  info      closed-form facts about a group
  verify    run the identity suite
  count     count factorizations; KIND is red, fact-k (ARG: the number K
            of blocks), composition (ARG: c1,c2,..., positive parts that
            sum to the rank) or by-class; red and by-class take no ARG
  table     expected vs. enumerated per-class row, for a group or a table
            family such as B, GEEN or G24

OPTIONS go anywhere after the command, as --opt VALUE or --opt=VALUE, under
any unique prefix; the last repeat wins, and tokens after -- are positional:
  --format F      md, json or csv (default md)
  --budget N      work budget, e.g. |NC|*|T|, N >= 1 (default 10^7)
  --cache PATH    JSON cache file for finished reports (not on info; a
                  table family is never cached)
  --no-cache      ignore --cache and recompute (not on info)
  --p-max P       largest Fuss parameter, P >= 1 (verify only; default 4)
  -h, --help      print this help and exit
  --version       print the version and exit

Exit codes: 0 all checks pass, 1 a check failed or a closed form is not an
integer, 2 usage error, 3 work budget exceeded (checked before the phase
starts)."""

# option -> (attribute, default); a default of False marks a flag
_OPTIONS = {"--format": ("format", "md"), "--budget": ("budget", None),
            "--cache": ("cache", None), "--no-cache": ("no_cache", False),
            "--p-max": ("p_max", 4)}
_CACHE = ("--format", "--budget", "--cache", "--no-cache")
# command -> (positionals, options); a positional in brackets may be left out
_COMMANDS = {"info": (("group",), ("--format", "--budget")),
             "verify": (("group",), ("--p-max",) + _CACHE),
             "count": (("group", "kind", "[arg]"), _CACHE),
             "table": (("group",), _CACHE)}
_CHOICES = {"--format": ("md", "json", "csv"),
            "kind": ("red", "fact-k", "composition", "by-class")}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _ArgvError(Exception):
    """A command line outside the grammar: (message, command or None)."""


def _classify(token: str, options: Tuple[str, ...]):
    """How argparse reads a token before the first `--`: None for a
    positional, else (option, attached value or None), where option is
    None for an option-like token that names no option."""
    if not token.startswith("-"):
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    head, eq, tail = token.partition("=")
    if eq and head in options:
        return head, tail
    if token[1] == "-":
        found = [(o, tail if eq else None) for o in options
                 if o.startswith(head)]
    else:
        found = [(o, token[2:]) for o in options if o == token[:2]]
    if len(found) > 1:
        raise _ArgvError(f"ambiguous option: {token}", None)
    if found:
        return found[0]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return None, token


def _read(name: str, text: str, command: str):
    """The value of option or positional name, from its token."""
    if name in _CHOICES:
        if text in _CHOICES[name]:
            return text
        problem = f"invalid choice: {text!r}"
    elif name not in ("--budget", "--p-max"):
        return text
    else:
        try:
            value = int(text)
        except ValueError:
            problem = f"invalid int value: {text!r}"
        else:
            if value >= 1:
                return value
            problem = f"must be >= 1, got {value}"
    raise _ArgvError(f"argument {name}: {problem}", command)


def _flag(option: str, value: Optional[str], command: Optional[str]) -> str:
    """What -h, --help or --version print; with a value attached they are
    an error, but `-hh...` is -h repeated."""
    if value is not None and not (option == "-h" and value
                                  and not value.strip("h")):
        raise _ArgvError(f"argument {option}: ignored explicit argument "
                         f"{value!r}", command)
    return f"ncfact {__version__}" if option == "--version" else HELP


def _marks(argv: List[str], options: Tuple[str, ...]):
    """Each token classified up to the first `--`, and its index."""
    cut = argv.index("--") if "--" in argv else len(argv)
    return [_classify(t, options) for t in argv[:cut]], cut


def _parse(argv: List[str]):
    """The parsed namespace, or the text that -h or --version prints."""
    marks, cut = _marks(argv, ("-h", "--help", "--version"))
    stray = []
    i = 0
    while i < cut and marks[i] is not None:
        option, value = marks[i]
        if option is not None:
            return _flag(option, value, None)
        stray.append(argv[i])
        i += 1
    if i == len(argv):
        raise _ArgvError("the following arguments are required: command",
                         None)
    command = argv[i]
    if i == cut or command not in _COMMANDS:
        raise _ArgvError(f"invalid command: {command!r}", None)
    todo, names = _COMMANDS[command]
    args = {"command": command}
    args.update((name.strip("[]"), None) for name in todo)
    args.update(_OPTIONS[option] for option in names)
    rest = argv[i + 1:]
    marks, cut = _marks(rest, ("-h", "--help") + names)
    k = 0
    while k < len(rest):
        if k < cut and marks[k] is not None:
            option, value = marks[k]
            k += 1
            if option is None:
                stray.append(rest[k - 1])
            elif option in ("-h", "--help"):
                return _flag(option, value, command)
            elif _OPTIONS[option][1] is False:
                if value is not None:
                    raise _ArgvError(f"argument {option}: ignored explicit "
                                     f"argument {value!r}", command)
                args[_OPTIONS[option][0]] = True
            else:
                if value is None:
                    if k >= cut or marks[k] is not None:
                        raise _ArgvError(f"argument {option}: expected one "
                                         "argument", command)
                    value = rest[k]
                    k += 1
                args[_OPTIONS[option][0]] = _read(option, value, command)
            continue
        # a run of positional tokens gives the positionals left one token
        # each, in order, as far as it goes; the bracketed last one may get
        # none.  The first `--` goes with them, unless none was filled.
        end = k
        while end < len(rest) and (end >= cut or marks[end] is None):
            end += 1
        values = [t for j, t in enumerate(rest[k:end], k) if j != cut]
        n = 0
        while n < len(todo) and (n < len(values) or todo[n][0] == "["):
            name = todo[n].strip("[]")
            if n < len(values):
                args[name] = _read(name, values[n], command)
            n += 1
        todo = todo[n:]
        stray += values[n:] if n else rest[k:end]
        k = end
    missing = [name for name in todo if name[0] != "["]
    if missing:
        raise _ArgvError("the following arguments are required: "
                         f"{', '.join(missing)}", command)
    if stray:
        raise _ArgvError(f"unrecognized arguments: {' '.join(stray)}",
                         command)
    return SimpleNamespace(**args)


def parse_args(argv: List[str]):
    """The command line as a namespace with one attribute per option and
    positional, or the exit status once the help, the version or a usage
    error has been printed."""
    try:
        args = _parse(argv)
    except _ArgvError as exc:
        message, command = exc.args
        usage = HELP.split("\n\n", 1)[0]
        for line in usage.splitlines():
            if command is not None and f"ncfact {command} " in line:
                usage = "usage: ncfact " + line.split("ncfact ", 1)[1]
        print(usage, f"ncfact: error: {message}", sep="\n", file=sys.stderr)
        return 2
    if isinstance(args, str):
        print(args)
        return 0
    return args


# the options that shape how a report is printed or cached, not the report
_UNKEYED = ("command", "group", "format", "cache", "no_cache")


def _count_arg(rank: int, kind: str, arg: Optional[str]):
    """`count`'s ARG as the command takes it: None for red and by-class,
    the block count K for fact-k, the parts of a composition of the rank."""
    if kind in ("red", "by-class"):
        if arg is not None:
            raise ParseError(f"count {kind} takes no argument, got {arg!r}")
        return None
    if arg is None:
        what = "a block count" if kind == "fact-k" else "a c1,c2,..."
        raise ParseError(f"count {kind} needs {what} argument")
    if kind == "fact-k":
        try:
            k = int(arg)
        except ValueError:
            raise ParseError(f"bad block count {arg!r}") from None
        if k < 1:
            raise ParseError(f"block count must be >= 1, got {k}")
        return k
    try:
        parts = [int(x) for x in arg.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad composition {arg!r}: {exc}") from None
    try:
        return validate_composition(rank, parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _dispatch(args: SimpleNamespace) -> dict:
    command, budget = args.command, args.budget
    try:
        spec = parse_group(args.group)
    except (ParseError, UnsupportedGroup):
        if command != "table":
            raise
        # a table family key: closed form, never cached
        return cmd_table(args.group.strip().upper(), None)
    check_budget(spec.name, "closed forms", spec.closed_form_size, budget)
    if command == "info":
        return cmd_info(spec)
    if command == "count":
        value = _count_arg(spec.rank, args.kind, args.arg)
    key = "|".join([command, spec.name] + [
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in _UNKEYED])
    compute = {"verify": lambda: cmd_verify(spec, args.p_max, budget),
               "count": lambda: cmd_count(spec, args.kind, args.arg, value,
                                          budget),
               "table": lambda: cmd_table(spec, budget)}[command]
    return _with_cache(key, None if args.no_cache else args.cache, compute)


def main(argv: Optional[List[str]] = None) -> int:
    # output is exact decimal, so lift the int-to-str digit limit
    # (Python >= 3.11) that |W| of e.g. A3000 would exceed
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    if isinstance(args, int):
        return args

    start = time.perf_counter()
    try:
        payload = _dispatch(args)
    except NcfactError as exc:
        print(f"ncfact: {exc.label}{exc}", file=sys.stderr)
        return exc.exit_code
    elapsed = time.perf_counter() - start

    print(render(args.command, payload, args.format))
    print(f"[{args.command} {payload['group']}: {elapsed:.2f}s]",
          file=sys.stderr)
    return 0 if all(c["pass"] for c in payload["checks"]) else 1


if __name__ == "__main__":
    code = main()
    # fast exit: once both streams are flushed nothing is left to release
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BaseException:
        raise SystemExit(code)
    os._exit(code)
