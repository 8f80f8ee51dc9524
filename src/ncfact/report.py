"""The report every command answers with: its keys, builders, cache-shape
test and renderings.

A report is the JSON-ready dict {"group", "checks", "rows", "meta"} that
run_verify and every CLI command build, the cache stores and `render`
prints.  A check (`check`) names one comparison, expected vs. actual, both
rendered as decimal strings so arbitrary precision survives serialization,
and passes iff the strings agree; a row is one per-class submaximal record
(`verify.row_records`), every value a string.  `CHECK_KEYS` and `ROW_COLS`
are their keys, in csv column order.  meta holds the version, the budget
and "seconds", which stays null: timing would break byte-identical reruns,
so wall time goes to stderr instead.  JSON output sorts its keys, so the
same report prints the same bytes on every run.
"""

from __future__ import annotations

import functools
import io
import json
from typing import List, Optional

from . import __version__

# the keys of a check and the columns of a row, in csv column order
CHECK_KEYS = ("name", "expected", "actual", "pass")
ROW_COLS = ("class_id", "label", "d1p", "hp", "r", "u", "count")


def check(name: str, expected: object, actual: object) -> dict:
    """One named comparison; passes iff the rendered values agree."""
    expected, actual = str(expected), str(actual)
    return dict(zip(CHECK_KEYS, (name, expected, actual, expected == actual)))


def report(group: str, checks: List[dict], rows: List[dict],
           budget: Optional[int]) -> dict:
    """The JSON-ready report of one command."""
    return {"group": group, "checks": checks, "rows": rows,
            "meta": {"version": __version__,
                     "budget": None if budget is None else str(budget),
                     "seconds": None}}


# the keys of each check and each row of a report
_ITEM_KEYS = {"checks": set(CHECK_KEYS), "rows": set(ROW_COLS)}


def is_report(entry: object) -> bool:
    """Whether a cached entry is shaped like a report, so it renders."""
    return (isinstance(entry, dict)
            and entry.keys() == {"group", "meta", *_ITEM_KEYS}
            and isinstance(entry["group"], str)
            and all(isinstance(entry[k], list)
                    and all(isinstance(x, dict) and x.keys() == keys
                            for x in entry[k])
                    for k, keys in _ITEM_KEYS.items()))


@functools.cache
def _sha256_type():
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    from hashlib import sha256
    return sha256


def sha256(data: bytes = b""):
    """A SHA-256 hash object, as hashlib.sha256(data) gives, from CPython's
    own module (_sha2 from 3.12, _sha256 before): hashlib would load
    OpenSSL, about 5 ms a process.  hashlib only when neither imports."""
    return _sha256_type()(data)


# ---------------------------------------------------------------- rendering

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
    lines += ["| " + " | ".join(r[k] for k in ROW_COLS) + " |" for r in rows]
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
    import csv  # only csv output needs it
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if payload["checks"]:
        writer.writerow(CHECK_KEYS)
        for c in payload["checks"]:
            writer.writerow([c[k] for k in CHECK_KEYS[:-1]]
                            + ["true" if c["pass"] else "false"])
    if payload["rows"]:
        if payload["checks"]:
            writer.writerow([])
        writer.writerow(ROW_COLS)
        for r in payload["rows"]:
            writer.writerow([r[k] for k in ROW_COLS])
    return buf.getvalue().rstrip("\n")


def render(command: str, payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "csv":
        return render_csv(payload)
    return render_md(command, payload)
