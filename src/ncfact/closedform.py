"""Closed-form counting identities and the per-class factorization table.

The table rows ship in data/ll_table.json, stored symbolically in the
parameters n and e with applicability predicates, and are evaluated exactly
(integer literals become Fractions before eval).  Rows for five rank >= 3
types that have no faithful carrier here (G24, G27, G29, G33, G34) ship as
reference records: they join the row-level identity checks and the
machine-readable export, but no group construction uses them.
"""

from __future__ import annotations

import json
import math
import re
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from ncfact.errors import (NonIntegerResult, NoTableRow, RankTooSmall,
                           exact_quotient)
from ncfact.families import GroupSpec
from ncfact.ncp import fuss_catalan

if TYPE_CHECKING:  # only the table and the prefactor need a rational
    from fractions import Fraction

__all__ = [
    "ExpectedRow", "ll_number", "submax_total", "deg_discriminant",
    "deg_jacobian", "sum_derived_degrees", "prefactor_of",
    "expected_ll_data", "table_records", "fuss_catalan",
]

_INT_RE = re.compile(r"(?<![\w.])(\d+)")


def _eval_expr(expr: str, n: Optional[int] = None,
               e: Optional[int] = None) -> Fraction:
    """Evaluate a table expression exactly (ints promoted to Fractions)."""
    from fractions import Fraction
    wrapped = _INT_RE.sub(r"F(\1)", expr)
    names: Dict[str, object] = {"F": Fraction, "__builtins__": {}}
    if n is not None:
        names["n"] = Fraction(n)
    if e is not None:
        names["e"] = Fraction(e)
    value = eval(wrapped, names)  # noqa: S307 - fixed in-package expressions
    return Fraction(value)


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegerResult(f"{what} = {value} is not an integer")
    return value.numerator


def ll_number(spec: GroupSpec) -> int:
    """n! h^n / |W|: the number of reduced reflection factorizations."""
    n = spec.rank
    return exact_quotient(math.factorial(n) * spec.h ** n, spec.order,
                          f"LL number of {spec.name}")


def submax_total(spec: GroupSpec) -> int:
    """(n-1)! h^(n-1) / |W| * ((n-1)(n-2)/2 * h + d_1 + ... + d_(n-1))."""
    n = spec.rank
    if n < 2:
        raise RankTooSmall("submaximal factorizations need rank >= 2")
    small_degrees = sum(spec.degrees) - spec.h
    # (n-1)(n-2) is even
    inner = (n - 1) * (n - 2) // 2 * spec.h + small_degrees
    return exact_quotient(math.factorial(n - 1) * spec.h ** (n - 1) * inner,
                          spec.order, f"submaximal total of {spec.name}")


def deg_discriminant(spec: GroupSpec) -> int:
    """Degree n(n-1)h of the discriminant of the length-n-1 fiber map."""
    n = spec.rank
    return n * (n - 1) * spec.h


def deg_jacobian(spec: GroupSpec) -> int:
    """h * (n(n+1)/2 - 1) - (d_1 + ... + d_(n-1))."""
    n = spec.rank
    small_degrees = sum(spec.degrees) - spec.h
    return spec.h * (n * (n + 1) // 2 - 1) - small_degrees


def sum_derived_degrees(spec: GroupSpec) -> int:
    """Sum of the u entries over all rank-2 classes: deg D - deg J."""
    return deg_discriminant(spec) - deg_jacobian(spec)


def prefactor_of(spec: GroupSpec) -> Fraction:
    """(n-2)! h^(n-1) / |W|, the per-class count divided by (n-1) u."""
    n = spec.rank
    if n < 2:
        raise RankTooSmall("per-class prefactor needs rank >= 2")
    from fractions import Fraction  # (n-2)! h^(n-1) / |W| may be rational
    return Fraction(math.factorial(n - 2) * spec.h ** (n - 1), spec.order)


@cache
def _table() -> List[dict]:
    """The symbolic rows of data/ll_table.json.  entries are [r_expr, u_expr]
    pairs; u evaluating to zero means the class is absent at that parameter.
    Reference rows carry their degrees so row-level identities remain
    checkable."""
    path = Path(__file__).resolve().parent / "data" / "ll_table.json"
    return json.loads(path.read_text(encoding="utf-8"))


def table_records() -> List[dict]:
    """The bundled table as JSON-ready records, a fresh copy on each call."""
    import copy  # only the family table and the export need a copy
    return copy.deepcopy(_table())


class ExpectedRow(NamedTuple):
    """A table row instantiated at concrete parameters; zero-u entries
    dropped.  counts[i] = prefactor * (rank - 1) * entries[i].u."""

    label: str
    prefactor: Fraction
    entries: Tuple[Tuple[int, int], ...]
    counts: Tuple[int, ...]


def _row_by_name(name: str) -> dict:
    for row in _table():
        if row["row"] == name:
            return row
    raise KeyError(name)


def _route(spec: GroupSpec) -> Tuple[str, Optional[int], Optional[int]]:
    """Pick (row name, n substitution, e substitution) for a spec."""
    fam = spec.family
    if fam == "A":
        return "A", spec.n, None
    if fam == "B":
        return "B", spec.n, None
    if fam == "I2":
        return "I2", None, spec.d
    if fam in ("D", "GEEN"):
        e = spec.d
        n = spec.n
        if n == 2:
            return "I2", None, e
        if n == 3:
            if e == 2:
                return "A", 3, None
            return ("GEEN-3-divisible" if e % 3 == 0
                    else "GEEN-3-coprime"), None, e
        if n == 4:
            return ("GEEN-4-even" if e % 2 == 0
                    else "GEEN-4-odd"), None, e
        return "GEEN-large", n, e
    if fam in ("H3", "H4", "F4", "E6", "E7", "E8"):
        return fam, None, None
    raise NoTableRow(
        f"no per-class table row covers {spec.name}; rows exist for "
        "A, B = G(2,1,n), D, I2, G(e,e,n), and the exceptional types")


def expected_ll_data(spec: GroupSpec) -> ExpectedRow:
    """Closed-form per-class (r, u, count) data for the group."""
    if spec.rank < 2:
        raise RankTooSmall(f"{spec.name} has rank {spec.rank}; per-class "
                           "data needs rank >= 2")
    row_name, n_sub, e_sub = _route(spec)
    row = _row_by_name(row_name)
    entries: List[Tuple[int, int]] = []
    for r_expr, u_expr in row["entries"]:
        u = _as_int(_eval_expr(u_expr, n=n_sub, e=e_sub),
                    f"table u entry {u_expr!r}")
        if u == 0:
            continue
        r = _as_int(_eval_expr(r_expr, n=n_sub, e=e_sub),
                    f"table r entry {r_expr!r}")
        entries.append((r, u))
    prefactor = _eval_expr(row["prefactor"], n=n_sub, e=e_sub)
    counts = tuple(
        _as_int(prefactor * (spec.rank - 1) * u,
                f"per-class count for {spec.name}")
        for _, u in entries)
    return ExpectedRow(label=row["row"], prefactor=prefactor,
                       entries=tuple(entries), counts=counts)
