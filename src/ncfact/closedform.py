"""Closed-form counting identities and the per-class factorization table.

The table rows ship in data/ll_table.json (read by `families.data`),
stored symbolically in n and e with applicability predicates; entries are
[r_expr, u_expr] pairs, a zero u meaning the class is absent.  Each
expression is P or P / Q, P and Q integer expressions in n and e,
evaluated on ints to the exact pair (P, Q); counts are exact int division.
Rows for five rank >= 3 types that have no faithful carrier here (G24,
G27, G29, G33, G34) ship as reference records with their degrees: they
join the row-level identity checks and the machine-readable export, but no
group construction uses them.
"""

from __future__ import annotations

import _ast
import math
from functools import cache
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from ncfact.errors import NoTableRow, RankTooSmall, exact_quotient
from ncfact.families import EXCEPTIONAL, GroupSpec, data

if TYPE_CHECKING:  # the prefactor as a Fraction is built only on read
    from fractions import Fraction

__all__ = [
    "ExpectedRow", "ll_number", "submax_total", "deg_discriminant",
    "deg_jacobian", "sum_derived_degrees", "prefactor_of",
    "expected_ll_data", "table_records", "fuss_catalan",
]


@cache
def _ratio(expr: str) -> tuple:
    """The code of P and of Q (1 for a bare P) of a table expression P or
    P / Q; ValueError unless any `/` is the one top-level division."""
    cut = expr.find("/")
    if cut < 0:
        return compile(expr, expr, "eval"), compile("1", expr, "eval")
    top = compile(expr, expr, "eval", _ast.PyCF_ONLY_AST).body
    if (expr.count("/") > 1 or type(getattr(top, "op", None)) is not _ast.Div
            or expr.count("(", 0, cut) != expr.count(")", 0, cut)):
        raise ValueError(f"table expression {expr!r} is not P or P / Q "
                         "with one top-level /")
    return tuple(compile(part.strip(), expr, "eval")
                 for part in (expr[:cut], expr[cut + 1:]))


def _eval_ratio(expr: str, n: Optional[int] = None,
                e: Optional[int] = None) -> Tuple[int, int]:
    """(P, Q), the table expression P / Q evaluated on ints: exactly P/Q."""
    names = {k: v for k, v in (("n", n), ("e", e)) if v is not None}
    names["__builtins__"] = {}
    # eval of the fixed in-package expressions only
    num, den = (eval(code, names) for code in _ratio(expr))  # noqa: S307
    if type(num) is not int or type(den) is not int:
        raise ValueError(f"table expression {expr!r} is not an integer "
                         f"ratio at n={n}, e={e}")
    return num, den


def fuss_catalan(spec: GroupSpec, p: int) -> int:
    """prod_i (d_i + p*h) / d_i, exactly, for any integer p: a polynomial
    in p that takes integer values.  It counts multichains for p >= 1, is 0
    at p = -1 (the factor d_n = h) and is mu(1, c) at p = -2."""
    num = den = 1
    for d in spec.degrees:
        num *= d + p * spec.h
        den *= d
    return exact_quotient(num, den,
                          f"Fuss-Catalan value for {spec.name}, p={p}")


def ll_number(spec: GroupSpec) -> int:
    """n! h^n / |W|: the number of reduced reflection factorizations."""
    n = spec.rank
    return exact_quotient(math.factorial(n) * spec.h ** n, spec.order,
                          f"LL number of {spec.name}")


def submax_total(spec: GroupSpec) -> int:
    """(n-1)! h^(n-1) / |W| * (deg D - deg J), the per-class counts' sum:
    (n-1)(n-2)/2 * h + d_1 + ... + d_(n-1) is deg D - deg J."""
    n = spec.rank
    if n < 2:
        raise RankTooSmall("submaximal factorizations need rank >= 2")
    return exact_quotient(math.factorial(n - 1) * spec.h ** (n - 1)
                          * sum_derived_degrees(spec),
                          spec.order, f"submaximal total of {spec.name}")


def deg_discriminant(spec: GroupSpec) -> int:
    """Degree n(n-1)h of the discriminant of the length-n-1 fiber map."""
    n = spec.rank
    return n * (n - 1) * spec.h


def deg_jacobian(spec: GroupSpec) -> int:
    """h * (n(n+1)/2 - 1) - (d_1 + ... + d_(n-1)), with d_n = h."""
    n = spec.rank
    return spec.h * n * (n + 1) // 2 - sum(spec.degrees)


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


def table_records() -> List[dict]:
    """The bundled table as JSON-ready records, a fresh copy on each call."""
    import copy  # only the family table and the export need a copy
    return copy.deepcopy(data("ll_table"))


class ExpectedRow(NamedTuple):
    """A table row instantiated at concrete parameters; zero-u entries
    dropped.  counts[i] = prefactor * (rank - 1) * entries[i].u."""

    label: str
    prefactor_ratio: Tuple[int, int]  # (p, q): the prefactor is p/q
    entries: Tuple[Tuple[int, int], ...]
    counts: Tuple[int, ...]

    @property
    def prefactor(self) -> Fraction:
        from fractions import Fraction  # only a reader of it needs one
        return Fraction(*self.prefactor_ratio)


def _row_by_name(name: str) -> dict:
    for row in data("ll_table"):
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
    if fam in EXCEPTIONAL:
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

    def value(kind: str, expr: str) -> int:
        return exact_quotient(*_eval_ratio(expr, n_sub, e_sub),
                              f"table {kind} entry {expr!r}")

    for r_expr, u_expr in row["entries"]:
        u = value("u", u_expr)
        if u:
            entries.append((value("r", r_expr), u))
    num, den = _eval_ratio(row["prefactor"], n=n_sub, e=e_sub)
    counts = tuple(
        exact_quotient(num * (spec.rank - 1) * u, den,
                       f"per-class count for {spec.name}")
        for _, u in entries)
    return ExpectedRow(label=row["row"], prefactor_ratio=(num, den),
                       entries=tuple(entries), counts=counts)
