"""Identity suite: run every counting identity against its closed form.

A Report bundles the outcome of one group's verification: a list of named
checks (expected vs. actual, both rendered as decimal strings so arbitrary
precision survives serialization), the per-class submaximal rows, and a meta
block.  Everything here is deterministic: check order is fixed, row order is
the strata order (size in NC, then class id), and no timing data enters the
payload.

Check inventory, in order:

  group-order            Schreier-Sims order of the carrier's generators
                         vs. product of the degrees
  reflection-count       distinct carrier reflections with codim 1 vs.
                         sum of (d_i - 1)
  coxeter-order          order of c vs. the largest degree h
  nc-size-catalan        |NC| vs. prod (d_i + h)/d_i
  multichains-p*         chain DP vs. Fuss-Catalan prod (d_i + ph)/d_i
  reduced-count          cover DP (lane n of the lane pass, which asserts
                         the two agree) vs. n! h^n / |W|
  factorization-binomial-p*   sum_k C(p+1,k)|fact_k| (one lane pass over the
                         strict relation) vs. Fuss-Catalan
  submax-total           per-class sum ((n-1) sum |Red(q^-1 c)|, by the
                         Hurwitz shift) vs. the closed submaximal total
  submax-dp-agrees       per-class sum vs. fact_{n-1} of the lane pass
  degree-sum-r-u         sum r*u vs. n(n-1)h
  degree-sum-u           sum u vs. n(n-1)h - deg J
  r-ll-class*            r vs. the rank-2 LL number of the parabolic
                         (2h'/d1' when irreducible, 2 when it splits)
  r-order-class*         r vs. element order (2-reflection groups only)
  table-rows             enumerated (r, u, count) triples vs. expected row
  fiber-sum-reduced      concatenation fiber sizes sum to |Red(c)|
  fiber-mismatches       fibers whose size differs from the atom count of
                         the merged factor
  hurwitz-transitive     orbit of one reduced decomposition is all of Red(c)

No check lists W or a subgroup: NC(W, c) comes from the carrier's cover
test (see ncp) and the parabolic degrees from a Schreier-Sims chain, so the
cost follows |NC|*|T|.  The exhaustive fiber and Hurwitz checks only run
when |Red(c)| <= ORBIT_GATE; everything else is DP-based, and E7 and E8
pass every check that runs under the default budget, in 0.3-0.5 s and
2.3-2.7 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import functools
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence

from . import __version__, kernels
from .closedform import (deg_discriminant, deg_jacobian, expected_ll_data,
                         ll_number, submax_total)
from .errors import NoTableRow
from .facto import (LLRow, concatenation_fibers, enumerate_reduced,
                    fact_counts, hurwitz_orbit, submaximal_by_class)
from .families import GroupSpec
from .groups import build_group
from .ncp import build_nc, fuss_catalan, transfer

# Exhaustive checks (explicit reduced tuples, fibers, Hurwitz orbits) are
# gated on |Red(c)|; above this they are skipped, the identities having
# already been exercised on every smaller group.
ORBIT_GATE = 2000


class Check(NamedTuple):
    """One named comparison; passes iff the rendered values agree."""

    name: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class Report(NamedTuple):
    """Verification outcome for one group; JSON-ready via payload()."""

    group: str
    checks: List[Check]
    rows: List[dict]
    meta: Dict[str, Optional[str]]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        return {
            "group": self.group,
            "checks": [{"name": c.name, "expected": c.expected,
                        "actual": c.actual, "pass": c.passed}
                       for c in self.checks],
            "rows": self.rows,
            "meta": dict(self.meta),
        }


def make_meta(budget: Optional[int]) -> Dict[str, Optional[str]]:
    # seconds stays null by design: timing would break byte-identical
    # reruns, so wall time goes to stderr instead.
    return {"version": __version__,
            "budget": None if budget is None else str(budget),
            "seconds": None}


def class_label(row: LLRow) -> str:
    """Human name for a rank-2 parabolic class, e.g. A2 or Z3xA1."""
    d1, hp = row.parabolic
    if row.reducible:
        if (d1, hp) == (2, 2):
            return "A1xA1"
        if d1 == 2:
            return f"Z{hp}xA1"
        return f"Z{d1}xZ{hp}"
    if d1 == 2:
        named = {3: "A2", 4: "B2", 6: "G2"}
        return named.get(hp, f"I2({hp})")
    if hp == 2 * d1:
        return f"G({d1},1,2)"
    return f"rank2({d1},{hp})"


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


def row_records(rows: Sequence[LLRow]) -> List[dict]:
    """JSON-ready row records; numbers as decimal strings."""
    records = []
    for row in rows:
        digest = sha256(row.class_id).hexdigest()[:16]
        records.append({
            "class_id": digest,
            "label": class_label(row),
            "d1p": str(row.parabolic[0]),
            "hp": str(row.parabolic[1]),
            "r": str(row.r),
            "u": str(row.u),
            "count": str(row.count),
        })
    return records


def expected_r(row: LLRow) -> object:
    """LL number of the rank-2 parabolic: 2h'/d1' when irreducible; a
    product of two rank-1 groups has LL number 2 (the two interleavings)
    whatever its degrees."""
    d1, hp = row.parabolic
    if row.reducible:
        return 2
    from fractions import Fraction  # 2h'/d1' need not be an integer
    return Fraction(2 * hp, d1)


def table_rows_check(spec: GroupSpec, rows: Sequence[LLRow]) -> Check:
    """Enumerated (r, u, count) triples vs. the expected table row."""
    try:
        exp = expected_ll_data(spec)
    except NoTableRow:
        note = "no table row for this family (internal identities only)"
        return Check("table-rows", note, note)
    want = sorted((r, u, c) for (r, u), c in zip(exp.entries, exp.counts))
    got = sorted((row.r, row.u, row.count) for row in rows)
    return Check("table-rows", str(want), str(got))


def run_verify(spec: GroupSpec, p_max: int = 4,
               budget: Optional[int] = None) -> Report:
    """Run the whole identity suite on one group."""
    g = build_group(spec, budget=budget)
    checks: List[Check] = []

    def add(name: str, expected: object, actual: object) -> None:
        checks.append(Check(name, str(expected), str(actual)))

    car = g.carrier
    add("group-order", spec.order, kernels.schreier_sims(car.gens)[0])
    add("reflection-count", spec.num_reflections,
        len({t for t in car.refl_perms if car.codim(t) == 1}))
    add("coxeter-order", spec.h, g.element_order(g.coxeter))

    nc = build_nc(g)
    n = g.rank
    add("nc-size-catalan", fuss_catalan(spec, 1), nc.size)
    # chains[j] counts the multichains of length p ending at j, so one
    # transfer step takes p - 1 to p
    chains = [1] * nc.size
    for p in range(2, p_max + 1):
        chains = transfer(nc, chains, range(n + 1))
        add(f"multichains-p{p}", fuss_catalan(spec, p), sum(chains))

    fact_k = fact_counts(nc)
    red = fact_k[n]
    add("reduced-count", ll_number(spec), red)
    for p in range(0, p_max + 1):
        lhs = sum(comb(p + 1, k) * fact_k[k] for k in range(1, n + 1))
        add(f"factorization-binomial-p{p}", fuss_catalan(spec, p), lhs)

    rows: List[LLRow] = []
    if n >= 2:
        rows = submaximal_by_class(nc)
        total = sum(row.count for row in rows)
        add("submax-total", submax_total(spec), total)
        add("submax-dp-agrees", fact_k[n - 1], total)
        add("degree-sum-r-u", deg_discriminant(spec),
            sum(row.r * row.u for row in rows))
        add("degree-sum-u", deg_discriminant(spec) - deg_jacobian(spec),
            sum(row.u for row in rows))
        for i, row in enumerate(rows):
            add(f"r-ll-class{i}", expected_r(row), row.r)
            if spec.is_two_reflection:
                add(f"r-order-class{i}",
                    g.element_order(row.representative), row.r)
        checks.append(table_rows_check(spec, rows))

    if red <= ORBIT_GATE:
        reduced = enumerate_reduced(nc)
        add("hurwitz-transitive", red,
            len(hurwitz_orbit(g, reduced[0], cap=ORBIT_GATE)))
        if n >= 2:
            fibers = concatenation_fibers(g, reduced)
            add("fiber-sum-reduced", red, sum(fibers.values()))
            mismatches = sum(
                1 for fact, size in fibers.items()
                if size != len(g.reflections_below(fact.factors[0])))
            add("fiber-mismatches", 0, mismatches)

    return Report(group=spec.name, checks=checks,
                  rows=row_records(rows), meta=make_meta(budget))
