"""Identity suite: run every counting identity against its closed form.

run_verify builds one report (see `report`): a check per comparison and a
row per rank-2 class (`row_records`).  Everything here is deterministic:
check order is fixed, row order is the strata order (size in NC, then
class id), and no timing data enters the report.

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
pass every check that runs under the default budget, in 0.2 s and
1.35-1.5 s as fresh processes on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import functools
from math import comb, gcd
from typing import List, Optional, Sequence

from . import closedform, facto, groups, kernels, ncp
from .errors import NoTableRow
from .families import GroupSpec
from .report import ROW_COLS, check, report, sha256

# Exhaustive checks (explicit reduced tuples, fibers, Hurwitz orbits) are
# gated on |Red(c)|; above this they are skipped, the identities having
# already been exercised on every smaller group.
ORBIT_GATE = 2000


def class_label(row: facto.LLRow) -> str:
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


def row_records(rows: Sequence[facto.LLRow]) -> List[dict]:
    """JSON-ready row records; numbers as decimal strings."""
    records = []
    for row in rows:
        values = (sha256(row.class_id).hexdigest()[:16], class_label(row),
                  *row.parabolic, row.r, row.u, row.count)
        records.append(dict(zip(ROW_COLS, map(str, values))))
    return records


def expected_r(row: facto.LLRow) -> object:
    """LL number of the rank-2 parabolic: 2h'/d1' when irreducible, the int
    or else the reduced "p/q"; a product of two rank-1 groups has LL number
    2 (the two interleavings) whatever its degrees."""
    d1, hp = row.parabolic
    if row.reducible:
        return 2
    g = gcd(2 * hp, d1)
    return 2 * hp // g if g == d1 else f"{2 * hp // g}/{d1 // g}"


def table_rows_check(spec: GroupSpec, rows: Sequence[facto.LLRow]) -> dict:
    """Enumerated (r, u, count) triples vs. the expected table row."""
    try:
        exp = closedform.expected_ll_data(spec)
    except NoTableRow:
        note = "no table row for this family (internal identities only)"
        return check("table-rows", note, note)
    want = sorted((r, u, c) for (r, u), c in zip(exp.entries, exp.counts))
    got = sorted((row.r, row.u, row.count) for row in rows)
    return check("table-rows", want, got)


def run_verify(spec: GroupSpec, p_max: int = 4,
               budget: Optional[int] = None) -> dict:
    """Run the whole identity suite on one group: its report."""
    g = groups.build_group(spec, budget=budget)
    # each multichain step sums over the stored relation, Cat^(2)(W)
    # pairs; the charge leaves out the three steps of the default p_max 4,
    # so every run at the default is admitted as before
    g.check_budget("multichains",
                   (p_max - 4) * closedform.fuss_catalan(spec, 2))
    checks: List[dict] = []

    def add(name: str, expected: object, actual: object) -> None:
        checks.append(check(name, expected, actual))

    car = g.carrier
    add("group-order", spec.order, kernels.schreier_sims(car.gens)[0])
    add("reflection-count", spec.num_reflections,
        len({t for t in car.refl_perms if car.codim(t) == 1}))
    add("coxeter-order", spec.h, g.element_order(g.coxeter))

    nc = ncp.build_nc(g)
    n = g.rank
    add("nc-size-catalan", closedform.fuss_catalan(spec, 1), nc.size)
    # chains[j] counts the multichains of length p ending at j, so one
    # transfer step takes p - 1 to p
    chains = [1] * nc.size
    for p in range(2, p_max + 1):
        chains = ncp.transfer(nc, chains)
        add(f"multichains-p{p}", closedform.fuss_catalan(spec, p), sum(chains))

    fact_k = facto.fact_counts(nc)
    red = fact_k[n]
    add("reduced-count", closedform.ll_number(spec), red)
    for p in range(0, p_max + 1):
        lhs = sum(comb(p + 1, k) * fact_k[k] for k in range(1, n + 1))
        add(f"factorization-binomial-p{p}",
            closedform.fuss_catalan(spec, p), lhs)

    rows: List[facto.LLRow] = []
    if n >= 2:
        rows = facto.submaximal_by_class(nc)
        total = sum(row.count for row in rows)
        add("submax-total", closedform.submax_total(spec), total)
        add("submax-dp-agrees", fact_k[n - 1], total)
        add("degree-sum-r-u", closedform.deg_discriminant(spec),
            sum(row.r * row.u for row in rows))
        add("degree-sum-u", closedform.sum_derived_degrees(spec),
            sum(row.u for row in rows))
        for i, row in enumerate(rows):
            add(f"r-ll-class{i}", expected_r(row), row.r)
            if spec.is_two_reflection:
                add(f"r-order-class{i}",
                    g.element_order(row.representative), row.r)
        checks.append(table_rows_check(spec, rows))

    if red <= ORBIT_GATE:
        reduced = facto.enumerate_reduced(nc)
        add("hurwitz-transitive", red,
            len(facto.hurwitz_orbit(g, reduced[0], cap=ORBIT_GATE)))
        if n >= 2:
            fibers = facto.concatenation_fibers(g, reduced)
            add("fiber-sum-reduced", red, sum(fibers.values()))
            # fibers share first factors (H4: 465 fibers over 158), so T
            # is scanned for the atoms once per distinct first factor
            atom_count = functools.cache(
                lambda w: len(g.reflections_below(w)))
            mismatches = sum(1 for fact, size in fibers.items()
                             if size != atom_count(fact[0]))
            add("fiber-mismatches", 0, mismatches)

    return report(spec.name, checks, row_records(rows), budget)
