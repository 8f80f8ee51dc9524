"""The benchmark's workloads: which CLI runs make up one pass of each.

Every workload is a closed loop with one client: it issues one CLI run at a
time and waits for it to finish.  A pass is a list of rounds; the seed
shuffles the order of runs inside each round, and rounds run in order, so
the second `cli` round finds every cacheable result stored by the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

FORMATS = ("md", "json", "csv")


@dataclass(frozen=True)
class Invocation:
    """One CLI run.  `cached` runs get `--cache <pass cache file>` appended."""

    args: Tuple[str, ...]
    group: Optional[str]  # concrete group whose counts the trace is checked on
    cached: bool = False

    @property
    def key(self) -> str:
        """Digest key: the argv without the per-pass cache path."""
        return " ".join(self.args)

    @property
    def fmt(self) -> str:
        return self.args[self.args.index("--format") + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rounds: Tuple[Tuple[Invocation, ...], ...]


# |W| and |NC(W, c)| = prod (d_i + h) / d_i for every group the benchmark
# runs, from the degrees in the literature (Humphreys, Reflection Groups and
# Coxeter Groups, table 3.1; Shephard-Todd for G(d,e,n)).  The traced run
# checks the sizes the program builds against these.
GROUP_FACTS: Dict[str, Tuple[int, int]] = {
    "A3": (24, 14),
    "B3": (48, 20),
    "D4": (192, 50),
    "D6": (23040, 672),
    "A7": (40320, 1430),
    "H3": (120, 32),
    "H4": (14400, 280),
    "F4": (1152, 105),
    "E6": (51840, 833),
    "G(3,1,3)": (162, 20),
    "G(3,1,5)": (29160, 252),
    "G(4,1,4)": (6144, 70),
    "G(4,4,3)": (96, 22),
    "G(4,4,5)": (30720, 294),
    "G(5,5,4)": (3000, 95),
    "I2(5)": (10, 7),
    "I2(150)": (300, 152),
}


def _verify_round(groups: List[str]) -> Tuple[Tuple[Invocation, ...], ...]:
    return (tuple(Invocation(("verify", g, "--format", "json"), g)
                  for g in groups),)


def _cli_round() -> Tuple[Invocation, ...]:
    """The README's command mix; formats cycle md, json, csv in list order."""
    commands: List[Tuple[Tuple[str, ...], Optional[str]]] = []
    for g in ("A3", "B3", "D4", "H3", "F4", "G(3,1,3)", "G(4,4,3)", "I2(5)"):
        commands += [(("info", g), g),
                     (("count", g, "red"), g),
                     (("count", g, "fact-k", "2"), g),
                     (("count", g, "by-class"), g),
                     (("table", g), g),
                     (("verify", g), g)]
    commands += [(("table", family), None) for family in ("B", "GEEN", "G24")]
    return tuple(
        Invocation(args + ("--format", FORMATS[i % len(FORMATS)]), group,
                   cached=args[0] != "info")
        for i, (args, group) in enumerate(commands))


# The verify groups, by the layers they load (read the per-layer metrics of
# the `verify` workload against these):
#   H3 F4 H4 E6 A7 D6: |W| >> |NC|, so root closure over exact fields, the
#     BFS over W, NC membership, all-pairs leq_rows and class ids dominate;
#   G(3,1,5) G(4,4,5) G(4,1,4) G(5,5,4): monomial carriers, no root data;
#     |Red(c)| <= ORBIT_GATE, so enumeration, Hurwitz and fibers run;
#   I2(150): a 300-point carrier puts every compose on the 2-byte path, and
#     r_lambda and parabolic_degrees run with |T| = 150.
VERIFY_GROUPS = {
    "real": ["H3", "F4", "H4", "E6", "A7", "D6"],
    "complex": ["G(3,1,5)", "G(4,4,5)", "G(4,1,4)", "G(5,5,4)"],
    "wide": ["I2(150)"],
}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "verify",
        "verify --format json on H3 F4 H4 E6 A7 D6, four G(d,e,n) and "
        "I2(150): root closure, BFS over W, NC, leq_rows, class ids, "
        "enumeration, Hurwitz, 2-byte compose",
        _verify_round([g for groups in VERIFY_GROUPS.values()
                       for g in groups])),
    Workload(
        "cli",
        "51 README commands in md/json/csv, twice against one fresh --cache "
        "(miss+store, then hit+replay): render, cache, table, closed forms "
        "and process set-up",
        (_cli_round(), _cli_round())),
)}
