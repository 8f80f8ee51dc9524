"""Test oracles: routes the library used to take, kept to check it.

The library never lists W: NC(W, c) comes from the carrier's cover test,
the rank-2 parabolic degrees from a Schreier-Sims chain, and the length-2
test from T.  Most helpers here keep the listing routes the library used to
take, over `Group.length_table()` (a BFS over all of W) or a BFS closure.
`submaximal_counts_by_pairs` keeps the per-class submaximal counts by a
forward and a backward cover pass over every jump-2 pair of NC, and
`build_parser` the argparse parser the command line was read with.
"""

import argparse
import math
from typing import Dict, Iterator, List, Sequence, Tuple

from ncfact import __version__, kernels
from ncfact.facto import COVER, _cover_paths
from ncfact.groups import ClassId, Element, Group
from ncfact.ncp import NcPoset, strata_codim2


def elements(g: Group) -> Iterator[Element]:
    """All elements in deterministic BFS-by-length order."""
    for perm in g.length_table():
        yield Element(g.name, perm)


def reflection_length(g: Group, w: Element) -> int:
    return g.length_table()[g._own(w)]


def absolute_leq(g: Group, u: Element, v: Element) -> bool:
    """u =< v in absolute order: l(u) + l(u^-1 v) = l(v)."""
    table = g.length_table()
    up, vp = g._own(u), g._own(v)
    quot = kernels.compose(kernels.inverse(up), vp)
    return table[up] + table[quot] == table[vp]


def parabolic_degrees_by_closure(g: Group, atoms: Sequence[bytes]
                                 ) -> Tuple[int, int]:
    """Degrees (d1', h') of the parabolic the atoms generate, with N the
    size of its BFS closure and N_r the reflections in it."""
    gens: List[bytes] = []
    seen = {}
    for a in atoms:
        if a not in seen:
            gens.append(a)
            seen = kernels.bfs_lengths(gens)
    n_r = sum(1 for x in seen if x in g.carrier.refl_set)
    s = n_r + 2
    root = math.isqrt(s * s - 4 * len(seen))
    assert root * root == s * s - 4 * len(seen)
    return (s - root) // 2, (s + root) // 2


def submaximal_counts_by_pairs(nc: NcPoset) -> Dict[ClassId, int]:
    """Submaximal factorizations per class of the length-2 factor: the
    jump-2 pair (i, j) of NC, with quotient q = i^-1 j, contributes the
    maximal chains up to i times those from j to c."""
    size = nc.size
    forward = _cover_paths(nc)
    # upper covers have higher index, so backward[j] is final when read
    backward = [0] * size
    backward[size - 1] = 1
    for j in range(size - 1, 0, -1):
        for i in nc.below(j, COVER):
            backward[i] += backward[j]
    # weight[q]: submaximal factorizations whose length-2 factor is
    # element q; the jump-2 pair (i, j) contributes forward[i]*backward[j]
    inv = [kernels.inverse(p) for p in nc.perms]
    weight = [0] * size
    for j in range(size):
        for i in nc.below(j, range(2, 3)):
            q = nc.index[kernels.compose(inv[i], nc.perms[j])]
            weight[q] += forward[i] * backward[j]
    counts = {cls.class_id: sum(weight[q] for q in cls.members)
              for cls in strata_codim2(nc)}
    if sum(counts.values()) != sum(weight):
        raise AssertionError("quotients outside the rank-2 strata")
    return counts


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
                       help="work budget, e.g. |NC|*|T| (default 10^7)")
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
