"""Test oracles that list a whole group or subgroup.

The library never lists W: NC(W, c) comes from the carrier's cover test,
the rank-2 parabolic degrees from a Schreier-Sims chain, and the length-2
test from T.  These helpers keep the listing routes the library used to
take, over `Group.length_table()` (a BFS over all of W) or a BFS closure,
so tests can check the library against them.
"""

import math
from typing import Iterator, List, Sequence, Tuple

from ncfact import kernels
from ncfact.groups import Element, Group


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
