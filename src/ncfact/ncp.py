"""The lattice of noncrossing partitions NC(W, c).

NC(W, c) = {w : w =< c} in absolute order, graded by reflection length.
Elements are sorted by (rank, permutation bytes), so index 0 is the identity
and the last index is the Coxeter element.  The poset is found by walking
down from c along covers, and the order relation, stored as per-element bit
rows of up-sets, is the closure of those covers.  Class ids are computed
only for the elements they are asked for, and the group memoises them.
The codimension-2 strata are the classes of the rank-2 elements; each
`NcClass` carries its members, the NC indices of the stratum.
`preds_by_jump` is the one predecessor structure, and multichain and chain
counting are repeated `transfer` steps over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from ncfact import kernels
from ncfact.errors import NonIntegerResult, NotInNC, RankTooSmall
from ncfact.families import GroupSpec
from ncfact.groups import ClassId, Element, Group


@dataclass(frozen=True)
class NcClass:
    """A conjugacy class met by NC, at a fixed rank: members are its NC
    indices, increasing, and the representative is the first."""

    class_id: ClassId
    rank: int
    representative: Element
    members: Tuple[int, ...]

    @property
    def size_in_nc(self) -> int:
        return len(self.members)


class NcPoset:
    """Materialized NC(W, c); immutable after construction."""

    def __init__(self, group: Group):
        table = group.length_table()
        car = group.carrier
        n = group.rank
        if table[car.coxeter] != n:
            raise AssertionError(f"{group.name}: Coxeter element has length "
                                 f"{table[car.coxeter]}, expected rank {n}")
        # [1, c] is graded and downward closed, so the walk down from c by
        # covers reaches all of it, and rank is n minus distance.  The lower
        # covers of v are the v*t (t in T) one shorter: u <= v one shorter
        # means u^-1 v is a reflection, and T is closed under inversion.
        lower: Dict[bytes, List[bytes]] = {}

        def step(v: bytes) -> List[bytes]:
            below = table[v] - 1
            lower[v] = [x for x in (kernels.compose(v, t)
                                    for t in car.refl_perms)
                        if table[x] == below]
            return lower[v]

        dist = kernels.bfs([car.coxeter], step)
        members = sorted((n - d, p) for p, d in dist.items())
        self.group = group
        self.perms: Tuple[bytes, ...] = tuple(p for _, p in members)
        self.ranks: Tuple[int, ...] = tuple(r for r, _ in members)
        self.elements: Tuple[Element, ...] = tuple(
            Element(group.name, p) for p in self.perms)
        self.index: Dict[bytes, int] = {p: i for i, p in enumerate(self.perms)}
        self.size = len(self.perms)
        # Rows are up-sets.  Upper covers have higher rank, hence higher
        # index, so in decreasing index order row j is complete before it is
        # OR-ed into the rows of j's lower covers.
        rows = [0] * self.size
        for j in range(self.size - 1, -1, -1):
            rows[j] |= 1 << j
            for x in lower[self.perms[j]]:
                rows[self.index[x]] |= rows[j]
        self.leq_rows: Tuple[int, ...] = tuple(rows)
        # preds_by_jump[k][j]: the i <= j with rank jump k, by increasing
        # index; jump 0 is the diagonal
        preds: List[List[List[int]]] = [
            [[] for _ in range(self.size)] for _ in range(n + 1)]
        for i, row in enumerate(rows):
            ri = self.ranks[i]
            while row:
                bit = row & -row
                row ^= bit
                j = bit.bit_length() - 1
                preds[self.ranks[j] - ri][j].append(i)
        self.preds_by_jump: Tuple[Tuple[Tuple[int, ...], ...], ...] = tuple(
            tuple(tuple(lst) for lst in level) for level in preds)

    def __repr__(self) -> str:
        return f"NcPoset({self.group.name}, size={self.size})"

    def index_of(self, x: Element) -> int:
        perm = x.perm
        if x.tag != self.group.name or perm not in self.index:
            raise NotInNC(f"element is not in NC({self.group.name})")
        return self.index[perm]

    def rank_of(self, x: Element) -> int:
        return self.ranks[self.index_of(x)]

    def class_id(self, i: int) -> ClassId:
        """Conjugacy class id of element i, computed on first request."""
        return self.group.conjugacy_class_id(self.elements[i])

    def leq(self, u: Element, v: Element) -> bool:
        return bool(self.leq_rows[self.index_of(u)] >> self.index_of(v) & 1)


def build_nc(group: Group) -> NcPoset:
    return NcPoset(group)


def fuss_catalan(spec: GroupSpec, p: int) -> int:
    """prod_i (d_i + p*h) / d_i, exactly."""
    if p < 0:
        raise ValueError("p must be >= 0")
    value = Fraction(1)
    h = spec.h
    for d in spec.degrees:
        value *= Fraction(d + p * h, d)
    if value.denominator != 1:
        raise NonIntegerResult(f"Fuss-Catalan value {value} for {spec.name}, "
                               f"p={p} is not an integer")
    return value.numerator


def transfer(nc: NcPoset, vec: Sequence[int],
             jumps: Iterable[int]) -> List[int]:
    """One transfer step: out[j] sums vec[i] over the i <= j whose rank
    jump to j is in jumps."""
    levels = [nc.preds_by_jump[k] for k in jumps]
    return [sum([vec[i] for level in levels for i in level[j]])
            for j in range(nc.size)]


def count_multichains(nc: NcPoset, p: int) -> int:
    """Number of multichains w_1 =< ... =< w_p in NC; p = 1 gives |NC|."""
    if p < 1:
        raise ValueError("p must be >= 1")
    counts = [1] * nc.size
    for _ in range(p - 1):
        counts = transfer(nc, counts, range(nc.group.rank + 1))
    return sum(counts)


def strata_codim2(nc: NcPoset) -> List[NcClass]:
    """Conjugacy classes of the rank-2 NC elements, smallest class first."""
    if nc.group.rank < 2:
        raise RankTooSmall(f"{nc.group.name} has rank {nc.group.rank}; "
                           "codimension-2 strata need rank >= 2")
    buckets: Dict[ClassId, List[int]] = {}
    for i, rk in enumerate(nc.ranks):
        if rk == 2:
            buckets.setdefault(nc.class_id(i), []).append(i)
    classes = [NcClass(class_id=cid, rank=2,
                       representative=nc.elements[idxs[0]],
                       members=tuple(idxs))
               for cid, idxs in buckets.items()]
    classes.sort(key=lambda c: (c.size_in_nc, c.class_id))
    return classes
