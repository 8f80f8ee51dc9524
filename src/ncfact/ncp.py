"""The lattice of noncrossing partitions NC(W, c).

NC(W, c) = {w : w =< c} in absolute order, graded by reflection length.
Elements are sorted by (rank, permutation), so index 0 is the identity
and the last index is the Coxeter element.  The poset is found by walking
down from c along covers, and the order relation is the closure of those
covers.  For each element v the walk names the reflections to try, and the
carrier says which of them give lower covers v*t, so W is never enumerated:
a root carrier keeps the t whose root lies in Mov(v) (its v-cycle sums to
zero), a monomial carrier the t that drop codim by one (read off the cycles
of v and their color sums).  c is asked about all of T, any other element
only about the covers of its first upper cover, and only this module
composes a cover.  The covers give the down-sets and `paths` (|Red(w)|,
the maximal chains up to w), then go.
Class ids are computed only for the elements they are asked for, and the
group memoises them.  The codimension-2 strata are the classes of the
rank-2 elements; each `NcClass` carries its members, their NC indices.

The relation is stored flat: the down-set of j is the sorted slice
down[down_start[j]:down_start[j + 1]], ending at j, and since indices
increase with rank the i below j with a given rank jump are one bisected
slice of it (`NcPoset.below`; `strictly_below` drops j).  That is the one
predecessor structure, and only this module reads its layout: multichain
and chain counting are `transfer` steps over it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ncfact import kernels
from ncfact.closedform import fuss_catalan
from ncfact.errors import NotInNC, RankTooSmall
from ncfact.groups import ClassId, Element, Group
from ncfact.kernels import Perm


class NcClass(NamedTuple):
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
        # the walk tests each element against at most every t: |NC| * |T|
        # bounds it, with |NC| from the closed form
        group.check_budget("NC walk", fuss_catalan(group.spec, 1)
                           * group.num_reflections)
        car = group.carrier
        refl = car.refl_perms
        n = group.rank
        # [1, c] is graded and downward closed, so the walk down from c by
        # covers reaches all of it, and rank is n minus distance.  c is
        # asked about every t, any other u about the covers of the first
        # upper cover v that listed it: u*t covers u iff t =< u, and then
        # t =< v, so v*t covers v (Bessis 2003).  Each element is kept
        # once: a cover met again is swapped for the copy seen first.
        lower: Dict[Perm, List[Perm]] = {}
        seen: Dict[Perm, Perm] = {}
        asked: Dict[Perm, Sequence[int]] = {car.coxeter: range(len(refl))}

        def step(v: Perm) -> List[Perm]:
            ks = car.covers(v, asked.pop(v))
            lower[v] = [seen.setdefault(x, x)
                        for x in (kernels.compose(v, refl[k]) for k in ks)]
            for u in lower[v]:
                asked.setdefault(u, ks)
            return lower[v]

        dist = kernels.bfs([car.coxeter], step)
        members = sorted((n - d, p) for p, d in dist.items())
        if members[0] != (0, car.identity):
            raise AssertionError(f"{group.name}: the walk down from c does "
                                 f"not end at the identity in {n} steps")
        self.group = group
        self.perms: Tuple[Perm, ...] = tuple(p for _, p in members)
        self.ranks: Tuple[int, ...] = tuple(r for r, _ in members)
        self.elements: Tuple[Element, ...] = tuple(
            Element(group.name, p) for p in self.perms)
        self.index: Dict[Perm, int] = {p: i for i, p in enumerate(self.perms)}
        self.size = len(self.perms)
        # The down-set of j is j plus the union of its lower covers', and
        # |Red(j)| the sum of theirs.  Lower covers have lower rank, hence
        # lower index, so in increasing index order theirs are known.
        index = self.index
        down = array("i")
        start = array("i", [0])
        paths: List[int] = []
        for j, p in enumerate(self.perms):
            below = set()
            chains = 0
            for x in lower.pop(p):
                i = index[x]
                below.update(down[start[i]:start[i + 1]])
                chains += paths[i]
            down.extend(sorted(below))
            down.append(j)
            start.append(len(down))
            paths.append(chains if j else 1)
        # down[start[j]:start[j + 1]] is the down-set of j, increasing, so
        # by rank, ending at j itself; rank_start[r] is the first index of
        # rank >= r
        self.down = down
        self.down_start = start
        self.rank_start: Tuple[int, ...] = tuple(
            bisect_left(self.ranks, r) for r in range(n + 2))
        self.paths: Tuple[int, ...] = tuple(paths)

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

    def strictly_below(self, j: int) -> array:
        """The i < j below j, increasing: the down-set of j less j."""
        return self.down[self.down_start[j]:self.down_start[j + 1] - 1]

    def below(self, j: int, k: int) -> array:
        """The i <= j of rank jump k to j, increasing: one bisected slice
        of the down-set of j."""
        a, b = self.down_start[j], self.down_start[j + 1]
        r = self.ranks[j] - k
        if r < 0:
            return self.down[a:a]
        p = bisect_left(self.down, self.rank_start[r], a, b)
        return self.down[p:bisect_left(self.down, self.rank_start[r + 1],
                                       p, b)]

    def leq(self, u: Element, v: Element) -> bool:
        i, j = self.index_of(u), self.index_of(v)
        b = self.down_start[j + 1]
        p = bisect_left(self.down, i, self.down_start[j], b)
        return p < b and self.down[p] == i


def build_nc(group: Group) -> NcPoset:
    """NC(W, c) of group: walked on the first call, the same poset after."""
    if group._nc is None:
        group._nc = NcPoset(group)
    return group._nc


def transfer(nc: NcPoset, vec: Sequence[int], k: Optional[int] = None
             ) -> List[int]:
    """One transfer step: out[j] sums vec[i] over the i <= j of rank jump k
    to j, or over the whole down-set of j when k is None."""
    get = vec.__getitem__
    if k is None:
        down, start = nc.down, nc.down_start
        return [sum(map(get, down[start[j]:start[j + 1]]))
                for j in range(nc.size)]
    return [sum(map(get, nc.below(j, k))) for j in range(nc.size)]


def count_multichains(nc: NcPoset, p: int) -> int:
    """Number of multichains w_1 =< ... =< w_p in NC; p = 1 gives |NC|."""
    if p < 1:
        raise ValueError("p must be >= 1")
    counts = [1] * nc.size
    for _ in range(p - 1):
        counts = transfer(nc, counts)
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
