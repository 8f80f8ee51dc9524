"""The lattice of noncrossing partitions NC(W, c).

NC(W, c) = {w : w =< c} in absolute order, graded by reflection length.
Elements are sorted by (rank, permutation bytes), so index 0 is the identity
and the last index is the Coxeter element.  The poset is found by walking
down from c along covers, and the order relation is the closure of those
covers.  The carrier lists the lower covers of each element it is handed,
so W is never enumerated: a root carrier keeps the v*t whose root of t lies
in Mov(v) (one pass over the cycles of v decides every t), a monomial
carrier the v*t of codim one less than v (read off the cycles of v and
their color sums).  Class ids are computed only for the elements they are
asked for, and the group memoises them.  The codimension-2 strata are the
classes of the rank-2 elements; each `NcClass` carries its members, the NC
indices of the stratum.

The relation is stored flat: the down-set of j is the sorted slice
down[down_start[j]:down_start[j + 1]], ending at j, and since indices
increase with rank the i below j with a given range of rank jumps are one
bisected slice of it (`NcPoset.below`).  That is the one predecessor
structure; multichain and chain counting are `transfer` steps over it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ncfact import kernels
from ncfact.errors import NotInNC, RankTooSmall, exact_quotient
from ncfact.families import GroupSpec
from ncfact.groups import ClassId, Element, Group


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
    """Materialized NC(W, c); immutable after construction but for the
    cover_paths it keeps."""

    def __init__(self, group: Group):
        # the walk tests each element against every t: |NC| * |T|, with
        # |NC| from the closed form
        group.check_budget("NC walk", fuss_catalan(group.spec, 1)
                           * group.num_reflections)
        car = group.carrier
        n = group.rank
        # [1, c] is graded and downward closed, so the walk down from c by
        # covers reaches all of it, and rank is n minus distance.  The
        # carrier lists the lower covers of v without knowing l_T on W.
        # Each element is kept once: a cover met again is swapped for the
        # copy seen first.
        lower: Dict[bytes, List[bytes]] = {}
        seen: Dict[bytes, bytes] = {}

        def step(v: bytes) -> List[bytes]:
            lower[v] = [seen.setdefault(x, x) for x in car.lower_covers(v)]
            return lower[v]

        dist = kernels.bfs([car.coxeter], step)
        members = sorted((n - d, p) for p, d in dist.items())
        if members[0] != (0, kernels.identity(car.npoints)):
            raise AssertionError(f"{group.name}: the walk down from c does "
                                 f"not end at the identity in {n} steps")
        self.group = group
        self.perms: Tuple[bytes, ...] = tuple(p for _, p in members)
        self.ranks: Tuple[int, ...] = tuple(r for r, _ in members)
        self.elements: Tuple[Element, ...] = tuple(
            Element(group.name, p) for p in self.perms)
        self.index: Dict[bytes, int] = {p: i for i, p in enumerate(self.perms)}
        self.size = len(self.perms)
        # The down-set of j is j plus the union of its lower covers'.
        # Lower covers have lower rank, hence lower index, so in increasing
        # index order theirs are already in the flat array.
        index = self.index
        down = array("i")
        start = array("i", [0])
        for j, p in enumerate(self.perms):
            below = set()
            for x in lower.pop(p):
                i = index[x]
                below.update(down[start[i]:start[i + 1]])
            down.extend(sorted(below))
            down.append(j)
            start.append(len(down))
        # down[start[j]:start[j + 1]] is the down-set of j, increasing, so
        # by rank, ending at j itself; rank_start[r] is the first index of
        # rank >= r
        self.down = down
        self.down_start = start
        self.rank_start: Tuple[int, ...] = tuple(
            bisect_left(self.ranks, r) for r in range(n + 2))
        # the maximal chains up to each element, kept by facto's cover
        # pass the first time it runs
        self.cover_paths: Optional[List[int]] = None

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

    def below(self, j: int, jumps: range) -> array:
        """The i <= j whose rank jump to j lies in jumps (a range of step
        1), increasing: one bisected slice of the down-set of j."""
        a, b = self.down_start[j], self.down_start[j + 1]
        top = self.ranks[j] - jumps.start
        if top < 0:
            return self.down[a:a]
        lo = self.rank_start[max(top - len(jumps) + 1, 0)]
        p = bisect_left(self.down, lo, a, b)
        return self.down[p:bisect_left(self.down, self.rank_start[top + 1],
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


def fuss_catalan(spec: GroupSpec, p: int) -> int:
    """prod_i (d_i + p*h) / d_i, exactly."""
    if p < 0:
        raise ValueError("p must be >= 0")
    num = den = 1
    for d in spec.degrees:
        num *= d + p * spec.h
        den *= d
    return exact_quotient(num, den,
                          f"Fuss-Catalan value for {spec.name}, p={p}")


def transfer(nc: NcPoset, vec: Sequence[int], jumps: range) -> List[int]:
    """One transfer step: out[j] sums vec[i] over the i <= j whose rank
    jump to j lies in jumps."""
    get = vec.__getitem__
    return [sum(map(get, nc.below(j, jumps))) for j in range(nc.size)]


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
