"""Block factorizations of the Coxeter element.

A block factorization of c is a plain tuple of non-identity elements whose
product is c and whose reflection lengths sum to l(c) = rank; only
`make_factorization` validates one.  Factorizations with composition
(l(w_1), ..., l(w_p)) correspond to strict rank-jump chains in NC(W, c), so
counting reads the materialized poset: |Red(w)| is its `paths`, counted by
the walk, and the rest are passes over its relation (the per-class
submaximal counts add the Hurwitz action, see `submaximal_by_class`);
explicit enumeration is kept alongside as an independent route and for the
Hurwitz/concatenation checks.  An `LLRow` is a codimension-2 stratum
(`ncp.NcClass`) plus its counts; its r and reducibility come from one scan
for the reflections below (atoms of) the representative.
"""

from __future__ import annotations

import functools
import math
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ncfact import kernels
from ncfact.errors import IndexOutOfRange, RankTooSmall, exact_quotient
from ncfact.families import validate_composition
from ncfact.groups import ClassId, Element, Group
from ncfact.kernels import Perm
from ncfact.ncp import NcClass, NcPoset, build_nc, strata_codim2, transfer


class LLRow(NamedTuple):
    """A codimension-2 stratum (the fields of `ncp.NcClass`, first) plus
    its submaximal factorization data."""

    class_id: ClassId
    rank: int
    representative: Element
    members: Tuple[int, ...]
    count: int                 # submaximal factorizations of this type
    r: int                     # pair count |{(r1, r2) : r1 r2 = w}|
    u: int                     # derived degree: count * |W| / ((n-1)! h^(n-1))
    parabolic: Tuple[int, int]  # invariant degrees (d1', h')
    reducible: bool            # parabolic splits into two rank-1 factors

    size_in_nc = NcClass.size_in_nc


def make_factorization(g: Group, factors: Iterable[Element]
                       ) -> Tuple[Element, ...]:
    """The factors as a tuple, once validated: non-identity, product c, and
    length sum n.  The prefix products rise strictly in NC(W, c) to c, so
    each factor's length is its rank jump (and conversely)."""
    fs = tuple(factors)
    if not fs:
        raise ValueError("a factorization needs at least one factor")
    nc = build_nc(g)
    ident = g.identity
    prev = ident
    for w in fs:
        if w == ident:
            raise ValueError("identity factors are not allowed")
        cur = g.multiply(prev, w)
        if cur.perm not in nc.index or not nc.leq(prev, cur):
            raise ValueError(f"factor lengths do not sum to {g.rank}")
        prev = cur
    if prev != g.coxeter:
        raise ValueError("product of factors is not the Coxeter element")
    return fs


def count_fact_by_composition(nc: NcPoset, comp: Sequence[int]) -> int:
    """Factorizations with the given length composition: chains from the
    identity to c whose t-th rank jump is the t-th part, by transfer sums."""
    vec = [0] * nc.size
    vec[0] = 1
    for part in validate_composition(nc.group.rank, comp):
        vec = transfer(nc, vec, part)
    return vec[-1]


def fact_counts(nc: NcPoset) -> List[int]:
    """fact_k, the factorizations into exactly k factors, for k = 0 ..
    rank, from one pass over the strict relation.

    out[j] packs, in its k-th lane of L bits, the strict chains of k steps
    from the identity to j: out[0] = 1 and out[j] is the sum of out[i] over
    the i < j below j, shifted up one lane.  A k-step chain to j < c
    extends to a (k+1)-step chain to c, and every strict chain of k steps
    to c lies in a maximal one, so no lane holds more than
    max_k C(n-1, k-1) |Red(c)|, which sizes L without the closed forms.
    """
    n = nc.group.rank
    red = count_reduced(nc)
    width = (max(math.comb(n - 1, k - 1) for k in range(1, n + 1)) * red
             ).bit_length()
    out = [0] * nc.size
    out[0] = 1
    get = out.__getitem__
    below = nc.strictly_below
    for j in range(1, nc.size):
        out[j] = sum(map(get, below(j))) << width
    mask = (1 << width) - 1
    lanes = [out[-1] >> (k * width) & mask for k in range(n + 1)]
    if lanes[n] != red:
        raise AssertionError(f"{nc.group.name}: fact_{n} is {lanes[n]}, "
                             f"|Red(c)| is {red}")
    return lanes


def count_fact_k(nc: NcPoset, k: int) -> int:
    """Factorizations into exactly k factors (any composition)."""
    n = nc.group.rank
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        return 0
    return fact_counts(nc)[k]


def count_reduced(nc: NcPoset) -> int:
    """|Red(c)|: factorizations into rank many reflections."""
    return nc.paths[-1]


def r_lambda(g: Group, w: Element) -> int:
    """Number of ordered reflection pairs (r1, r2) with r1 r2 = w."""
    # r1 r2 = w iff r1 =< w, and then r2 = r1^-1 w is determined
    return len(g.reflections_below(w))


def derived_degree(g: Group, count: int) -> int:
    """u with count = (n-1)! h^(n-1) / |W| * u; exact or NonIntegerResult."""
    n = g.rank
    if n < 2:
        raise RankTooSmall("derived degrees need rank >= 2")
    return exact_quotient(count * g.order,
                          math.factorial(n - 1) * g.h ** (n - 1),
                          f"derived degree of count {count} for {g.name}")


def submaximal_by_class(nc: NcPoset) -> List[LLRow]:
    """Counts of (rank-1)-factor factorizations, split by the conjugacy
    class of the single length-2 factor; row order matches strata_codim2.

    count(C) = (n-1) * sum |Red(q^-1 c)| over the rank-2 q in C and NC: the
    braid move (t, q) -> (t q t^-1, t) is a bijection that moves the
    length-2 factor one place left and keeps its class, so each of the n-1
    places holds as many as the first, where q =< c is followed by a
    reduced factorization of its Kreweras complement q^-1 c, in NC."""
    g = nc.group
    n = g.rank
    if n < 2:
        raise RankTooSmall("submaximal factorizations need rank >= 2")
    c = nc.perms[-1]
    rows = []
    for cls in strata_codim2(nc):
        complements = (kernels.compose(kernels.inverse(nc.perms[q]), c)
                       for q in cls.members)
        count = (n - 1) * sum(nc.paths[nc.index[x]] for x in complements)
        rep = cls.representative
        # the atoms generate the parabolic, which is abelian, i.e. a
        # product of two rank-1 groups, iff they pairwise commute
        atoms = g.reflections_below(rep)
        reducible = all(kernels.compose(a, b) == kernels.compose(b, a)
                        for k, a in enumerate(atoms) for b in atoms[k + 1:])
        rows.append(LLRow(*cls, count=count, r=len(atoms),
                          u=derived_degree(g, count),
                          parabolic=g.parabolic_degrees_of_atoms(atoms),
                          reducible=reducible))
    return rows


def _braid(a: Perm, b: Perm, direction: int,
           inverse: Callable[[Perm], Perm] = kernels.inverse
           ) -> Tuple[Perm, Perm]:
    """(a, b) -> (aba^-1, a) for direction 1, (b, b^-1 ab) for -1."""
    if direction == 1:
        return (kernels.compose(kernels.compose(a, b), inverse(a)), a)
    return (b, kernels.compose(kernels.compose(inverse(b), a), b))


def hurwitz_move(g: Group, f: Tuple[Element, ...], i: int,
                 direction: int = 1) -> Tuple[Element, ...]:
    """Braid move at window i (1-based): (a, b) -> (aba^-1, a), or the
    inverse (a, b) -> (b, b^-1 a b) when direction is -1."""
    p = len(f)
    if not 1 <= i <= p - 1:
        raise IndexOutOfRange(f"window {i} not in 1..{p - 1}")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    a, b = (g._own(x) for x in f[i - 1:i + 1])
    moved = tuple(Element(g.name, q) for q in _braid(a, b, direction))
    return f[:i - 1] + moved + f[i + 1:]


def hurwitz_orbit(g: Group, f: Tuple[Element, ...],
                  cap: Optional[int] = None) -> List[Tuple[Element, ...]]:
    """Orbit of f under all braid moves, BFS order; BudgetExceeded past cap.

    The braid group acts on the finite orbit by permutations, so each
    inverse move is a power of the forward one, and the forward moves
    alone close the same set."""
    # the orbit's states share few distinct factors: a state is a tuple of
    # ids into factors, each factor is inverted once and each distinct
    # braid (a, b) composed once
    ids: Dict[Perm, int] = {}
    factors: List[Perm] = []

    def fid(p: Perm) -> int:
        if p not in ids:
            ids[p] = len(factors)
            factors.append(p)
        return ids[p]

    inverse = functools.lru_cache(maxsize=None)(kernels.inverse)

    @functools.lru_cache(maxsize=None)
    def braid(a: int, b: int) -> Tuple[int, int]:
        return tuple(map(fid, _braid(factors[a], factors[b], 1, inverse)))

    orbit = kernels.bfs(
        [tuple(fid(x.perm) for x in f)],
        lambda state: [state[:i] + braid(state[i], state[i + 1])
                       + state[i + 2:] for i in range(len(state) - 1)],
        cap)
    elements = [Element(g.name, p) for p in factors]
    return [tuple(elements[k] for k in state) for state in orbit]


def enumerate_by_composition(nc: NcPoset, comp: Sequence[int]
                             ) -> List[Tuple[Element, ...]]:
    """All factorizations with the given composition, explicitly."""
    parts = validate_composition(nc.group.rank, comp)
    g = nc.group
    inv = [kernels.inverse(p) for p in nc.perms]
    out: List[Tuple[Element, ...]] = []
    factors: List[Element] = []

    # walk down from c: the t-th step from the top peels off the factor of
    # length parts[-t], so the factors come out last first
    def walk(j: int, t: int) -> None:
        if t == 0:
            out.append(tuple(reversed(factors)))
            return
        part = parts[t - 1]
        for i in nc.below(j, part):
            quot = kernels.compose(inv[i], nc.perms[j])
            factors.append(Element(g.name, quot))
            walk(i, t - 1)
            factors.pop()

    walk(nc.size - 1, len(parts))
    return out


def enumerate_reduced(nc: NcPoset) -> List[Tuple[Element, ...]]:
    """All reduced reflection factorizations of c, explicitly."""
    return enumerate_by_composition(nc, (1,) * nc.group.rank)


def concatenation_fibers(g: Group, reduced: Iterable[Tuple[Element, ...]]
                         ) -> Dict[Tuple[Element, ...], int]:
    """Fiber sizes of Red(c) -> fact(2,1,...,1), merging the first two
    reflections of each factorization in reduced (Red(c), as
    enumerate_reduced lists it); keys are the image factorizations."""
    if g.rank < 2:
        raise RankTooSmall("concatenation needs rank >= 2")
    fibers: Dict[Tuple[Element, ...], int] = {}
    for f in reduced:
        merged = g.multiply(f[0], f[1])
        image = (merged,) + f[2:]
        fibers[image] = fibers.get(image, 0) + 1
    return fibers
