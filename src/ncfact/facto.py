"""Block factorizations of the Coxeter element.

A block factorization of c is a tuple of non-identity elements whose product
is c and whose reflection lengths sum to l(c) = rank.  Factorizations with
composition (l(w_1), ..., l(w_p)) correspond to strict rank-jump chains in
NC(W, c), so all counting is `ncp.transfer` steps over the materialized
poset; explicit enumeration is kept alongside as an independent route and
for the Hurwitz/concatenation checks.  An `LLRow` is a codimension-2
stratum (`ncp.NcClass`) plus its counts; its r and reducibility come from
one scan for the reflections below (atoms of) the representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ncfact import kernels
from ncfact.errors import (IndexOutOfRange, NonIntegerResult, NotLengthTwo,
                           RankTooSmall)
from ncfact.groups import Element, Group
from ncfact.ncp import NcClass, NcPoset, strata_codim2, transfer


@dataclass(frozen=True)
class Factorization:
    """Tuple of factors; build validated instances via make_factorization."""

    factors: Tuple[Element, ...]

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class LLRow(NcClass):
    """A codimension-2 stratum plus its submaximal factorization data."""

    count: int                 # submaximal factorizations of this type
    r: int                     # pair count |{(r1, r2) : r1 r2 = w}|
    u: int                     # derived degree: count * |W| / ((n-1)! h^(n-1))
    parabolic: Tuple[int, int]  # invariant degrees (d1', h')
    reducible: bool            # parabolic splits into two rank-1 factors


def make_factorization(g: Group, factors: Iterable[Element]) -> Factorization:
    """Validate product, non-identity factors, and length sum."""
    fs = tuple(factors)
    if not fs:
        raise ValueError("a factorization needs at least one factor")
    ident = g.identity
    prod = ident
    total = 0
    for w in fs:
        if w == ident:
            raise ValueError("identity factors are not allowed")
        total += g.reflection_length(w)
        prod = g.multiply(prod, w)
    if prod != g.coxeter:
        raise ValueError("product of factors is not the Coxeter element")
    if total != g.rank:
        raise ValueError(f"factor lengths sum to {total}, expected {g.rank}")
    return Factorization(fs)


def _validate_composition(nc: NcPoset, comp: Sequence[int]) -> Tuple[int, ...]:
    parts = tuple(int(x) for x in comp)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"composition {parts} must have positive parts")
    if sum(parts) != nc.group.rank:
        raise ValueError(f"composition {parts} must sum to the rank "
                         f"{nc.group.rank}")
    return parts


def _count_chains(nc: NcPoset, jump_sets: Iterable[Sequence[int]]) -> int:
    """Chains from the identity to c with t-th rank jump in jump_sets[t]."""
    vec = [0] * nc.size
    vec[0] = 1
    for jumps in jump_sets:
        vec = transfer(nc, vec, jumps)
    return vec[-1]


def count_fact_by_composition(nc: NcPoset, comp: Sequence[int]) -> int:
    """Factorizations with the given length composition, by transfer sums."""
    parts = _validate_composition(nc, comp)
    return _count_chains(nc, [(part,) for part in parts])


def count_fact_k(nc: NcPoset, k: int) -> int:
    """Factorizations into exactly k factors (any composition)."""
    n = nc.group.rank
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        return 0
    return _count_chains(nc, [range(1, n + 1)] * k)


def count_reduced(nc: NcPoset) -> int:
    """|Red(c)|: factorizations into rank many reflections."""
    return count_fact_by_composition(nc, (1,) * nc.group.rank)


def r_lambda(g: Group, w: Element) -> int:
    """Number of ordered reflection pairs (r1, r2) with r1 r2 = w."""
    if g.reflection_length(w) != 2:
        raise NotLengthTwo(f"element has length {g.reflection_length(w)}, "
                           "need 2")
    # r1 r2 = w iff r1 =< w, and then r2 = r1^-1 w is determined
    return len(g.reflections_below(w))


def derived_degree(g: Group, count: int) -> int:
    """u with count = (n-1)! h^(n-1) / |W| * u; exact or NonIntegerResult."""
    n = g.rank
    if n < 2:
        raise RankTooSmall("derived degrees need rank >= 2")
    u = Fraction(count * g.order,
                 math.factorial(n - 1) * g.h ** (n - 1))
    if u.denominator != 1:
        raise NonIntegerResult(f"count {count} gives non-integer derived "
                               f"degree {u} for {g.name}")
    return u.numerator


def submaximal_by_class(nc: NcPoset) -> List[LLRow]:
    """Counts of (rank-1)-factor factorizations, split by the conjugacy
    class of the single length-2 factor; row order matches strata_codim2."""
    g = nc.group
    n = g.rank
    if n < 2:
        raise RankTooSmall("submaximal factorizations need rank >= 2")
    size = nc.size
    covers = nc.preds_by_jump[1]
    forward = [0] * size
    forward[0] = 1
    for j in range(1, size):
        forward[j] = sum(forward[i] for i in covers[j])
    # upper covers have higher index, so backward[j] is final when read
    backward = [0] * size
    backward[size - 1] = 1
    for j in range(size - 1, 0, -1):
        for i in covers[j]:
            backward[i] += backward[j]
    # weight[q]: submaximal factorizations whose length-2 factor is
    # element q; the jump-2 pair (i, j) contributes forward[i]*backward[j]
    inv = [kernels.inverse(p) for p in nc.perms]
    weight = [0] * size
    for j in range(size):
        for i in nc.preds_by_jump[2][j]:
            q = nc.index[kernels.compose(inv[i], nc.perms[j])]
            weight[q] += forward[i] * backward[j]
    rows = []
    for cls in strata_codim2(nc):
        count = sum(weight[q] for q in cls.members)
        rep = cls.representative
        # the atoms generate the parabolic, which is abelian, i.e. a
        # product of two rank-1 groups, iff they pairwise commute
        atoms = g.reflections_below(rep)
        reducible = all(kernels.compose(a, b) == kernels.compose(b, a)
                        for k, a in enumerate(atoms) for b in atoms[k + 1:])
        rows.append(LLRow(**vars(cls), count=count, r=len(atoms),
                          u=derived_degree(g, count),
                          parabolic=g.parabolic_degrees_of_atoms(atoms),
                          reducible=reducible))
    if sum(row.count for row in rows) != sum(weight):
        raise AssertionError("quotients outside the rank-2 strata")
    return rows


def _braid(a: bytes, b: bytes, direction: int) -> Tuple[bytes, bytes]:
    """(a, b) -> (aba^-1, a) for direction 1, (b, b^-1 ab) for -1."""
    if direction == 1:
        return (kernels.compose(kernels.compose(a, b), kernels.inverse(a)), a)
    return (b, kernels.compose(kernels.compose(kernels.inverse(b), a), b))


def hurwitz_move(g: Group, f: Factorization, i: int,
                 direction: int = 1) -> Factorization:
    """Braid move at window i (1-based): (a, b) -> (aba^-1, a), or the
    inverse (a, b) -> (b, b^-1 a b) when direction is -1."""
    p = len(f.factors)
    if not 1 <= i <= p - 1:
        raise IndexOutOfRange(f"window {i} not in 1..{p - 1}")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    a, b = (g._own(x) for x in f.factors[i - 1:i + 1])
    moved = tuple(Element(g.name, q) for q in _braid(a, b, direction))
    return Factorization(f.factors[:i - 1] + moved + f.factors[i + 1:])


def hurwitz_orbit(g: Group, f: Factorization,
                  cap: Optional[int] = None) -> List[Factorization]:
    """Orbit of f under all braid moves, BFS order; BudgetExceeded past cap."""
    orbit = kernels.bfs(
        [tuple(x.perm for x in f.factors)],
        lambda state: [state[:i] + _braid(state[i], state[i + 1], d)
                       + state[i + 2:]
                       for i in range(len(state) - 1) for d in (1, -1)],
        cap)
    return [Factorization(tuple(Element(g.name, q) for q in state))
            for state in orbit]


def enumerate_by_composition(nc: NcPoset,
                             comp: Sequence[int]) -> List[Factorization]:
    """All factorizations with the given composition, explicitly."""
    parts = _validate_composition(nc, comp)
    g = nc.group
    inv = [kernels.inverse(p) for p in nc.perms]
    out: List[Factorization] = []
    factors: List[Element] = []

    # walk down from c: the t-th step from the top peels off the factor of
    # length parts[-t], so the factors come out last first
    def walk(j: int, t: int) -> None:
        if t == 0:
            out.append(Factorization(tuple(reversed(factors))))
            return
        for i in nc.preds_by_jump[parts[t - 1]][j]:
            quot = kernels.compose(inv[i], nc.perms[j])
            factors.append(Element(g.name, quot))
            walk(i, t - 1)
            factors.pop()

    walk(nc.size - 1, len(parts))
    return out


def enumerate_reduced(nc: NcPoset) -> List[Factorization]:
    """All reduced reflection factorizations of c, explicitly."""
    return enumerate_by_composition(nc, (1,) * nc.group.rank)


def concatenation_fibers(g: Group, reduced: Iterable[Factorization]
                         ) -> Dict[Factorization, int]:
    """Fiber sizes of Red(c) -> fact(2,1,...,1), merging the first two
    reflections of each factorization in reduced (Red(c), as
    enumerate_reduced lists it); keys are the image factorizations."""
    if g.rank < 2:
        raise RankTooSmall("concatenation needs rank >= 2")
    fibers: Dict[Factorization, int] = {}
    for f in reduced:
        merged = g.multiply(f.factors[0], f.factors[1])
        image = Factorization((merged,) + f.factors[2:])
        fibers[image] = fibers.get(image, 0) + 1
    return fibers
