"""Well-generated reflection groups with exact element arithmetic.

Every group acts faithfully on a finite point set.  The monomial families
G(d,1,n)/G(e,e,n) act on n*d colored points (coordinate i, color k) ->
index i*d + k, where w(v_j) = zeta^{c_j} v_{sigma(j)} sends (j, k) to
(sigma(j), k + c_j mod d); A(n) = G(1,1,n+1) is the one-color case,
permuting n+1 points; the exceptional types permute their root systems.
`kernels` alone reads an element's format (bytes up to 256 points, else
a wide monomial element's n coordinates), serializes and orders it;
`rootdata` alone knows the roots and their cover rule.  Products follow
(v*w)(x) = v(w(x)), so multiply(a, b) applies b first.

The carrier also gives a small generating set (for conjugacy orbits and
the Schreier-Sims order) and says which reflections t =< v give lower
covers v*t of an element v of NC(W, c), among those it is asked about, so
no library path lists W or a subgroup: rank-2 parabolics are Schreier-Sims
chains, and the length table (a BFS over W) serves the test oracles only.
The budget (default 10^7) bounds work, not |W|: each phase checks its
predicted size first (carrier |T| * points, NC walk Catalan(W) * |T|,
length table |W| * |T|), and a conjugacy orbit stops at it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ncfact import kernels, rootdata
from ncfact.errors import (DEFAULT_BUDGET, BudgetExceeded, NotInNC,
                           NotLengthTwo, RankTooSmall, check_budget)
from ncfact.families import EXCEPTIONAL, GroupSpec, parse_group
from ncfact.kernels import Perm

ClassId = bytes


class Element(NamedTuple):
    """Group element: owning group's canonical name plus its permutation."""

    tag: str
    perm: Perm

    def serialize(self) -> bytes:
        return self.tag.encode("ascii") + b"|" + kernels.serialize(self.perm)

    def __repr__(self) -> str:
        return f"Element({self.tag}, {kernels.serialize(self.perm).hex()})"


class _Carrier(NamedTuple):
    """A faithful permutation action of W.

    gens generate W (checked by the verifier's group-order, a Schreier-Sims
    order over them); covers(v, candidates), for v in NC(W, c), returns the
    k among candidates (indices into refl_perms, in their order) for which
    v*t_k is a lower cover of v in absolute order, i.e. t_k =< v.  It keeps
    no state; which candidates to ask about is the NC walk's to decide.
    """

    identity: Perm
    refl_perms: Tuple[Perm, ...]
    refl_set: frozenset
    coxeter: Perm
    codim: Callable[[Perm], int]
    gens: Tuple[Perm, ...]
    covers: Callable[[Perm, Sequence[int]], List[int]]


def _carrier_a(n: int) -> _Carrier:
    return _carrier_monomial(1, n + 1, True)


def _monomial_reflections(d: int, n: int, with_diagonal: bool
                          ) -> List[Tuple[Perm, int, int, int]]:
    """The reflections of G(d,1,n), or of G(d,d,n) without the diagonal
    ones, sorted, each with its shape: (t, i, j, a) for the transposition
    t that sends (i, 0) to (j, a) and (j, 0) to (i, -a), i < j, and
    (t, i, -1, a) for the diagonal reflection of color a at i."""
    shapes = [(i, j, a) for i in range(n) for j in range(i + 1, n)
              for a in range(d)]
    if with_diagonal:
        shapes += [(i, -1, a) for i in range(n) for a in range(1, d)]
    out = []
    for i, j, a in shapes:
        # coordinate x is sigma(x)*d + c_x, the image of point (x, 0)
        coords = list(range(0, n * d, d))
        if j < 0:
            coords[i] += a
        else:
            coords[i], coords[j] = j * d + a, i * d + -a % d
        out.append((kernels.colored(d, coords), i, j, a))
    return sorted(out)


def _carrier_monomial(d: int, n: int, with_diagonal: bool) -> _Carrier:
    """G(d,1,n) with the diagonal reflections, G(d,d,n) without them."""
    shapes = _monomial_reflections(d, n, with_diagonal)
    refl = {(i, j, a): t for t, i, j, a in shapes}
    if with_diagonal:
        # c = diag(zeta, 1, ..) * (0 1 .. n-1): coordinate i -> i+1, and
        # n-1 -> 0 times zeta; the cycle is s_0 s_1 .. s_(n-2)
        parts = [refl[k, k + 1, 0] for k in range(n - 1)]
        if d > 1:
            parts.insert(0, refl[0, -1, 1])
    else:
        parts = [refl[0, 1, 0], refl[0, 1, 1]]
        parts += [refl[k, k + 1, 0] for k in range(1, n - 1)]
    cox = functools.reduce(kernels.compose, parts)

    # An element on coordinates: entry i is sigma(i)*d + c_i, the image of
    # point (i, 0).  codim is n minus the number of sigma-cycles whose
    # colors sum to 0 mod d.
    def coords(perm: Perm) -> Sequence[int]:
        return kernels.coordinates(perm, d)

    def cycle_sums(img: Sequence[int]) -> Tuple[List[int], ...]:
        """Per coordinate x: the coordinate its sigma-cycle starts at, its
        position on the cycle, the color sum mod d from the start up to x
        (exclusive); and, at each start, the cycle's color sum mod d."""
        first = [-1] * n
        pos = [0] * n
        pre = [0] * n
        total = [0] * n
        for start in range(n):
            if first[start] < 0:
                acc = k = 0
                x = start
                while first[x] < 0:
                    first[x], pos[x], pre[x] = start, k, acc
                    acc = (acc + img[x]) % d
                    k += 1
                    x = img[x] // d
                total[start] = acc
        return first, pos, pre, total

    def codim(perm: Perm) -> int:
        first, _, _, total = cycle_sums(coords(perm))
        return n - sum(1 for x in range(n) if first[x] == x and not total[x])

    # t =< v drops codim by one (Bessis, Annals 2015: l_R = codim on
    # [1, c]); the converse holds on real groups (Carter 1972, Lemma 2)
    # and is checked against the BFS oracle on the complex ones.  The drop
    # is read off the cycles of v: a diagonal t adds its color to one
    # cycle's sum, a transposition joins two cycles (sums add) or splits
    # one, and codim drops by one iff exactly one more cycle sums to 0.
    def covers(v: Perm, candidates: Sequence[int]) -> List[int]:
        first, pos, pre, total = cycle_sums(coords(v))
        out = []
        for k in candidates:
            _, i, j, a = shapes[k]
            s = total[first[i]]
            if j < 0:
                hit = s and not (s + a) % d
            elif first[i] != first[j]:
                s2 = total[first[j]]
                hit = s and s2 and not (s + s2) % d
            else:
                # the part of the split cycle through j, i.e. sigma(i) ..
                # j, sums to b: the colors from i up to j, wrapping past
                # the cycle's start when j comes first, less a
                wrap = s if pos[j] < pos[i] else 0
                b = (pre[j] - pre[i] + wrap - a) % d
                hit = b == 0 or b == s
            if hit:
                out.append(k)
        return out

    refl_perms = tuple(t for t, *_ in shapes)
    return _Carrier(kernels.colored(d, range(0, n * d, d)), refl_perms,
                    frozenset(refl_perms), cox, codim, tuple(parts), covers)


def _carrier_root(name: str) -> _Carrier:
    rs = rootdata.build_root_system(name)
    return _Carrier(kernels.identity(rs.npoints), rs.reflection_perms,
                    frozenset(rs.reflection_perms),
                    functools.reduce(kernels.compose, rs.simple_perms),
                    rs.codim, rs.simple_perms, rs.covers)


class Group:
    """A well-generated reflection group; immutable after construction.

    The carrier (reflection permutations, Coxeter element) and NC(W, c)
    build on first request; budget bounds the predicted size of every phase.
    """

    def __init__(self, spec: GroupSpec, budget: Optional[int] = None):
        self.spec = spec
        self.name = spec.name
        self.rank = spec.rank
        self.degrees = spec.degrees
        self.h = spec.h
        self.order = spec.order
        self.num_reflections = spec.num_reflections
        self.budget = DEFAULT_BUDGET if budget is None else budget
        # empty until length_table() builds it, which NC(W, c) and the
        # verifier never do; a dict either way, as perfbench/tracer.py
        # takes its len after every build_nc
        self._lengths: Dict[Perm, int] = {}
        self._class_ids: Dict[Perm, ClassId] = {}
        self._nc = None  # NC(W, c), built by ncp.build_nc on first request

    def __repr__(self) -> str:
        return f"Group({self.name})"

    # -- carrier and basic arithmetic ------------------------------------

    @functools.cached_property
    def carrier(self) -> _Carrier:
        fam, d, n = self.spec.family, self.spec.d, self.spec.n
        len_t = self.num_reflections
        # n+1 points for A(n), the 2|T| roots, or n*d colored points
        points = (n + 1 if fam == "A" else 2 * len_t if fam in EXCEPTIONAL
                  else n * d)
        self.check_budget("carrier", len_t * points)
        if fam == "A":
            car = _carrier_a(n)
        elif fam in EXCEPTIONAL:
            car = _carrier_root(fam)
        else:
            car = _carrier_monomial(d, n, fam in ("B", "GD1N"))
        if len(car.refl_perms) != len_t:
            raise AssertionError(
                f"{self.name}: built {len(car.refl_perms)} "
                f"reflections, degrees say {self.num_reflections}")
        if kernels.perm_order(car.coxeter) != self.h:
            raise AssertionError(
                f"{self.name}: Coxeter element order is not h={self.h}")
        if car.codim(car.coxeter) != self.rank:
            raise AssertionError(
                f"{self.name}: Coxeter element has a fixed vector")
        return car

    @property
    def identity(self) -> Element:
        return Element(self.name, self.carrier.identity)

    @property
    def reflections(self) -> Tuple[Element, ...]:
        return tuple(Element(self.name, p) for p in self.carrier.refl_perms)

    @property
    def coxeter(self) -> Element:
        return Element(self.name, self.carrier.coxeter)

    def _own(self, x: Element) -> Perm:
        if x.tag != self.name:
            raise ValueError(f"element of {x.tag} used with group {self.name}")
        return x.perm

    def multiply(self, a: Element, b: Element) -> Element:
        """Product a*b, i.e. apply b first."""
        return Element(self.name,
                       kernels.compose(self._own(a), self._own(b)))

    def inverse(self, a: Element) -> Element:
        return Element(self.name, kernels.inverse(self._own(a)))

    def element_order(self, a: Element) -> int:
        return kernels.perm_order(self._own(a))

    # -- enumeration-scale structure --------------------------------------

    def check_budget(self, phase: str, size: int) -> None:
        """BudgetExceeded when a phase's predicted size passes the budget."""
        check_budget(self.name, phase, size, self.budget)

    def length_table(self) -> Dict[Perm, int]:
        """Reflection length of every element, keyed by permutation, for
        the test oracles; the benchmark's tracer wraps it and reads
        `_lengths`, so both stay."""
        if self._lengths:
            return self._lengths
        self.check_budget("length table", self.order * self.num_reflections)
        table = kernels.bfs_lengths(self.carrier.refl_perms)
        if len(table) != self.order:
            raise AssertionError(
                f"{self.name}: generated {len(table)} elements, "
                f"degrees say {self.order}")
        self._lengths = table
        return table

    def fixed_space_codim(self, w: Element) -> int:
        return self.carrier.codim(self._own(w))

    def conjugacy_class_id(self, w: Element) -> ClassId:
        """Canonical id: serialization of the class-minimal element, the
        least of the class as `kernels.serialize` serializes it."""
        perm = self._own(w)
        cached = self._class_ids.get(perm)
        if cached is not None:
            return cached
        try:
            orbit = kernels.conj_orbit(perm, self.carrier.gens, self.budget)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"{self.name}: conjugacy orbit needs more than the budget "
                f"{self.budget}") from None
        cid = Element(self.name, min(orbit, key=kernels.order_key)).serialize()
        for member in orbit:
            self._class_ids[member] = cid
        return cid

    def reflections_below(self, w: Element) -> List[Perm]:
        """The reflections t =< w (its atoms), in T order, for l(w) = 2:
        t =< w iff t^-1 w, or equally its inverse w^-1 t, is in T.  So
        l(w) = 2 iff w is neither 1 nor in T (in G(d,1,n) a diagonal
        reflection has atoms too) and has an atom; else NotLengthTwo."""
        car = self.carrier
        perm = self._own(w)
        winv = kernels.inverse(perm)
        atoms = [t for t in car.refl_perms
                 if kernels.compose(winv, t) in car.refl_set]
        if (not atoms or perm in car.refl_set
                or perm == car.identity):
            raise NotLengthTwo("element does not have reflection length 2")
        return atoms

    def parabolic_degrees(self, w: Element) -> Tuple[int, int]:
        """Invariant degrees (d1', h') of the rank-2 parabolic fixing Fix(w).

        The parabolic is generated by the reflections below w; its order N
        and reflection count N_r determine the degrees via d1'+d2' = N_r + 2
        and d1'*d2' = N.
        """
        if self.rank < 2:
            raise RankTooSmall(f"{self.name} has no length-2 elements")
        atoms = self.reflections_below(w)
        from ncfact.ncp import build_nc  # ncp imports this module
        if w.perm not in build_nc(self).index:
            raise NotInNC("element is not below the Coxeter element")
        return self.parabolic_degrees_of_atoms(atoms)

    def parabolic_degrees_of_atoms(self, atoms: Sequence[Perm]
                                   ) -> Tuple[int, int]:
        """Degrees (d1', h') of the rank-2 parabolic the atoms of a rank-2
        element of NC generate; parabolic_degrees without its checks."""
        # A dihedral parabolic has as many atoms as reflections, yet two of
        # them generate it: the Schreier-Sims chain skips an atom it
        # already contains.
        order, contains = kernels.schreier_sims(atoms)
        # Count reflections of the parabolic, not just the atoms: e.g. the
        # Z3 x A1 parabolic of G(3,1,3) has 3 reflections but only 2 atoms.
        n_r = sum(1 for t in self.carrier.refl_perms if contains(t))
        s = n_r + 2
        disc = s * s - 4 * order
        root = math.isqrt(disc)
        if root * root != disc or (s - root) % 2:
            raise AssertionError(
                f"{self.name}: parabolic with {n_r} reflections and order "
                f"{order} has no integer degree pair")
        pair = ((s - root) // 2, (s + root) // 2)
        if pair[0] * pair[1] != order:
            raise AssertionError(f"{self.name}: bad parabolic degrees {pair}")
        return pair


def build_group(spec_or_name: GroupSpec | str,
                budget: Optional[int] = None) -> Group:
    """Construct a group from a GroupSpec or a group string."""
    if isinstance(spec_or_name, str):
        spec = parse_group(spec_or_name)
    else:
        spec = spec_or_name
    return Group(spec, budget=budget)
