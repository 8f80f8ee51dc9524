"""Well-generated reflection groups with exact element arithmetic.

Every group acts faithfully on a finite point set and an element is the
serialized permutation it induces: the monomial families G(d,1,n)/G(e,e,n)
permute n*d colored points (coordinate i, color k) -> index i*d + k, where
w(v_j) = zeta^{c_j} v_{sigma(j)} sends (j, k) to (sigma(j), k + c_j mod d);
A(n) = G(1,1,n+1) is the one-color case, permuting n+1 points; the
exceptional types permute their root systems.  A permutation carries its
own width, so nothing here passes a point count to `kernels` except
`identity`.  Products follow (v*w)(x) = v(w(x)), so multiply(a, b) applies
b first.

The carrier also gives a small generating set (for conjugacy orbits and
the Schreier-Sims order) and the lower covers of an element of NC(W, c), so
nothing on the verifier's path lists W; the length table (a BFS over all of
W) serves the absolute-order queries on arbitrary elements and the test
oracles.  Enumeration-scale work (NC(W, c), length tables, conjugacy
orbits) is budget-gated: with no explicit budget, groups over 10^7 elements
and the E7/E8 families raise BudgetExceeded; an explicit budget is compared
against |W| only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ncfact import kernels
from ncfact.errors import BudgetExceeded, NotInNC, NotLengthTwo, RankTooSmall
from ncfact.families import GroupSpec, parse_group
from ncfact.rootdata import build_root_system

DEFAULT_BUDGET = 10_000_000

ClassId = bytes


@dataclass(frozen=True, slots=True)
class Element:
    """Group element: owning group's canonical name plus its permutation."""

    tag: str
    perm: bytes

    def serialize(self) -> bytes:
        return self.tag.encode("ascii") + b"|" + self.perm

    def __repr__(self) -> str:
        return f"Element({self.tag}, {self.perm.hex()})"


@dataclass
class _Carrier:
    """A faithful permutation action of W.

    gens generate W (checked by the verifier's group-order, a Schreier-Sims
    order over them); lower_covers(v), for v in NC(W, c), lists the v*t
    (t in T) with t =< v, i.e. the elements v covers in absolute order.
    """

    npoints: int
    refl_perms: Tuple[bytes, ...]
    refl_set: frozenset
    coxeter: bytes
    codim: Callable[[bytes], int]
    gens: Tuple[bytes, ...]
    lower_covers: Callable[[bytes], List[bytes]]


def _carrier_a(n: int) -> _Carrier:
    return _carrier_monomial(1, n + 1, True)


def _carrier_monomial(d: int, n: int, with_diagonal: bool) -> _Carrier:
    """G(d,1,n) with the diagonal reflections, G(d,d,n) without them."""
    def mono(sigma: Sequence[int], colors: Sequence[int]) -> bytes:
        img = [0] * (n * d)
        for i in range(n):
            base = sigma[i] * d
            ci = colors[i]
            for k in range(d):
                img[i * d + k] = base + (k + ci) % d
        return kernels.pack(img)

    def transp(i: int, j: int, a: int) -> bytes:
        sigma = list(range(n))
        sigma[i], sigma[j] = j, i
        colors = [0] * n
        colors[i] = a % d
        colors[j] = (-a) % d
        return mono(sigma, colors)

    refls = []
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(d):
                refls.append(transp(i, j, a))
    if with_diagonal:
        for i in range(n):
            for k in range(1, d):
                colors = [0] * n
                colors[i] = k
                refls.append(mono(range(n), colors))

    if with_diagonal:
        # c = diag(zeta, 1, ..) * (0 1 .. n-1): coordinate i -> i+1, and
        # n-1 -> 0 times zeta; the cycle is s_0 s_1 .. s_(n-2)
        parts = [transp(k, k + 1, 0) for k in range(n - 1)]
        if d > 1:
            parts.insert(0, mono(range(n), [1] + [0] * (n - 1)))
    else:
        parts = [transp(0, 1, 0), transp(0, 1, 1)]
        parts += [transp(k, k + 1, 0) for k in range(1, n - 1)]
    cox = functools.reduce(kernels.compose, parts)

    # An element on coordinates: entry i is sigma(i)*d + c_i, the image of
    # point (i, 0).  codim is n minus the number of sigma-cycles whose
    # colors sum to 0 mod d.
    def coords(perm: bytes) -> Sequence[int]:
        return kernels.unpack(perm)[::d]

    def codim_coords(img: Sequence[int]) -> int:
        fixed = 0
        seen = bytearray(n)
        for start in range(n):
            if not seen[start]:
                total = 0
                x = start
                while not seen[x]:
                    seen[x] = 1
                    total += img[x] % d
                    x = img[x] // d
                if total % d == 0:
                    fixed += 1
        return n - fixed

    def codim(perm: bytes) -> int:
        return codim_coords(coords(perm))

    refl_perms = tuple(sorted(refls))
    refl_coords = [coords(t) for t in refl_perms]

    def times(vc: Sequence[int], tc: Sequence[int]) -> List[int]:
        """Coordinates of v*t: t sends (i, 0) to y = (j, c), then v sends
        j on and adds its own color at j."""
        out = []
        for y in tc:
            w = vc[y // d]
            out.append(w - w % d + (w + y) % d)
        return out

    # t =< v drops codim by one (Bessis, Annals 2015: l_R = codim on
    # [1, c]); the converse holds on real groups (Carter 1972, Lemma 2)
    # and is checked against the BFS oracle on the complex ones.  Only the
    # covers are composed on points.
    def lower_covers(v: bytes) -> List[bytes]:
        vc = coords(v)
        below = codim_coords(vc) - 1
        return [kernels.compose(v, t)
                for t, tc in zip(refl_perms, refl_coords)
                if codim_coords(times(vc, tc)) == below]

    return _Carrier(n * d, refl_perms, frozenset(refls), cox, codim,
                    tuple(parts), lower_covers)


def _carrier_root(name: str) -> _Carrier:
    rs = build_root_system(name)
    cox = functools.reduce(kernels.compose, rs.simple_perms)
    last = rs.npoints - 1
    # t negates exactly one +/- root pair: root i and root last - i
    roots = [next(i for i, y in enumerate(kernels.unpack(t)) if y == last - i)
             for t in rs.reflection_perms]

    # t =< v iff the root of t lies in Mov(v) (Brady-Watt 2002 with
    # Carter 1972, Lemma 2), and v*t is then a lower cover of v
    def lower_covers(v: bytes) -> List[bytes]:
        moved = rs.moved_roots(v)
        return [kernels.compose(v, t)
                for t, i in zip(rs.reflection_perms, roots) if moved[i]]

    return _Carrier(rs.npoints, rs.reflection_perms,
                    frozenset(rs.reflection_perms), cox, rs.codim,
                    rs.simple_perms, lower_covers)


class Group:
    """A well-generated reflection group; immutable after construction.

    The carrier (reflection permutations, Coxeter element) builds lazily on
    first access; length tables build lazily behind the enumeration budget.
    """

    def __init__(self, spec: GroupSpec, budget: Optional[int] = None):
        self.spec = spec
        self.name = spec.name
        self.rank = spec.rank
        self.degrees = spec.degrees
        self.h = spec.h
        self.order = spec.order
        self.num_reflections = spec.num_reflections
        self.budget = budget
        # empty until length_table() builds it, which NC(W, c) and the
        # verifier never do; a dict either way, as perfbench/tracer.py
        # takes its len after every build_nc
        self._lengths: Dict[bytes, int] = {}
        self._class_ids: Dict[bytes, ClassId] = {}

    def __repr__(self) -> str:
        return f"Group({self.name})"

    # -- carrier and basic arithmetic ------------------------------------

    @functools.cached_property
    def carrier(self) -> _Carrier:
        fam = self.spec.family
        if fam == "A":
            car = _carrier_a(self.spec.n)
        elif fam in ("B", "D", "I2", "GD1N", "GEEN"):
            car = _carrier_monomial(self.spec.d, self.spec.n,
                                    fam in ("B", "GD1N"))
        else:
            car = _carrier_root(fam)
        if len(car.refl_perms) != self.num_reflections:
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
        return Element(self.name, kernels.identity(self.carrier.npoints))

    @property
    def reflections(self) -> Tuple[Element, ...]:
        return tuple(Element(self.name, p) for p in self.carrier.refl_perms)

    @property
    def coxeter(self) -> Element:
        return Element(self.name, self.carrier.coxeter)

    def _own(self, x: Element) -> bytes:
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

    def check_enumeration_budget(self) -> None:
        """Raise BudgetExceeded when W may not be enumerated."""
        if self.budget is None:
            if self.spec.family in ("E7", "E8"):
                raise BudgetExceeded(
                    f"{self.name} enumeration needs an explicit budget "
                    f"(order {self.order})")
            if self.order > DEFAULT_BUDGET:
                raise BudgetExceeded(
                    f"|{self.name}| = {self.order} exceeds the default "
                    f"budget {DEFAULT_BUDGET}")
        elif self.order > self.budget:
            raise BudgetExceeded(
                f"|{self.name}| = {self.order} exceeds the budget "
                f"{self.budget}")

    def length_table(self) -> Dict[bytes, int]:
        """Reflection length of every element, keyed by permutation."""
        if self._lengths:
            return self._lengths
        self.check_enumeration_budget()
        table = kernels.bfs_lengths(self.carrier.refl_perms)
        if len(table) != self.order:
            raise AssertionError(
                f"{self.name}: generated {len(table)} elements, "
                f"degrees say {self.order}")
        self._lengths = table
        return table

    def elements(self) -> Iterator[Element]:
        """All elements in deterministic BFS-by-length order."""
        for perm in self.length_table():
            yield Element(self.name, perm)

    def reflection_length(self, w: Element) -> int:
        return self.length_table()[self._own(w)]

    def fixed_space_codim(self, w: Element) -> int:
        return self.carrier.codim(self._own(w))

    def absolute_leq(self, u: Element, v: Element) -> bool:
        """u =< v in absolute order: l(u) + l(u^-1 v) = l(v)."""
        table = self.length_table()
        up, vp = self._own(u), self._own(v)
        quot = kernels.compose(kernels.inverse(up), vp)
        return table[up] + table[quot] == table[vp]

    def conjugacy_class_id(self, w: Element) -> ClassId:
        """Canonical id: serialization of the class-minimal element."""
        perm = self._own(w)
        cached = self._class_ids.get(perm)
        if cached is not None:
            return cached
        self.check_enumeration_budget()
        orbit = kernels.conj_orbit(perm, self.carrier.gens)
        cid = Element(self.name, min(orbit)).serialize()
        for member in orbit:
            self._class_ids[member] = cid
        return cid

    def reflections_below(self, w: Element) -> List[bytes]:
        """The reflections t =< w (its atoms), in T order, for l(w) = 2:
        t =< w iff t^-1 w, or equally its inverse w^-1 t, is in T."""
        car = self.carrier
        winv = kernels.inverse(self._own(w))
        return [t for t in car.refl_perms
                if kernels.compose(winv, t) in car.refl_set]

    def parabolic_degrees(self, w: Element) -> Tuple[int, int]:
        """Invariant degrees (d1', h') of the rank-2 parabolic fixing Fix(w).

        The parabolic is generated by the reflections below w; its order N
        and reflection count N_r determine the degrees via d1'+d2' = N_r + 2
        and d1'*d2' = N.
        """
        if self.rank < 2:
            raise RankTooSmall(f"{self.name} has no length-2 elements")
        if self.reflection_length(w) != 2:
            raise NotLengthTwo(f"element has length "
                               f"{self.reflection_length(w)}, need 2")
        if not self.absolute_leq(w, self.coxeter):
            raise NotInNC("element is not below the Coxeter element")
        return self.parabolic_degrees_of_atoms(self.reflections_below(w))

    def parabolic_degrees_of_atoms(self, atoms: Sequence[bytes]
                                   ) -> Tuple[int, int]:
        """Degrees (d1', h') of the rank-2 parabolic the atoms of a rank-2
        element of NC generate; parabolic_degrees without its checks."""
        # A dihedral parabolic has as many atoms as reflections, yet two of
        # them generate it: an atom becomes a generator only when the
        # closure so far misses it.
        gens: List[bytes] = []
        seen: Dict[bytes, int] = {}
        for a in atoms:
            if a not in seen:
                gens.append(a)
                seen = kernels.bfs_lengths(gens)
        # Count reflections of the closure, not just the atoms: e.g. the
        # Z3 x A1 parabolic of G(3,1,3) has 3 reflections but only 2 atoms.
        n_r = sum(1 for x in seen if x in self.carrier.refl_set)
        order = len(seen)
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
