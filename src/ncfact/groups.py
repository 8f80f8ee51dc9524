"""Well-generated reflection groups with exact element arithmetic.

Every group acts faithfully on a finite point set and an element is the
serialized permutation it induces: A(n) permutes n+1 points; the monomial
families G(d,1,n)/G(e,e,n) permute n*d colored points (coordinate i, color k)
-> index i*d + k, where w(v_j) = zeta^{c_j} v_{sigma(j)} sends (j, k) to
(sigma(j), k + c_j mod d); the exceptional types permute their root systems.
Products follow (v*w)(x) = v(w(x)), so multiply(a, b) applies b first.

Enumeration-scale work (length tables, conjugacy orbits) is budget-gated:
with no explicit budget, groups over 10^7 elements and the E7/E8 families
raise BudgetExceeded; an explicit budget is compared against |W| only.
"""

from __future__ import annotations

import math
import threading
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
    npoints: int
    refl_perms: Tuple[bytes, ...]
    refl_set: frozenset
    coxeter: bytes
    codim: Callable[[bytes], int]


def _carrier_a(n: int) -> _Carrier:
    npts = n + 1
    refls = []
    for i in range(npts):
        for j in range(i + 1, npts):
            img = list(range(npts))
            img[i], img[j] = j, i
            refls.append(kernels.pack(img, npts))
    cox = kernels.pack([(i + 1) % npts for i in range(npts)], npts)

    def codim(perm: bytes) -> int:
        images = kernels.unpack(perm, npts)
        seen = bytearray(npts)
        cycles = 0
        for start in range(npts):
            if not seen[start]:
                cycles += 1
                x = start
                while not seen[x]:
                    seen[x] = 1
                    x = images[x]
        return npts - cycles

    return _Carrier(npts, tuple(sorted(refls)), frozenset(refls), cox, codim)


def _carrier_monomial(spec: GroupSpec) -> _Carrier:
    d = spec.d
    n = spec.n
    npts = n * d
    with_diagonal = spec.family in ("B", "GD1N")

    def mono(sigma: Sequence[int], colors: Sequence[int]) -> bytes:
        img = [0] * npts
        for i in range(n):
            base = sigma[i] * d
            ci = colors[i]
            for k in range(d):
                img[i * d + k] = base + (k + ci) % d
        return kernels.pack(img, npts)

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
        sigma = [(i + 1) % n for i in range(n)]
        colors = [0] * n
        colors[n - 1] = 1
        cox = mono(sigma, colors)
    else:
        parts = [transp(0, 1, 0), transp(0, 1, 1)]
        parts += [transp(k, k + 1, 0) for k in range(1, n - 1)]
        cox = parts[0]
        for p in parts[1:]:
            cox = kernels.compose(cox, p, npts)

    def codim(perm: bytes) -> int:
        images = kernels.unpack(perm, npts)
        fixed = 0
        seen = bytearray(n)
        for start in range(n):
            if not seen[start]:
                total = 0
                x = start
                while not seen[x]:
                    seen[x] = 1
                    img = images[x * d]
                    total += img % d
                    x = img // d
                if total % d == 0:
                    fixed += 1
        return n - fixed

    return _Carrier(npts, tuple(sorted(refls)), frozenset(refls), cox, codim)


def _carrier_root(name: str) -> _Carrier:
    rs = build_root_system(name)
    cox = kernels.identity(rs.npoints)
    for p in rs.simple_perms:
        cox = kernels.compose(cox, p, rs.npoints)
    return _Carrier(rs.npoints, rs.reflection_perms,
                    frozenset(rs.reflection_perms), cox, rs.codim)


def _closure(gens: Sequence[bytes], npoints: int) -> set:
    """The subgroup generated by gens, as a set of permutations."""
    ident = kernels.identity(npoints)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = kernels.compose(x, g, npoints)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


class Group:
    """A well-generated reflection group; immutable after construction.

    Carriers (reflection permutations, Coxeter element) build lazily on first
    access; length tables build lazily behind the enumeration budget.
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
        self._carrier: Optional[_Carrier] = None
        self._lengths: Optional[Dict[bytes, int]] = None
        self._lock = threading.Lock()
        self._class_ids: Dict[bytes, ClassId] = {}
        self._parabolics: Dict[bytes, Tuple[Tuple[int, int], bool]] = {}

    def __repr__(self) -> str:
        return f"Group({self.name})"

    # -- carrier and basic arithmetic ------------------------------------

    def _ensure(self) -> _Carrier:
        car = self._carrier
        if car is not None:
            return car
        with self._lock:
            if self._carrier is None:
                fam = self.spec.family
                if fam == "A":
                    car = _carrier_a(self.spec.n)
                elif fam in ("B", "D", "I2", "GD1N", "GEEN"):
                    car = _carrier_monomial(self.spec)
                else:
                    car = _carrier_root(fam)
                if len(car.refl_perms) != self.num_reflections:
                    raise AssertionError(
                        f"{self.name}: built {len(car.refl_perms)} "
                        f"reflections, degrees say {self.num_reflections}")
                if kernels.perm_order(car.coxeter, car.npoints) != self.h:
                    raise AssertionError(
                        f"{self.name}: Coxeter element order is not h={self.h}")
                if car.codim(car.coxeter) != self.rank:
                    raise AssertionError(
                        f"{self.name}: Coxeter element has a fixed vector")
                self._carrier = car
            return self._carrier

    @property
    def carrier(self) -> _Carrier:
        return self._ensure()

    @property
    def npoints(self) -> int:
        return self._ensure().npoints

    @property
    def identity(self) -> Element:
        return Element(self.name, kernels.identity(self._ensure().npoints))

    @property
    def reflections(self) -> Tuple[Element, ...]:
        return tuple(Element(self.name, p)
                     for p in self._ensure().refl_perms)

    @property
    def coxeter(self) -> Element:
        return Element(self.name, self._ensure().coxeter)

    def _own(self, x: Element) -> bytes:
        if x.tag != self.name:
            raise ValueError(f"element of {x.tag} used with group {self.name}")
        return x.perm

    def multiply(self, a: Element, b: Element) -> Element:
        """Product a*b, i.e. apply b first."""
        car = self._ensure()
        return Element(self.name, kernels.compose(
            self._own(a), self._own(b), car.npoints))

    def inverse(self, a: Element) -> Element:
        car = self._ensure()
        return Element(self.name, kernels.inverse(self._own(a), car.npoints))

    def element_order(self, a: Element) -> int:
        car = self._ensure()
        return kernels.perm_order(self._own(a), car.npoints)

    def is_reflection(self, a: Element) -> bool:
        return self._own(a) in self._ensure().refl_set

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
        table = self._lengths
        if table is not None:
            return table
        self.check_enumeration_budget()
        car = self._ensure()
        with self._lock:
            if self._lengths is None:
                table = kernels.bfs_lengths(car.refl_perms, car.npoints)
                if len(table) != self.order:
                    raise AssertionError(
                        f"{self.name}: generated {len(table)} elements, "
                        f"degrees say {self.order}")
                self._lengths = table
            return self._lengths

    def elements(self) -> Iterator[Element]:
        """All elements in deterministic BFS-by-length order."""
        for perm in self.length_table():
            yield Element(self.name, perm)

    def reflection_length(self, w: Element) -> int:
        return self.length_table()[self._own(w)]

    def fixed_space_codim(self, w: Element) -> int:
        car = self._ensure()
        return car.codim(self._own(w))

    def absolute_leq(self, u: Element, v: Element) -> bool:
        """u =< v in absolute order: l(u) + l(u^-1 v) = l(v)."""
        table = self.length_table()
        car = self._ensure()
        up, vp = self._own(u), self._own(v)
        quot = kernels.compose(kernels.inverse(up, car.npoints), vp,
                               car.npoints)
        return table[up] + table[quot] == table[vp]

    def conjugacy_class_id(self, w: Element) -> ClassId:
        """Canonical id: serialization of the class-minimal element."""
        perm = self._own(w)
        cached = self._class_ids.get(perm)
        if cached is not None:
            return cached
        self.check_enumeration_budget()
        car = self._ensure()
        orbit = kernels.conj_orbit(perm, car.refl_perms, car.npoints)
        cid = Element(self.name, min(orbit)).serialize()
        for member in orbit:
            self._class_ids[member] = cid
        return cid

    def parabolic_degrees(self, w: Element) -> Tuple[int, int]:
        """Invariant degrees (d1', h') of the rank-2 parabolic fixing Fix(w).

        The parabolic is generated by the reflections below w; its order N
        and reflection count N_r determine the degrees via d1'+d2' = N_r + 2
        and d1'*d2' = N.
        """
        if self.rank < 2:
            raise RankTooSmall(f"{self.name} has no length-2 elements")
        perm = self._own(w)
        cached = self._parabolics.get(perm)
        if cached is not None:
            return cached[0]
        if self.reflection_length(w) != 2:
            raise NotLengthTwo(f"element has length "
                               f"{self.reflection_length(w)}, need 2")
        if not self.absolute_leq(w, self.coxeter):
            raise NotInNC("element is not below the Coxeter element")
        car = self._ensure()
        np_ = car.npoints
        atoms = [r for r in car.refl_perms
                 if kernels.compose(kernels.inverse(r, np_), perm, np_)
                 in car.refl_set]
        # A dihedral parabolic has as many atoms as reflections, yet two of
        # them generate it: an atom becomes a generator only when the
        # closure so far misses it.
        gens: List[bytes] = []
        seen = {kernels.identity(np_)}
        for a in atoms:
            if a not in seen:
                gens.append(a)
                seen = _closure(gens, np_)
        # Count reflections of the closure, not just the atoms: e.g. the
        # Z3 x A1 parabolic of G(3,1,3) has 3 reflections but only 2 atoms.
        refls = [x for x in seen if x in car.refl_set]
        n_r = len(refls)
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
        reducible = all(
            kernels.compose(a, b, np_) == kernels.compose(b, a, np_)
            for k, a in enumerate(refls) for b in refls[k + 1:])
        self._parabolics[perm] = (pair, reducible)
        return pair

    def parabolic_reducible(self, w: Element) -> bool:
        """True when the rank-2 parabolic fixing Fix(w) splits as a product
        of two rank-1 groups (equivalently: all its reflections commute)."""
        perm = self._own(w)
        if perm not in self._parabolics:
            self.parabolic_degrees(w)
        return self._parabolics[perm][1]


def build_group(spec_or_name: GroupSpec | str,
                budget: Optional[int] = None) -> Group:
    """Construct a group from a GroupSpec or a group string."""
    if isinstance(spec_or_name, str):
        spec = parse_group(spec_or_name)
    else:
        spec = spec_or_name
    return Group(spec, budget=budget)
