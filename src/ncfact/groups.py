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

from ncfact import kernels
from ncfact.errors import BudgetExceeded, NotInNC, NotLengthTwo, RankTooSmall
from ncfact.families import GroupSpec, parse_group
from ncfact.rootdata import build_root_system

DEFAULT_BUDGET = 10_000_000

ClassId = bytes


class Element(NamedTuple):
    """Group element: owning group's canonical name plus its permutation."""

    tag: str
    perm: bytes

    def serialize(self) -> bytes:
        return self.tag.encode("ascii") + b"|" + self.perm

    def __repr__(self) -> str:
        return f"Element({self.tag}, {self.perm.hex()})"


class _Carrier(NamedTuple):
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

    def codim(perm: bytes) -> int:
        first, _, _, total = cycle_sums(coords(perm))
        return n - sum(1 for x in range(n) if first[x] == x and not total[x])

    refl_perms = tuple(sorted(refls))
    # (t, i, j, a) for the transposition sending (i, 0) to (j, a), i < j;
    # (t, i, -1, a) for the diagonal reflection of color a at i
    shapes = []
    for t in refl_perms:
        tc = coords(t)
        i, *rest = [x for x in range(n) if tc[x] != x * d]
        shapes.append((t, i, rest[0] if rest else -1, tc[i] % d))

    # t =< v drops codim by one (Bessis, Annals 2015: l_R = codim on
    # [1, c]); the converse holds on real groups (Carter 1972, Lemma 2)
    # and is checked against the BFS oracle on the complex ones.  The drop
    # is read off the cycles of v: a diagonal t adds its color to one
    # cycle's sum, a transposition joins two cycles (sums add) or splits
    # one, and codim drops by one iff exactly one more cycle sums to 0.
    # Only the covers are composed on points.
    def lower_covers(v: bytes) -> List[bytes]:
        first, pos, pre, total = cycle_sums(coords(v))
        out = []
        for t, i, j, a in shapes:
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
                out.append(kernels.compose(v, t))
        return out

    return _Carrier(n * d, refl_perms, frozenset(refls), cox, codim,
                    tuple(parts), lower_covers)


def _carrier_root(name: str) -> _Carrier:
    rs = build_root_system(name)
    cox = functools.reduce(kernels.compose, rs.simple_perms)
    last = rs.npoints - 1
    # t negates exactly one +/- root pair, root i and root last - i;
    # refl_of[x] is the position in T of the reflection in root x
    refl_of = [0] * rs.npoints
    for k, t in enumerate(rs.reflection_perms):
        i = next(i for i, y in enumerate(kernels.unpack(t)) if y == last - i)
        refl_of[i] = refl_of[last - i] = k
    # within[u]: the moved roots of the upper cover that first listed u.
    # u =< v fixes Fix(v), so it permutes the roots in Mov(v), and Mov(u)
    # lies in Mov(v): only those roots need summing.  The walk lists every
    # element before it asks for its covers, and c starts from all roots.
    within: Dict[bytes, List[int]] = {}

    # t =< v iff the root of t lies in Mov(v) (Brady-Watt 2002 with
    # Carter 1972, Lemma 2), and v*t is then a lower cover of v
    def lower_covers(v: bytes) -> List[bytes]:
        moved = rs.moved_roots(v, within.pop(v, None))
        out = [kernels.compose(v, rs.reflection_perms[k])
               for k in sorted({refl_of[x] for x in moved})]
        for u in out:
            within.setdefault(u, moved)
        return out

    return _Carrier(rs.npoints, rs.reflection_perms,
                    frozenset(rs.reflection_perms), cox, rs.codim,
                    rs.simple_perms, lower_covers)


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
        self._lengths: Dict[bytes, int] = {}
        self._class_ids: Dict[bytes, ClassId] = {}
        self._nc = None  # NC(W, c), built by ncp.build_nc on first request

    def __repr__(self) -> str:
        return f"Group({self.name})"

    # -- carrier and basic arithmetic ------------------------------------

    @functools.cached_property
    def carrier(self) -> _Carrier:
        fam, d, n = self.spec.family, self.spec.d, self.spec.n
        len_t = self.num_reflections
        monomial = fam in ("B", "D", "I2", "GD1N", "GEEN")
        # n+1 points for A(n), n*d colored points, or the 2|T| roots
        points = n + 1 if fam == "A" else n * d if monomial else 2 * len_t
        self.check_budget("carrier", len_t * points)
        if fam == "A":
            car = _carrier_a(n)
        elif monomial:
            car = _carrier_monomial(d, n, fam in ("B", "GD1N"))
        else:
            car = _carrier_root(fam)
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

    def check_budget(self, phase: str, size: int) -> None:
        """BudgetExceeded when a phase's predicted size passes the budget."""
        if size > self.budget:
            raise BudgetExceeded(f"{self.name}: {phase} needs {size}, over "
                                 f"the budget {self.budget}")

    def length_table(self) -> Dict[bytes, int]:
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
        """Canonical id: serialization of the class-minimal element."""
        perm = self._own(w)
        cached = self._class_ids.get(perm)
        if cached is not None:
            return cached
        orbit = kernels.conj_orbit(perm, self.carrier.gens, self.budget)
        cid = Element(self.name, min(orbit)).serialize()
        for member in orbit:
            self._class_ids[member] = cid
        return cid

    def reflections_below(self, w: Element) -> List[bytes]:
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
                or perm == kernels.identity(car.npoints)):
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

    def parabolic_degrees_of_atoms(self, atoms: Sequence[bytes]
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
