"""Root systems for the exceptional types, built exactly from shipped Gram data.

Roots are coordinate vectors in the simple-root basis over Z[phi], each a
flat int tuple (a_0, b_0, a_1, b_1, ...) whose coordinate k is a_k +
b_k*phi, phi^2 = phi + 1; its products are written out on ints.  The
reflection in a root beta acts by s_beta(x) = x - w(x) beta, where the
linear form w(x) = 2(beta, x)/(beta, beta) has Z[phi] coefficients because
every root norm is a rational integer.  Closing the simple roots under the
simple reflections yields the full root system, and every group element is
carried as a permutation of the sorted root list.  Only the simple
reflections are computed root by root: the closure records how it first met
each root, beta = s_i(gamma), and s_beta = s_i s_gamma s_i is then two
composes.  This module alone knows the roots: each root's reflection
(`RootSystem.refl_index`) and the cover rule of NC(W, c) on them
(`RootSystem.lower_covers`), which the root carrier in `groups` hands on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ncfact import kernels
from ncfact.families import group_data

Vector = Tuple[int, ...]   # (a_0, b_0, a_1, b_1, ...): sum_k (a_k + b_k phi)


class RootSystem(NamedTuple):
    name: str
    rank: int
    gram: Tuple[Vector, ...]
    roots: Tuple[Vector, ...]               # sorted, deterministic indexing
    index: Dict[Vector, int]                # root -> position in roots
    reflection_perms: Tuple[bytes, ...]     # one per root pair, sorted
    simple_perms: Tuple[bytes, ...]         # reflections of the simple roots
    packed: Tuple[int, ...]                 # root i as one int, see LANE
    refl_index: Tuple[int, ...]             # root i -> its reflection's index

    @property
    def npoints(self) -> int:
        return len(self.roots)

    def codim(self, perm: bytes) -> int:
        """Codimension of the fixed space, i.e. rank(M - I), exactly.

        Row j is (M - I) applied to the j-th simple root; the rank of the
        transpose is the same.
        """
        images = kernels.unpack(perm)
        return _rank([
            [y - x for x, y in zip(e, self.roots[images[self.index[e]]])]
            for e in _units(self.rank)])

    def moved_roots(self, perm: bytes,
                    points: Optional[Sequence[int]] = None) -> List[int]:
        """The roots among points (all roots by default) that lie in
        Mov(perm) = Im(perm - 1); perm must permute points.

        The average of the powers of perm projects onto Fix(perm) with
        kernel Mov(perm), so a root lies in Mov(perm) iff the roots of its
        perm-cycle sum to zero; with packed roots a cycle sum is one int
        addition per root.
        """
        images = kernels.unpack(perm)
        packed = self.packed
        moved: List[int] = []
        seen = bytearray(len(images))
        for start in range(len(images)) if points is None else points:
            if seen[start]:
                continue
            cycle = []
            total = 0
            x = start
            while not seen[x]:
                seen[x] = 1
                cycle.append(x)
                total += packed[x]
                x = images[x]
            if not total:
                moved += cycle
        return moved

    def lower_covers(self, v: bytes, within: Optional[Sequence[int]] = None
                     ) -> Tuple[List[bytes], List[int]]:
        """The lower covers v*t of v in NC(W, c), in reflection order, and
        Mov(v) as roots, the within to pass for them: t =< v iff the root
        of t lies in Mov(v) (Brady-Watt 2002 with Carter 1972, Lemma 2).
        within, when given, is Mov(u) of some u above v: v =< u fixes
        Fix(u), so it permutes those roots, and Mov(v) lies among them."""
        moved = self.moved_roots(v, within)
        return [kernels.compose(v, self.reflection_perms[k])
                for k in sorted({self.refl_index[x] for x in moved})], moved


# A root packs into one int with a signed LANE-bit lane per int of its flat
# tuple.  A sum of at most npoints roots has lane values below 2^(LANE-1)
# in absolute value (asserted per root system), so it is zero iff every
# lane is.
LANE = 20


def _units(rank: int) -> Tuple[Vector, ...]:
    return tuple(tuple(int(k == 2 * j) for k in range(2 * rank))
                 for j in range(rank))


def _dot(u: Sequence[int], x: Sequence[int]) -> Tuple[int, int]:
    """sum_k u_k x_k of two flat vectors, as the pair (a, b)."""
    a = b = 0
    for k in range(0, len(u), 2):
        ua, ub = u[k], u[k + 1]
        if ua or ub:
            xa, xb = x[k], x[k + 1]
            a += ua * xa + ub * xb
            b += ua * xb + ub * (xa + xb)
    return a, b


def _scale(c: Sequence[int], x: Sequence[int]) -> List[int]:
    """The scalar c = (a, b) times the flat vector x."""
    a, b = c
    return [v for xa, xb in zip(x[::2], x[1::2])
            for v in (a * xa + b * xb, a * xb + b * (xa + xb))]


def _div_exact(x: Sequence[int], d: Sequence[int]) -> Vector:
    """x / d for a scalar d that is a nonzero rational integer and divides
    every entry of the flat vector x; ArithmeticError otherwise."""
    if d[1] or not d[0] or any(v % d[0] for v in x):
        raise ArithmeticError(f"{tuple(x)} / {tuple(d)} is not exact")
    return tuple(v // d[0] for v in x)


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Z[phi] of flat rows by fraction-free elimination.

    Z[phi] is an integral domain, so row <- lead*row - f*pivot keeps the
    rank while clearing the pivot's column without any division.
    """
    work = list(rows)
    rank = 0
    while work:
        top = work.pop()
        if any(top):
            k = next(k for k, c in enumerate(top) if c) & ~1  # first nonzero
            lead = top[k:k + 2]
            work = [[x - y for x, y in zip(_scale(lead, row),
                                           _scale(row[k:k + 2], top))]
                    if row[k] or row[k + 1] else row for row in work]
            rank += 1
    return rank


def _form(gram: Sequence[Vector], beta: Vector) -> Vector:
    """Coefficients of w(x) = 2(beta, x)/(beta, beta) in the simple-root basis."""
    # (beta, alpha_i) for each i, flat; gram symmetric
    g = [c for row in gram for c in _dot(row, beta)]
    return _div_exact([c + c for c in g], _dot(g, beta))


def _reflect(form: Vector, i: int, x: Vector) -> Vector:
    """s_i(x) = x - w_i(x) alpha_i, the reflection in the i-th simple root,
    whose form is form: only coordinate i moves."""
    a, b = _dot(form, x)
    if not (a or b):
        return x
    k = 2 * i
    return x[:k] + (x[k] - a, x[k + 1] - b) + x[k + 2:]


@lru_cache(maxsize=None)
def build_root_system(name: str) -> RootSystem:
    data = group_data()[name]
    # Q(phi) entries are [a, b] pairs for a + b*phi; Q entries are integers
    pair = tuple if data["field"] == "Q(phi)" else (lambda x: (x, 0))
    gram = tuple(tuple(c for x in row for c in pair(x))
                 for row in data["gram"])
    rank = len(gram)
    simples = _units(rank)
    simple_forms = [_form(gram, s) for s in simples]

    # parent[x] = (i, y): x = s_i(y), the first way the closure meets x
    parent: Dict[Vector, Tuple[int, Vector]] = {}

    def step(x: Vector) -> List[Vector]:
        out = [_reflect(form, i, x) for i, form in enumerate(simple_forms)]
        for i, y in enumerate(out):
            parent.setdefault(y, (i, x))
        return out

    roots = kernels.bfs(
        [*simples, *(tuple(-x for x in v) for v in simples)], step)
    root_list = tuple(sorted(roots))
    if len(root_list) != data["num_roots"]:
        raise AssertionError(
            f"{name}: root closure gave {len(root_list)} roots, "
            f"expected {data['num_roots']}")
    index = {r: i for i, r in enumerate(root_list)}
    npoints = len(root_list)

    simple_perms = tuple(
        kernels.pack([index[_reflect(form, i, r)] for r in root_list])
        for i, form in enumerate(simple_forms))
    # s_(s_i(y)) = s_i s_y s_i: in discovery order a root's parent comes
    # first, so each reflection is two composes from its parent's; the
    # seeds +/-alpha_i come first of all, with the simple reflections
    refl: Dict[Vector, bytes] = {}
    for k, x in enumerate(roots):
        if k < 2 * rank:
            refl[x] = simple_perms[k % rank]
        else:
            i, y = parent[x]
            refl[x] = kernels.compose(
                kernels.compose(simple_perms[i], refl[y]), simple_perms[i])
    # negation reverses the lexicographic order, so root i and root
    # npoints-1-i are a +/- pair with one reflection: the first half suffices
    perms = sorted({refl[beta] for beta in root_list[:npoints // 2]})
    if len(perms) != npoints // 2:
        raise AssertionError(f"{name}: expected {npoints // 2} reflections, "
                             f"got {len(perms)}")
    position = {t: k for k, t in enumerate(perms)}

    bound = max(abs(c) for r in root_list for c in r)
    if npoints * bound >= 1 << (LANE - 1):
        raise AssertionError(f"{name}: root coordinates overflow a lane")
    rs = RootSystem(name=name, rank=rank, gram=gram, roots=root_list,
                    index=index, reflection_perms=tuple(perms),
                    simple_perms=simple_perms,
                    refl_index=tuple(position[refl[r]] for r in root_list),
                    packed=tuple(sum(c << (k * LANE) for k, c in enumerate(r))
                                 for r in root_list))
    for p in simple_perms:
        if kernels.compose(p, p) != kernels.identity(npoints):
            raise AssertionError(f"{name}: simple reflection not an involution")
    return rs
