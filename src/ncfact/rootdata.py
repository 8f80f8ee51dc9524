"""Root systems for the exceptional types, built exactly from shipped Gram data.

Roots are coordinate vectors in the simple-root basis, over Z[phi].  The
reflection in a root beta acts by s_beta(x) = x - w(x) beta, where the linear
form w(x) = 2(beta, x)/(beta, beta) has Z[phi] coefficients because every
root norm is a rational integer.  Closing the simple roots under the simple
reflections yields the full root system, and every group element is carried
as a permutation of the sorted root list.  Only the simple reflections are
computed root by root: the closure records how it first met each root,
beta = s_i(gamma), and s_beta = s_i s_gamma s_i is then two composes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Optional, Sequence, Tuple

from ncfact import kernels
from ncfact.exact import GOLDEN_ONE, GOLDEN_ZERO, Golden, matrix_rank

Vector = Tuple[Golden, ...]


@dataclass(frozen=True)
class RootSystem:
    name: str
    rank: int
    gram: Tuple[Vector, ...]
    roots: Tuple[Vector, ...]               # sorted, deterministic indexing
    index: Dict[Vector, int]
    reflection_perms: Tuple[bytes, ...]     # one per root pair, sorted
    simple_perms: Tuple[bytes, ...]         # reflections of the simple roots
    packed: Tuple[int, ...]                 # root i as one int, see _pack

    @property
    def npoints(self) -> int:
        return len(self.roots)

    def codim(self, perm: bytes) -> int:
        """Codimension of the fixed space, i.e. rank(M - I), exactly.

        Row j is (M - I) applied to the j-th simple root; the rank of the
        transpose is the same.
        """
        images = kernels.unpack(perm)
        return matrix_rank([
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


# A root packs into one int with a signed LANE-bit lane per Z[phi]
# coefficient.  A sum of at most npoints roots has lane values below
# 2^(LANE-1) in absolute value (asserted per root system), so it is zero
# iff every lane is.
LANE = 20


def _pack(root: Vector) -> int:
    value = 0
    for k, x in enumerate(root):
        value += (x.a << (2 * k * LANE)) + (x.b << ((2 * k + 1) * LANE))
    return value


def _units(rank: int) -> Tuple[Vector, ...]:
    return tuple(tuple(GOLDEN_ONE if i == j else GOLDEN_ZERO
                       for i in range(rank)) for j in range(rank))


def _pair(u: Sequence[Golden], x: Vector) -> Golden:
    """sum_k u_k x_k."""
    acc = GOLDEN_ZERO
    for uk, xk in zip(u, x):
        if uk and xk:
            acc = acc + uk * xk
    return acc


def _form(gram: Sequence[Vector], beta: Vector) -> Vector:
    """Coefficients of w(x) = 2(beta, x)/(beta, beta) in the simple-root basis."""
    g = [_pair(row, beta) for row in gram]   # (beta, alpha_i); gram symmetric
    norm = _pair(g, beta)
    return tuple((gi + gi).div_exact(norm) for gi in g)


def _reflect(form: Vector, beta: Vector, x: Vector) -> Vector:
    coef = _pair(form, x)
    if not coef:
        return x
    return tuple(xi - coef * bi for xi, bi in zip(x, beta))


@lru_cache(maxsize=None)
def _raw_data() -> dict:
    text = resources.files("ncfact").joinpath("data/groups.json").read_text()
    return json.loads(text)


def exceptional_degrees(name: str) -> Tuple[int, ...]:
    return tuple(_raw_data()[name]["degrees"])


@lru_cache(maxsize=None)
def build_root_system(name: str) -> RootSystem:
    data = _raw_data()[name]
    # Q(phi) entries are [a, b] pairs for a + b*phi; Q entries are integers
    entry = (lambda ab: Golden(*ab)) if data["field"] == "Q(phi)" else Golden
    gram = tuple(tuple(entry(x) for x in row) for row in data["gram"])
    rank = len(gram)
    simples = _units(rank)
    simple_forms = [_form(gram, s) for s in simples]

    # parent[x] = (i, y): x = s_i(y), the first way the closure meets x
    parent: Dict[Vector, Tuple[int, Vector]] = {}

    def step(x: Vector) -> List[Vector]:
        out = [_reflect(form, s, x) for form, s in zip(simple_forms, simples)]
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
        kernels.pack([index[_reflect(form, s, r)] for r in root_list])
        for form, s in zip(simple_forms, simples))
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
    # negation reverses the (a, b)-lexicographic order, so root i and root
    # npoints-1-i are a +/- pair with one reflection: the first half suffices
    perms = sorted({refl[beta] for beta in root_list[:npoints // 2]})
    if len(perms) != npoints // 2:
        raise AssertionError(f"{name}: expected {npoints // 2} reflections, "
                             f"got {len(perms)}")

    bound = max(abs(c) for r in root_list for x in r for c in (x.a, x.b))
    if npoints * bound >= 1 << (LANE - 1):
        raise AssertionError(f"{name}: root coordinates overflow a lane")
    rs = RootSystem(name=name, rank=rank, gram=gram, roots=root_list,
                    index=index, reflection_perms=tuple(perms),
                    simple_perms=simple_perms,
                    packed=tuple(_pack(r) for r in root_list))
    for p in simple_perms:
        if kernels.compose(p, p) != kernels.identity(npoints):
            raise AssertionError(f"{name}: simple reflection not an involution")
    return rs
