"""Permutation kernels, in pure Python.

A permutation on npoints points is bytes of length npoints (one byte per
image) when npoints <= 256, else length 2*npoints (uint16 images, explicitly
little-endian so serializations are platform-independent); this module is
the only one that knows the format, and `pack`/`unpack` convert between it
and a sequence of images.  compose(a, b) returns the permutation
x -> a[b[x]], i.e. apply b first; this matches the convention
(v*w)(x) = v(w(x)) used for group products throughout.

Every closure in the package (roots, W, conjugacy orbits, NC(W, c) below c,
parabolic subgroups, Hurwitz orbits) is one call to `bfs`.
"""

from __future__ import annotations

import sys
from array import array
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence)

from ncfact.errors import BudgetExceeded

BACKEND = "pure"


def pack(images: Sequence[int], npoints: int) -> bytes:
    """The permutation x -> images[x], serialized."""
    if npoints <= 256:
        return bytes(images)
    arr = array("H", images)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def unpack(perm: bytes, npoints: int) -> Sequence[int]:
    """The images of a serialized permutation, indexable by point."""
    if npoints <= 256:
        return perm
    arr = array("H")
    arr.frombytes(perm)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def identity(npoints: int) -> bytes:
    return pack(range(npoints), npoints)


_PAD = bytes(range(256))


def compose(a: bytes, b: bytes, npoints: int) -> bytes:
    """Product a*b under 'apply b, then a'."""
    if npoints <= 256:
        # translate wants a 256-byte table; the padded tail is never hit
        return b.translate(a + _PAD[len(a):])
    aa, bb = unpack(a, npoints), unpack(b, npoints)
    return pack([aa[x] for x in bb], npoints)


def inverse(a: bytes, npoints: int) -> bytes:
    out = [0] * npoints
    for i, img in enumerate(unpack(a, npoints)):
        out[img] = i
    return pack(out, npoints)


def perm_order(a: bytes, npoints: int) -> int:
    ident = identity(npoints)
    k = 1
    cur = a
    while cur != ident:
        cur = compose(cur, a, npoints)
        k += 1
    return k


def bfs(seeds: Iterable[Hashable], step: Callable[[Hashable], Iterable],
        cap: Optional[int] = None) -> Dict[Hashable, int]:
    """Every node reachable from seeds along step, with its distance.

    Seeds get distance 0.  Insertion order of the returned dict is the
    discovery order: seeds first, then level by level, each node's
    successors in the order step yields them.  Raises BudgetExceeded when
    the dict would grow past cap nodes.
    """
    dist: Dict[Hashable, int] = dict.fromkeys(seeds, 0)
    if cap is not None and len(dist) > cap:
        raise BudgetExceeded(f"{len(dist)} seeds exceed cap {cap}")
    frontier = list(dist)
    d = 0
    while frontier:
        d += 1
        nxt: List[Hashable] = []
        for x in frontier:
            for y in step(x):
                if y not in dist:
                    if cap is not None and len(dist) >= cap:
                        raise BudgetExceeded(f"closure exceeds cap {cap}")
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def bfs_lengths(gens: Sequence[bytes], npoints: int) -> Dict[bytes, int]:
    """Word length over gens for every element they generate.

    The key set is the generated subgroup for any gens; the values are a
    length function only when gens is closed under inversion (true for
    reflection sets).  Insertion order is the BFS discovery order.
    """
    def step(w: bytes) -> List[bytes]:
        if npoints > 256:
            return [compose(w, g, npoints) for g in gens]
        tw = w + _PAD[len(w):]  # compose(w, g) is g.translate(tw)
        return [g.translate(tw) for g in gens]

    return bfs([identity(npoints)], step)


def conj_orbit(seed: bytes, gens: Sequence[bytes], npoints: int) -> List[bytes]:
    """Closure of seed under conjugation by gens, in BFS discovery order."""
    pairs = [(g, inverse(g, npoints)) for g in gens]
    return list(bfs([seed], lambda x: [
        compose(compose(g, x, npoints), ginv, npoints) for g, ginv in pairs]))


def leq_rows(perms: Sequence[bytes], ranks: Sequence[int],
             lengths: Dict[bytes, int], npoints: int) -> List[int]:
    """Bit rows of the absolute order: bit j of row i set iff e_i =< e_j.

    e_i =< e_j iff l(e_i) + l(e_i^-1 e_j) = l(e_j); only rank_i < rank_j
    pairs can be related, plus the diagonal.
    """
    k = len(perms)
    invs = [inverse(p, npoints) for p in perms]
    rows = [0] * k
    for i in range(k):
        row = 1 << i
        ri = ranks[i]
        inv_i = invs[i]
        for j in range(k):
            if ranks[j] > ri:
                if lengths[compose(inv_i, perms[j], npoints)] == ranks[j] - ri:
                    row |= 1 << j
        rows[i] = row
    return rows
