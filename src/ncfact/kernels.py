"""Permutation kernels, in pure Python.

A permutation on npoints points is bytes of length npoints (one byte per
image) when npoints <= 256, else length 2*npoints (uint16 images in struct
format "<H": little-endian, so serializations are platform-independent).
A 1-byte permutation is at most 256 bytes long and a 2-byte one at least
514, so a permutation carries its own width: every kernel reads it from its
input, and only `identity` is told how many points to use.  This module is the
only one that knows the format; `pack`/`unpack` convert between it and a
sequence of images.  compose(a, b) returns the permutation
x -> a[b[x]], i.e. apply b first; this matches the convention
(v*w)(x) = v(w(x)) used for group products throughout.

Every closure in the package (roots, W, conjugacy orbits, NC(W, c) below c,
parabolic subgroups, Hurwitz orbits) is one call to `bfs`.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence)

from ncfact.errors import BudgetExceeded

BACKEND = "pure"


def pack(images: Sequence[int]) -> bytes:
    """The permutation x -> images[x], serialized."""
    if len(images) <= 256:
        return bytes(images)
    return struct.pack(f"<{len(images)}H", *images)


def unpack(perm: bytes) -> Sequence[int]:
    """The images of a serialized permutation, indexable by point."""
    if len(perm) <= 256:
        return perm
    return struct.unpack(f"<{len(perm) // 2}H", perm)


def identity(npoints: int) -> bytes:
    return pack(range(npoints))


_PAD = bytes(range(256))


def compose(a: bytes, b: bytes) -> bytes:
    """Product a*b under 'apply b, then a'."""
    if len(b) <= 256:
        # translate wants a 256-byte table; the padded tail is never hit
        return b.translate(a + _PAD[len(a):])
    return pack(itemgetter(*unpack(b))(unpack(a)))


def inverse(a: bytes) -> bytes:
    images = unpack(a)
    out = [0] * len(images)
    for i, img in enumerate(images):
        out[img] = i
    return pack(out)


def perm_order(a: bytes) -> int:
    ident = identity(len(unpack(a)))
    k = 1
    cur = a
    while cur != ident:
        cur = compose(cur, a)
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


def bfs_lengths(gens: Sequence[bytes]) -> Dict[bytes, int]:
    """Word length over gens for every element they generate.

    gens must be non-empty.  The key set is the generated subgroup for any
    gens; the values are a length function only when gens is closed under
    inversion (true for reflection sets).  Insertion order is the BFS
    discovery order.
    """
    def step(w: bytes) -> List[bytes]:
        if len(w) > 256:
            return [compose(w, g) for g in gens]
        tw = w + _PAD[len(w):]  # compose(w, g) is g.translate(tw)
        return [g.translate(tw) for g in gens]

    return bfs([identity(len(unpack(gens[0])))], step)


def conj_orbit(seed: bytes, gens: Sequence[bytes]) -> List[bytes]:
    """Closure of seed under conjugation by gens, in BFS discovery order."""
    pairs = [(g, inverse(g)) for g in gens]
    return list(bfs([seed], lambda x: [
        compose(compose(g, x), ginv) for g, ginv in pairs]))


def leq_rows(perms: Sequence[bytes], ranks: Sequence[int],
             lengths: Dict[bytes, int]) -> List[int]:
    """Bit rows of the absolute order: bit j of row i set iff e_i =< e_j.

    e_i =< e_j iff l(e_i) + l(e_i^-1 e_j) = l(e_j); only rank_i < rank_j
    pairs can be related, plus the diagonal.
    """
    k = len(perms)
    invs = [inverse(p) for p in perms]
    rows = [0] * k
    for i in range(k):
        row = 1 << i
        ri = ranks[i]
        inv_i = invs[i]
        for j in range(k):
            if ranks[j] > ri:
                if lengths[compose(inv_i, perms[j])] == ranks[j] - ri:
                    row |= 1 << j
        rows[i] = row
    return rows
