"""Permutation kernels, in pure Python.

A permutation on npoints points is bytes of length npoints (one byte per
image) when npoints <= 256, else length 2*npoints (uint16 images, explicitly
little-endian so serializations are platform-independent); this module is
the only one that knows the format, and `pack`/`unpack` convert between it
and a sequence of images.  compose(a, b) returns the permutation
x -> a[b[x]], i.e. apply b first; this matches the convention
(v*w)(x) = v(w(x)) used for group products throughout.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Sequence

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


def bfs_lengths(gens: Sequence[bytes], npoints: int) -> Dict[bytes, int]:
    """Word length over gens for every element they generate.

    Valid as a length function only when the generator set is closed under
    inversion (true for reflection sets).  Insertion order of the returned
    dict is the deterministic BFS discovery order.
    """
    ident = identity(npoints)
    wide = npoints > 256
    lengths: Dict[bytes, int] = {ident: 0}
    frontier: List[bytes] = [ident]
    dist = 0
    while frontier:
        dist += 1
        nxt: List[bytes] = []
        for w in frontier:
            if wide:
                products = [compose(w, g, npoints) for g in gens]
            else:
                # compose(w, g) is g.translate over w's padded table
                tw = w + _PAD[len(w):]
                products = [g.translate(tw) for g in gens]
            for x in products:
                if x not in lengths:
                    lengths[x] = dist
                    nxt.append(x)
        frontier = nxt
    return lengths


def conj_orbit(seed: bytes, gens: Sequence[bytes], npoints: int) -> List[bytes]:
    """Closure of seed under conjugation by gens, in BFS discovery order."""
    invs = [inverse(g, npoints) for g in gens]
    seen = {seed: None}
    frontier = [seed]
    while frontier:
        nxt: List[bytes] = []
        for x in frontier:
            for g, ginv in zip(gens, invs):
                y = compose(compose(g, x, npoints), ginv, npoints)
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
        frontier = nxt
    return list(seen)


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
