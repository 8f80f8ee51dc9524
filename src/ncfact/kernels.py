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

Every closure in the package (roots, conjugacy orbits, NC(W, c) below c,
Hurwitz orbits) is one call to `bfs`; the order of the group a set of
permutations generates, and membership in it, come from `schreier_sims`,
which never lists the group.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

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
    if len(a) <= 256:
        # the table sends a[i] to i; its tail past len(a) is never read
        return bytes.maketrans(a, _PAD[:len(a)])[:len(a)]
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


def conj_orbit(seed: bytes, gens: Sequence[bytes],
               cap: Optional[int] = None) -> List[bytes]:
    """Closure of seed under conjugation by gens, in BFS discovery order;
    BudgetExceeded past cap elements."""
    pairs = [(g, inverse(g)) for g in gens]
    return list(bfs([seed], lambda x: [
        compose(compose(g, x), ginv) for g, ginv in pairs], cap))


def schreier_sims(gens: Sequence[bytes]
                  ) -> Tuple[int, Callable[[bytes], bool]]:
    """Order of the group gens generate, and its membership test, by
    deterministic Schreier-Sims.

    Builds a base b_0, b_1, ... and a strong generating set level by level
    (Seress, Permutation Group Algorithms, 2003, sec. 4.2): level l holds
    the strong generators fixing b_0 .. b_(l-1) and a transversal of their
    orbit of b_l.  A Schreier generator of level i that does not sift
    through the levels below i is itself a strong generator there.  The
    order is the product of the orbit lengths, and x is a member iff it
    sifts to the identity through every level; gens must be non-empty.
    The chain grows one generator at a time, and a generator it already
    contains adds nothing.
    """
    ident = identity(len(unpack(gens[0])))
    base: List[int] = []
    strong: List[List[bytes]] = []
    # trans[l][x] = (u, u^-1) with u(b_l) = x, for x in the orbit of b_l
    trans: List[Dict[int, Tuple[bytes, bytes]]] = []
    # checked[l]: the (x, k) whose Schreier generator, from trans[l][x] and
    # strong[l][k], sifts through; a level only gains representatives, so a
    # sift that passed once passes for good
    checked: List[set] = []

    def add_level(g: bytes) -> None:
        base.append(next(x for x, y in enumerate(unpack(g)) if x != y))
        strong.append([])
        trans.append({})
        checked.append(set())

    def grow(level: int) -> None:
        """Close the transversal of a level under its strong generators;
        the coset representatives found so far stay valid."""
        tree = trans[level]
        tree.setdefault(base[level], (ident, ident))
        queue = list(tree)
        images = [(s, unpack(s)) for s in strong[level]]
        for x in queue:
            u = tree[x][0]
            for s, s_images in images:
                y = s_images[x]
                if y not in tree:
                    v = compose(s, u)
                    tree[y] = (v, inverse(v))
                    queue.append(y)

    def sift(g: bytes, start: int) -> Tuple[bytes, int]:
        """Strip g through levels start..; the residue and the level it
        fails at (len(base) when it passes them all)."""
        for level in range(start, len(base)):
            coset = trans[level].get(unpack(g)[base[level]])
            if coset is None:
                return g, level
            g = compose(coset[1], g)
        return g, len(base)

    def failing_schreier_generator(i: int) -> Optional[Tuple[bytes, int]]:
        done = checked[i]
        for x, (u, _) in trans[i].items():
            for k, s in enumerate(strong[i]):
                if (x, k) in done:
                    continue
                su = compose(s, u)
                v, v_inv = trans[i][unpack(su)[base[i]]]
                if su != v:
                    h, j = sift(compose(v_inv, su), i + 1)
                    if j < len(base) or h != ident:
                        return h, j
                done.add((x, k))
        return None

    def close(i: int) -> None:
        """Complete levels i, i-1, .., 0, the levels above i being
        complete: a failing Schreier generator of level i becomes a strong
        generator of the levels it passes, and the check restarts there."""
        while i >= 0:
            found = failing_schreier_generator(i)
            if found is None:
                i -= 1
                continue
            h, j = found
            if j == len(base):
                add_level(h)
            for level in range(i + 1, j + 1):
                strong[level].append(h)
                grow(level)
            i = j

    # extend the chain by each generator it does not already contain: the
    # residue h of its sift, failing at level j, fixes b_0 .. b_(j-1)
    for g in gens:
        h, j = sift(g, 0)
        if j == len(base):
            if h == ident:
                continue
            add_level(h)
        for level in range(j + 1):
            strong[level].append(h)
            grow(level)
        close(j)
    order = 1
    for tree in trans:
        order *= len(tree)
    return order, lambda x: sift(x, 0) == (ident, len(base))


def leq_rows(perms: Sequence[bytes], ranks: Sequence[int],
             lengths: Dict[bytes, int]) -> List[int]:
    """Bit rows of the absolute order: bit j of row i set iff e_i =< e_j.

    e_i =< e_j iff l(e_i) + l(e_i^-1 e_j) = l(e_j); only rank_i < rank_j
    pairs can be related, plus the diagonal.  Only tests call it; it stays
    while the benchmark's tracer wraps it.
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
