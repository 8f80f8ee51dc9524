"""Permutation kernels, in pure Python.

A group element comes in one of two formats, and carries its own:

* a permutation of at most 256 points is bytes, one byte per image;
* an element of a monomial group G(d,1,n) or G(e,e,n) on n*d > 256
  colored points is the tuple (d, x_0, .., x_(n-1)), where
  x_i = sigma(i)*d + c_i is the image of point (i, 0): it sends point
  i*d + k, i.e. (i, k), to sigma(i)*d + (k + c_i mod d).

Every kernel tests for bytes first and reads d from a tuple, so only
`identity` is told how many points to use.  This module is the only one
that knows the formats: `pack` and `colored` build an element from its
images or its coordinates, `unpack` and `coordinates` read them back, and
`serialize` (the bytes of a class id) and `order_key` write and order them.
compose(a, b) returns the element x -> a(b(x)), i.e. apply b first; this
matches the convention (v*w)(x) = v(w(x)) used for group products
throughout.

Every closure in the package (roots, conjugacy orbits, NC(W, c) below c,
Hurwitz orbits) is one call to `bfs`; the order of the group a set of
elements generates, and membership in it, come from `schreier_sims`,
which never lists the group.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple, Union)

from ncfact.errors import BudgetExceeded

BACKEND = "pure"

# bytes, or the coordinate tuple (d, x_0, .., x_(n-1)) of a wide element
Perm = Union[bytes, Tuple[int, ...]]


def pack(images: Sequence[int]) -> bytes:
    """The permutation x -> images[x] of at most 256 points."""
    return bytes(images)


def _expand(d: int, coords: Sequence[int]) -> List[int]:
    """The point images of the monomial element with these coordinates:
    (i, k) -> (sigma(i), k + c_i mod d)."""
    return [x - x % d + (x + k) % d for x in coords for k in range(d)]


def colored(d: int, coords: Sequence[int]) -> Perm:
    """The element of a monomial group with d colors that sends point
    (i, 0) to coords[i] = sigma(i)*d + c_i: bytes on at most 256 points,
    else the coordinate tuple."""
    if len(coords) * d <= 256:
        return bytes(_expand(d, coords))
    return (d, *coords)


def unpack(perm: Perm) -> Sequence[int]:
    """The images of an element, indexable by point."""
    if perm.__class__ is bytes:
        return perm
    return _expand(perm[0], perm[1:])


def coordinates(perm: Perm, d: int) -> Sequence[int]:
    """sigma(i)*d + c_i for each coordinate i of a monomial element."""
    if perm.__class__ is bytes:
        return perm[::d]
    return perm[1:]


def serialize(perm: Perm) -> bytes:
    """The point images of an element, one byte each up to 256 points,
    else little-endian uint16: what a class id serializes."""
    if perm.__class__ is bytes:
        return perm
    return b"".join(x.to_bytes(2, "little") for x in unpack(perm))


def order_key(perm: Perm) -> Sequence:
    """A key that orders the elements of a group as `serialize` does,
    without expanding a wide one: its coordinate x_i is the image of point
    (i, 0) and determines those of (i, 1) .. (i, d-1), so two wide
    elements first differ at the point (i, 0) of their first differing
    coordinate, where the little-endian bytes of x_i compare as x_i
    byte-swapped."""
    if perm.__class__ is bytes:
        return perm
    return [(x & 255) << 8 | x >> 8 for x in perm[1:]]


def identity(npoints: int) -> bytes:
    return bytes(range(npoints))


_PAD = bytes(range(256))


def _one(a: Perm) -> Perm:
    """The identity in the format of a."""
    if a.__class__ is bytes:
        return _PAD[:len(a)]
    d = a[0]
    return (d, *range(0, d * (len(a) - 1), d))


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b under 'apply b, then a'."""
    if b.__class__ is bytes:
        # translate wants a 256-byte table; the padded tail is never hit
        return b.translate(a + _PAD[len(a):])
    # (i, 0) -> x = (j, c) under b, then -> (sigma_a(j), c + c_j) under a
    d = a[0]
    out = [d]
    for x in b[1:]:
        y = a[1 + x // d]
        out.append(y - y % d + (y + x) % d)
    return tuple(out)


def inverse(a: Perm) -> Perm:
    if a.__class__ is bytes:
        # the table sends a[i] to i; its tail past len(a) is never read
        return bytes.maketrans(a, _PAD[:len(a)])[:len(a)]
    # (i, 0) -> (j, c) under a, so (j, 0) -> (i, -c) under its inverse
    d = a[0]
    out = list(a)
    for i, x in enumerate(a[1:]):
        out[1 + x // d] = i * d + -x % d
    return tuple(out)


def _image(g: Perm, x: int) -> int:
    """The image of point x under g."""
    if g.__class__ is bytes:
        return g[x]
    d = g[0]
    y = g[1 + x // d]
    return y - y % d + (y + x) % d


def perm_order(a: Perm) -> int:
    ident = _one(a)
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


def bfs_lengths(gens: Sequence[Perm]) -> Dict[Perm, int]:
    """Word length over gens for every element they generate.

    gens must be non-empty.  The key set is the generated subgroup for any
    gens; the values are a length function only when gens is closed under
    inversion (true for reflection sets).  Insertion order is the BFS
    discovery order.
    """
    def step(w: Perm) -> List[Perm]:
        if w.__class__ is bytes:
            tw = w + _PAD[len(w):]  # compose(w, g) is g.translate(tw)
            return [g.translate(tw) for g in gens]
        return [compose(w, g) for g in gens]

    return bfs([_one(gens[0])], step)


def conj_orbit(seed: Perm, gens: Sequence[Perm],
               cap: Optional[int] = None) -> List[Perm]:
    """Closure of seed under conjugation by gens, in BFS discovery order;
    BudgetExceeded past cap elements."""
    if seed.__class__ is bytes:
        # g x g^-1 is i -> g(x(g^-1(i))): translates through padded x, g
        pairs = [(inverse(g), g + _PAD[len(g):]) for g in gens]
        return list(bfs([seed], lambda x: [
            ginv.translate(xpad).translate(gpad)
            for xpad in (x + _PAD[len(x):],) for ginv, gpad in pairs], cap))
    pairs = [(g, inverse(g)) for g in gens]
    return list(bfs([seed], lambda x: [
        compose(compose(g, x), ginv) for g, ginv in pairs], cap))


def schreier_sims(gens: Sequence[Perm]
                  ) -> Tuple[int, Callable[[Perm], bool]]:
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
    contains adds nothing; every new strong generator enters through
    `extend`, and `close` rechecks the levels it joined.  A wide monomial
    element acts on its colored points: (j, k) -> (sigma(j), k + c_j).
    """
    ident = _one(gens[0])
    base: List[int] = []
    strong: List[List[Perm]] = []
    # trans[l][x] = (u, u^-1) with u(b_l) = x, for x in the orbit of b_l
    trans: List[Dict[int, Tuple[Perm, Perm]]] = []
    # checked[l]: the (x, k) whose Schreier generator, from trans[l][x] and
    # strong[l][k], sifts through; a level only gains representatives, so a
    # sift that passed once passes for good
    checked: List[set] = []

    def extend(h: Perm, lo: int, j: int) -> None:
        """Make h, which fixes b_0 .. b_(j-1), a strong generator of levels
        lo .. j (j = len(base) adds a level, based at the first point h
        moves), and close each of their transversals under its strong
        generators; the coset representatives found so far stay valid."""
        if j == len(base):
            base.append(next(x for x, y in enumerate(unpack(h)) if x != y))
            strong.append([])
            trans.append({})
            checked.append(set())
        for level in range(lo, j + 1):
            strong[level].append(h)
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

    def sift(g: Perm, start: int) -> Tuple[Perm, int]:
        """Strip g through levels start..; the residue and the level it
        fails at (len(base) when it passes them all)."""
        for level in range(start, len(base)):
            coset = trans[level].get(_image(g, base[level]))
            if coset is None:
                return g, level
            g = compose(coset[1], g)
        return g, len(base)

    def failing_schreier_generator(i: int) -> Optional[Tuple[Perm, int]]:
        done = checked[i]
        for x, (u, _) in trans[i].items():
            for k, s in enumerate(strong[i]):
                if (x, k) in done:
                    continue
                su = compose(s, u)
                v, v_inv = trans[i][_image(su, base[i])]
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
            extend(h, i + 1, j)
            i = j

    # extend the chain by each generator it does not already contain: the
    # residue h of its sift, failing at level j, fixes b_0 .. b_(j-1)
    for g in gens:
        h, j = sift(g, 0)
        if j < len(base) or h != ident:
            extend(h, 0, j)
            close(j)
    order = 1
    for tree in trans:
        order *= len(tree)
    return order, lambda x: sift(x, 0) == (ident, len(base))


def leq_rows(perms: Sequence[Perm], ranks: Sequence[int],
             lengths: Dict[Perm, int]) -> List[int]:
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
