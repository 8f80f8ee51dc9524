"""Permutation kernels: byte format, algebra, orders, BFS, order rows."""

import inspect
import itertools
import random

import pytest

from ncfact import kernels
from ncfact.errors import BudgetExceeded


@pytest.fixture(params=[kernels], ids=[kernels.BACKEND])
def k(request):
    return request.param


def _perm(images, npoints):
    if npoints <= 256:
        return bytes(images)
    out = bytearray()
    for x in images:
        out += x.to_bytes(2, "little")
    return bytes(out)


def _random_perm(rng, npoints):
    images = list(range(npoints))
    rng.shuffle(images)
    return _perm(images, npoints)


def test_identity(k):
    assert k.identity(5) == bytes(range(5))


@pytest.mark.parametrize("npoints", [6, 256, 257, 300])
def test_pack_unpack_round_trip(k, npoints):
    images = list(range(npoints))
    random.Random(3).shuffle(images)
    perm = k.pack(images)
    assert perm == _perm(images, npoints)
    assert list(k.unpack(perm)) == images


def test_only_identity_takes_a_width(k):
    # a permutation carries its width, so no other kernel is told one
    kernels_with_width = [
        name for name, fn in inspect.getmembers(k, inspect.isfunction)
        if fn.__module__ == k.__name__
        and {"npoints", "npts", "width"} & set(inspect.signature(fn).parameters)]
    assert kernels_with_width == ["identity"]
    assert {"compose", "leq_rows"} <= set(vars(k))


def test_compose_applies_right_factor_first(k):
    # out[x] = a[b[x]]: with b the 3-cycle (0 1 2) and a the swap (0 1),
    # point 0 goes b: 0->1 then a: 1->0.
    b = _perm([1, 2, 0], 3)
    a = _perm([1, 0, 2], 3)
    assert k.compose(a, b) == _perm([0, 2, 1], 3)


@pytest.mark.parametrize("npoints", [6, 256, 257, 300])
def test_group_axioms_random(k, npoints):
    rng = random.Random(7)
    ident = k.identity(npoints)
    for _ in range(25):
        a = _random_perm(rng, npoints)
        b = _random_perm(rng, npoints)
        c = _random_perm(rng, npoints)
        assert k.compose(a, k.inverse(a)) == ident
        assert k.compose(k.inverse(a), a) == ident
        left = k.compose(k.compose(a, b), c)
        right = k.compose(a, k.compose(b, c))
        assert left == right


def test_perm_order(k):
    assert k.perm_order(k.identity(4)) == 1
    assert k.perm_order(_perm([1, 0, 2, 3], 4)) == 2
    assert k.perm_order(_perm([1, 2, 0, 4, 3], 5)) == 6
    wide = _perm(list(range(1, 300)) + [0], 300)
    assert k.perm_order(wide) == 300


def _s4_transpositions(npoints=4):
    perms = []
    for i, j in itertools.combinations(range(npoints), 2):
        images = list(range(npoints))
        images[i], images[j] = images[j], images[i]
        perms.append(_perm(images, npoints))
    return perms


def test_bfs_lengths_vs_brute(k):
    gens = _s4_transpositions()
    lengths = k.bfs_lengths(gens)
    assert len(lengths) == 24
    # brute-force: length = min word length over all products
    brute = {k.identity(4): 0}
    frontier = list(brute)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for g in gens:
                y = k.compose(x, g)
                if y not in brute:
                    brute[y] = depth
                    nxt.append(y)
        frontier = nxt
    assert dict(lengths) == brute
    # absolute length of a permutation: n minus number of cycles
    assert lengths[_perm([1, 2, 3, 0], 4)] == 3
    assert lengths[_perm([1, 0, 3, 2], 4)] == 2


# x is reachable from no seed; c and d are each reached along two edges
_GRAPH = {"a": ["b", "c"], "b": ["d"], "c": ["d", "e"], "d": ["a"], "e": [],
          "f": ["c", "g"], "g": ["h"], "h": [], "x": ["a"]}


def test_bfs(k):
    dist = k.bfs(["a", "f"], _GRAPH.__getitem__)
    assert list(dist.items()) == [("a", 0), ("f", 0), ("b", 1), ("c", 1),
                                  ("g", 1), ("d", 2), ("e", 2), ("h", 2)]
    # a seed that is also reachable from another seed keeps distance 0
    dist = k.bfs(["a", "d"], _GRAPH.__getitem__)
    assert dist == {"a": 0, "d": 0, "b": 1, "c": 1, "e": 2}
    # cap=k raises exactly when the closure has more than k nodes
    for cap in range(12):
        if cap < 8:
            with pytest.raises(BudgetExceeded):
                k.bfs(["a", "f"], _GRAPH.__getitem__, cap=cap)
        else:
            assert len(k.bfs(["a", "f"], _GRAPH.__getitem__, cap=cap)) == 8


def _naive_bfs(k, gens, npoints):
    lengths = {k.identity(npoints): 0}
    frontier = list(lengths)
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                x = k.compose(w, g)
                if x not in lengths:
                    lengths[x] = lengths[w] + 1
                    nxt.append(x)
        frontier = nxt
    return lengths


# I2(150) permutes 300 points, so its BFS runs on the 2-byte path
@pytest.mark.parametrize("name", ["F4", "G(3,1,3)", "I2(150)"])
def test_bfs_lengths_matches_naive_bfs(k, group_of, name):
    car = group_of(name).carrier
    lengths = k.bfs_lengths(car.refl_perms)
    naive = _naive_bfs(k, car.refl_perms, car.npoints)
    assert list(lengths.items()) == list(naive.items())


def test_bfs_insertion_order_is_bfs(k):
    gens = _s4_transpositions()
    lengths = list(k.bfs_lengths(gens).values())
    assert lengths == sorted(lengths)


def test_conj_orbit(k):
    gens = _s4_transpositions()
    orbit = k.conj_orbit(gens[0], gens)
    assert sorted(orbit) == sorted(gens)  # all transpositions conjugate
    four_cycle = _perm([1, 2, 3, 0], 4)
    assert len(k.conj_orbit(four_cycle, gens)) == 6


def test_leq_rows_vs_brute(k):
    gens = _s4_transpositions()
    lengths = k.bfs_lengths(gens)
    members = sorted(lengths, key=lambda p: (lengths[p], p))
    ranks = [lengths[p] for p in members]
    rows = k.leq_rows(members, ranks, dict(lengths))
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            expect = (lengths[u]
                      + lengths[k.compose(k.inverse(u), v)]
                      == lengths[v])
            assert bool(rows[i] >> j & 1) == expect


def test_leq_rows_wide_poset(k):
    # >31 elements exercises word-size boundaries in bit-row builders
    npoints = 5
    perms = []
    for i, j in itertools.combinations(range(npoints), 2):
        images = list(range(npoints))
        images[i], images[j] = images[j], images[i]
        perms.append(_perm(images, npoints))
    lengths = k.bfs_lengths(perms)
    assert len(lengths) == 120
    members = sorted(lengths, key=lambda p: (lengths[p], p))
    ranks = [lengths[p] for p in members]
    rows = k.leq_rows(members, ranks, dict(lengths))
    ident_row = rows[0]
    assert ident_row == (1 << 120) - 1  # identity is below everything
