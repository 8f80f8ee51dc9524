"""Permutation kernels: both formats, algebra, orders, BFS, order rows."""

import ast
import inspect
import itertools
import math
import random
import struct
from pathlib import Path

import pytest

from ncfact import kernels
from ncfact.errors import BudgetExceeded


@pytest.fixture(params=[kernels], ids=[kernels.BACKEND])
def k(request):
    return request.param


# past 256 points an element is a monomial one, stored on coordinates: the
# (colors d, coordinates n) each such point count is tested at
WIDE = {257: (257, 1), 300: (3, 100), 2000: (1000, 2)}


def _perm(images, npoints):
    assert npoints <= 256
    return bytes(images)


def _points(x):
    """The point images of a coordinate tuple (d, x_0, ..): (i, k) goes to
    (sigma(i), k + c_i mod d), written out apart from the kernels."""
    d = x[0]
    return [(c // d) * d + (c % d + color) % d
            for c in x[1:] for color in range(d)]


def _random_coords(rng, d, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return [sigma[i] * d + rng.randrange(d) for i in range(n)]


def _random_perm(rng, npoints):
    if npoints in WIDE:
        d, n = WIDE[npoints]
        return kernels.colored(d, _random_coords(rng, d, n))
    images = list(range(npoints))
    rng.shuffle(images)
    return _perm(images, npoints)


def _identity(k, npoints):
    if npoints in WIDE:
        d, n = WIDE[npoints]
        return k.colored(d, range(0, n * d, d))
    return k.identity(npoints)


def test_identity(k):
    assert k.identity(5) == bytes(range(5))


@pytest.mark.parametrize("npoints", [6, 256, 257, 300, 2000])
def test_pack_unpack_round_trip(k, npoints):
    rng = random.Random(3)
    if npoints in WIDE:
        # a wide element is its coordinate tuple, and unpacks to the point
        # action
        d, n = WIDE[npoints]
        coords = _random_coords(rng, d, n)
        perm = k.colored(d, coords)
        assert perm == (d, *coords)
        assert list(k.coordinates(perm, d)) == coords
        assert list(k.unpack(perm)) == _points(perm)
        return
    images = list(range(npoints))
    rng.shuffle(images)
    perm = k.pack(images)
    assert perm == _perm(images, npoints)
    assert list(k.unpack(perm)) == images


@pytest.mark.parametrize("d,n", [(1, 6), (3, 4), (128, 2), (256, 1)])
def test_colored_is_bytes_up_to_256_points(k, d, n):
    rng = random.Random(d)
    coords = _random_coords(rng, d, n)
    perm = k.colored(d, coords)
    assert perm == bytes(_points((d, *coords)))
    assert list(k.coordinates(perm, d)) == coords


def test_kernels_import_no_struct(k):
    # the uint16 point format is gone from the kernels' elements; only
    # `serialize` (class ids) writes wide points that way, by int.to_bytes
    tree = ast.parse(Path(k.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not {"struct", "_struct"} & imported


@pytest.mark.parametrize("npoints", [6, 256, 257, 300, 2000])
def test_serialize_and_order_key_follow_the_point_images(k, npoints):
    # one byte per point image up to 256 points, else little-endian uint16
    # (struct here, the reference); order_key sorts as those bytes do
    rng = random.Random(npoints)
    perms = [_random_perm(rng, npoints) for _ in range(60)]
    if npoints in WIDE:
        # elements that differ in the color of their last coordinate only
        d = WIDE[npoints][0]
        perms += [(d, *p[1:-1], p[-1] - p[-1] % d + c)
                  for p in perms[:5] for c in range(0, d, d // 7 + 1)]
    for p in perms:
        images = list(k.unpack(p))
        want = (bytes(images) if npoints <= 256
                else struct.pack(f"<{len(images)}H", *images))
        assert k.serialize(p) == want
    assert sorted(perms, key=k.order_key) == sorted(perms, key=k.serialize)


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


@pytest.mark.parametrize("npoints", [6, 256, 257, 300, 2000])
def test_group_axioms_random(k, npoints):
    rng = random.Random(7)
    ident = _identity(k, npoints)
    for _ in range(25):
        a = _random_perm(rng, npoints)
        b = _random_perm(rng, npoints)
        c = _random_perm(rng, npoints)
        assert k.compose(a, k.inverse(a)) == ident
        assert k.compose(k.inverse(a), a) == ident
        left = k.compose(k.compose(a, b), c)
        right = k.compose(a, k.compose(b, c))
        assert left == right


@pytest.mark.parametrize("npoints", [1, 255, 256, 257, 300, 2000])
def test_inverse_matches_the_loop(k, npoints):
    # the translate table (<= 256 points) and the coordinate path, against
    # out[a[i]] = i point by point
    rng = random.Random(npoints)
    for _ in range(20):
        perm = _random_perm(rng, npoints)
        images = list(k.unpack(perm))
        out = [0] * npoints
        for i, img in enumerate(images):
            out[img] = i
        assert list(k.unpack(k.inverse(perm))) == out


def test_perm_order(k):
    assert k.perm_order(k.identity(4)) == 1
    assert k.perm_order(_perm([1, 0, 2, 3], 4)) == 2
    assert k.perm_order(_perm([1, 2, 0, 4, 3], 5)) == 6
    # (0, k) -> (1, k) -> (0, k + 1): one cycle through all 300 points
    wide = k.colored(150, [150, 1])
    assert k.perm_order(wide) == 300


def _point_compose(a, b):
    return tuple(a[x] for x in b)


def _point_inverse(a):
    out = [0] * len(a)
    for i, img in enumerate(a):
        out[img] = i
    return tuple(out)


def _closure(seed, moves):
    """Every point tuple reachable from seed along moves."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for y in moves(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _point_closure(gens):
    """The group gens generate, on point tuples."""
    pts = [tuple(_points(g)) for g in gens]
    return _closure(tuple(range(len(pts[0]))),
                    lambda x: [_point_compose(x, g) for g in pts])


def _monomial(k, d, n, sigma, colors):
    return k.colored(d, [sigma[i] * d + colors[i] % d for i in range(n)])


def _swap01(k, d, n, color):
    """The transposition of coordinates 0 and 1 sending (0, 0) to
    (1, color)."""
    sigma = [1, 0] + list(range(2, n))
    return _monomial(k, d, n, sigma, [color, -color] + [0] * (n - 2))


def _diag0(k, d, n, color):
    return _monomial(k, d, n, range(n), [color] + [0] * (n - 1))


@pytest.mark.parametrize("npoints", sorted(WIDE))
def test_wide_kernels_follow_the_point_action(k, npoints):
    # every kernel on coordinates against the same kernel written on the
    # expanded points
    d, n = WIDE[npoints]
    rng = random.Random(npoints)
    for _ in range(10):
        a, b = _random_perm(rng, npoints), _random_perm(rng, npoints)
        pa, pb = tuple(_points(a)), tuple(_points(b))
        assert tuple(_points(k.compose(a, b))) == _point_compose(pa, pb)
        assert tuple(_points(k.inverse(a))) == _point_inverse(pa)

    # orders: a coordinate cycle with a color sum, whose point order is the
    # lcm of the point cycle lengths
    c = _monomial(k, d, n, [(i + 1) % n for i in range(n)],
                  [0] * (n - 1) + [1])
    elems = [c, _diag0(k, d, n, 2)]
    if n == 2:
        elems += [_random_perm(rng, npoints) for _ in range(5)]
    for x in elems:
        pts, seen, order = _points(x), set(), 1
        for start in range(npoints):
            length = 0
            while start not in seen:
                seen.add(start)
                start = pts[start]
                length += 1
            order = math.lcm(order, max(length, 1))
        assert k.perm_order(x) == order

    # conjugation orbits, under G(d,1,n)'s generators: a diagonal
    # reflection's n conjugates, and on n = 2 a random element's
    gens = [_diag0(k, d, n, 1)] + [
        _monomial(k, d, n, [j + 1 if i == j else j if i == j + 1 else i
                            for i in range(n)], [0] * n)
        for j in range(n - 1)]
    pgens = [(tuple(_points(g)), _point_inverse(_points(g))) for g in gens]
    seeds = [_diag0(k, d, n, 1)]
    if n == 2:
        seeds.append(_random_perm(rng, npoints))
    for seed in seeds:
        orbit = _closure(tuple(_points(seed)), lambda x: [
            _point_compose(_point_compose(g, x), ginv) for g, ginv in pgens])
        got = k.conj_orbit(seed, gens)
        assert len(got) == len(orbit)
        assert {tuple(_points(x)) for x in got} == orbit


@pytest.mark.parametrize("npoints", sorted(WIDE))
def test_wide_schreier_sims_matches_the_point_closure(k, npoints):
    # a subgroup small enough to list on points: order and membership, of
    # its members and of random elements of G(d,1,n)
    d, n = WIDE[npoints]
    rng = random.Random(npoints)
    if n == 1:
        gens = [_diag0(k, d, n, 1)]
    else:
        gens = [_swap01(k, d, n, 0), _diag0(k, d, n, max(d // 4, 1))]
    closure = _point_closure(gens)
    order, contains = k.schreier_sims(gens)
    assert order == len(closure)
    members = list(k.bfs_lengths(gens))
    assert {tuple(_points(x)) for x in members} == closure
    assert all(contains(x) for x in members)
    for _ in range(50):
        x = _random_perm(rng, npoints)
        assert contains(x) == (tuple(_points(x)) in closure)


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


def _naive_bfs(k, gens, ident):
    lengths = {ident: 0}
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


# I2(150) acts on 300 points, so its BFS runs on coordinates
@pytest.mark.parametrize("name", ["F4", "G(3,1,3)", "I2(150)"])
def test_bfs_lengths_matches_naive_bfs(k, group_of, name):
    car = group_of(name).carrier
    lengths = k.bfs_lengths(car.refl_perms)
    naive = _naive_bfs(k, car.refl_perms, car.identity)
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


@pytest.mark.parametrize("name", ["B3", "H3", "G(3,1,3)", "G(4,4,3)"])
def test_schreier_sims_membership_matches_closure(k, group_of, name):
    # on every element of W, for subgroups generated by a few reflections
    car = group_of(name).carrier
    everything = k.bfs_lengths(car.refl_perms)
    rng = random.Random(name)
    for size in (1, 2, 2, 3):
        gens = rng.sample(car.refl_perms, size)
        closure = k.bfs_lengths(gens)
        order, contains = k.schreier_sims(gens)
        assert order == len(closure)
        assert [contains(x) for x in everything] == [
            x in closure for x in everything]


@pytest.mark.parametrize("name", ["B3", "H3", "G(3,1,3)", "G(4,4,3)"])
def test_schreier_sims_extends_by_each_generator(k, group_of, name):
    # the chain grows one generator at a time: on every prefix of a random
    # reflection sequence with repeats, the identity and products of
    # earlier terms mixed in, order and membership match the closure
    car = group_of(name).carrier
    everything = k.bfs_lengths(car.refl_perms)
    rng = random.Random(name)
    gens = [car.identity]
    for _ in range(5):
        gens.append(rng.choice(car.refl_perms))
        gens.append(rng.choice(gens))
        gens.append(k.compose(rng.choice(gens), rng.choice(gens)))
        closure = k.bfs_lengths(gens)
        order, contains = k.schreier_sims(gens)
        assert order == len(closure)
        assert [contains(x) for x in everything] == [
            x in closure for x in everything]


def test_conj_orbit_cap(k):
    four_cycle = _perm([1, 2, 3, 0], 4)
    with pytest.raises(BudgetExceeded):
        k.conj_orbit(four_cycle, _s4_transpositions(), cap=5)
    assert len(k.conj_orbit(four_cycle, _s4_transpositions(), cap=6)) == 6
