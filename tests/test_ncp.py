"""NC poset: sizes, grading, chain counting vs. oracle, strata."""

import itertools
import math
from collections import Counter

import pytest

from ncfact import build_group, build_nc, kernels
from ncfact.errors import NonIntegerResult, NotInNC, RankTooSmall
from ncfact.facto import (count_fact_by_composition, count_fact_k,
                          fact_counts, submaximal_by_class)
from ncfact.families import parse_group
from ncfact.groups import Element
from ncfact.ncp import count_multichains, fuss_catalan, strata_codim2
from ncfact.rootdata import build_root_system

# |NC(W)| = prod (d_i + h)/d_i, all independently recomputable by hand
NC_SIZES = {
    "A2": 5, "A3": 14, "A4": 42, "A5": 132,
    "B2": 6, "B3": 20, "B4": 70,
    "D4": 50,
    "I2(5)": 7, "I2(12)": 14,
    "G(3,3,3)": 18, "G(4,4,3)": 22, "G(3,3,4)": 65, "G(3,1,3)": 20,
    "H3": 32, "F4": 105,
}


@pytest.mark.parametrize("name,size", sorted(NC_SIZES.items()))
def test_nc_sizes(nc_of, name, size):
    assert nc_of(name).size == size


def test_nc_is_graded_with_narayana_profile(nc_of):
    # type-A Narayana numbers: (1/n) C(n,k) C(n,k+1) for S5
    profile = Counter(nc_of("A4").ranks)
    assert [profile[k] for k in range(5)] == [1, 10, 20, 10, 1]
    profile = Counter(nc_of("B3").ranks)
    assert [profile[k] for k in range(4)] == [1, 9, 9, 1]


def test_bottom_and_top(nc_of):
    nc = nc_of("B3")
    g = nc.group
    assert nc.rank_of(g.identity) == 0
    assert nc.rank_of(g.coxeter) == g.rank
    # c is the unique maximum
    tops = [i for i, r in enumerate(nc.ranks) if r == g.rank]
    assert tops == [nc.index_of(g.coxeter)]


def test_leq_matches_group_order(nc_of):
    nc = nc_of("G(3,3,3)")
    g = nc.group
    for u in nc.elements:
        for v in nc.elements:
            assert nc.leq(u, v) == g.absolute_leq(u, v)


def test_leq_rejects_foreign_elements(nc_of):
    nc = nc_of("A3")
    g = nc.group
    outside = next(w for w in g.elements()
                   if g.reflection_length(w) == 2
                   and not g.absolute_leq(w, g.coxeter))
    with pytest.raises(NotInNC):
        nc.index_of(outside)


@pytest.mark.parametrize("name,values", [
    ("A3", (1, 14, 55, 140, 285, 506)),
    ("B3", (1, 20, 84, 220, 455, 816)),
    ("I2(7)", (1, 9, 24, 46, 75, 111)),
])
def test_fuss_catalan_closed_form(name, values):
    spec = parse_group(name)
    for p, want in enumerate(values):
        assert fuss_catalan(spec, p) == want


def test_fuss_catalan_is_exact_division():
    # \prod (d_i + ph)/d_i must come out integral for every p here
    for name in ("A5", "B4", "D4", "H4", "E7", "E8", "G(5,5,4)"):
        spec = parse_group(name)
        for p in range(0, 7):
            fuss_catalan(spec, p)  # NonIntegerResult would fail the test


def test_multichains_vs_quadratic_oracle(nc_of):
    for name in ("A3", "B3"):
        nc = nc_of(name)
        bit = [[nc.leq(u, v) for v in nc.elements] for u in nc.elements]
        # p = 2: count pairs u <= v directly
        pairs = sum(sum(row) for row in bit)
        assert count_multichains(nc, 2) == pairs
        # p = 3: triples u <= v <= w
        triples = sum(bit[i][j] and bit[j][k]
                      for i in range(nc.size)
                      for j in range(nc.size)
                      for k in range(nc.size))
        assert count_multichains(nc, 3) == triples


def test_multichains_match_fuss_catalan(nc_of):
    for name in ("A4", "G(3,3,4)", "F4"):
        nc = nc_of(name)
        spec = nc.group.spec
        for p in range(1, 6):
            assert count_multichains(nc, p) == fuss_catalan(spec, p)


def test_strata_codim2(nc_of):
    strata = strata_codim2(nc_of("D4"))
    assert len(strata) == 4
    assert all(s.rank == 2 for s in strata)
    sizes = sorted(s.size_in_nc for s in strata)
    total_rank2 = sum(1 for r in nc_of("D4").ranks if r == 2)
    assert sum(sizes) == total_rank2
    # three conjugate A1xA1-type classes plus one A2-type class
    assert sizes[3] > sizes[0] and sizes[0] == sizes[1] == sizes[2]


@pytest.mark.parametrize("name", ["D4", "G(3,1,3)", "H3"])
def test_strata_members_partition_rank_two(nc_of, name):
    nc = nc_of(name)
    strata = strata_codim2(nc)
    members = sorted(i for s in strata for i in s.members)
    assert members == [i for i, r in enumerate(nc.ranks) if r == 2]
    for s in strata:
        assert list(s.members) == sorted(s.members)
        assert s.size_in_nc == len(s.members)
        assert s.representative == nc.elements[s.members[0]]
        assert all(nc.class_id(i) == s.class_id for i in s.members)


def test_strata_requires_rank_two(nc_of):
    with pytest.raises(RankTooSmall):
        strata_codim2(nc_of("A1"))


def test_members_sorted_by_rank_then_perm(nc_of):
    nc = nc_of("B3")
    keys = list(zip(nc.ranks, nc.perms))
    assert keys == sorted(keys)


# every group the suite builds up to |W| = 51840 (E6), and with it every
# G(d,1,n) and G(e,e,n) it builds: on G(e,e,n) the codim-drop cover test
# rests on this comparison alone
ORACLE_GROUPS = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4", "D5", "D6",
    "H3", "F4", "H4", "E6", "I2(5)", "I2(150)", "G(3,1,3)", "G(3,1,4)",
    "G(4,1,3)", "G(3,3,3)", "G(4,4,3)", "G(5,5,4)",
    "G(3,1,2)", "G(3,1,5)", "G(4,1,4)", "G(3,3,4)", "G(4,4,4)", "G(5,5,3)",
    "G(6,6,3)", "G(4,4,5)",
)


def _old_route(group):
    """NC from the BFS over all of W: membership by
    l(w) + l(w^-1 c) = n over the whole length table, all-pairs
    kernels.leq_rows, predecessor lists from every bit (i = j at jump 0),
    and class ids from a conjugation orbit per element under all of T."""
    table = group.length_table()
    car = group.carrier
    n = group.rank
    members = sorted(
        (length, perm) for perm, length in table.items()
        if length + table[kernels.compose(kernels.inverse(perm),
                                          car.coxeter)] == n)
    perms = [p for _, p in members]
    ranks = [r for r, _ in members]
    rows = kernels.leq_rows(perms, ranks, table)
    size = len(perms)
    preds = [[[] for _ in range(size)] for _ in range(n + 1)]
    preds_all = [[] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if rows[i] >> j & 1:
                preds_all[j].append(i)
                preds[ranks[j] - ranks[i]][j].append(i)
    class_ids = [
        Element(group.name, min(kernels.conj_orbit(p, car.refl_perms)))
        .serialize() if r == 2 else None
        for r, p in members]
    return perms, ranks, rows, preds, preds_all, class_ids


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_poset_matches_old_route(nc_of, name):
    nc = nc_of(name)
    perms, ranks, rows, preds, preds_all, class_ids = _old_route(nc.group)
    assert list(nc.perms) == perms
    assert list(nc.ranks) == ranks
    # the flat down-sets, expanded: as up-set bit rows, per jump, and whole
    down = [list(nc.down[nc.down_start[j]:nc.down_start[j + 1]])
            for j in range(nc.size)]
    up = [0] * nc.size
    for j, below in enumerate(down):
        for i in below:
            up[i] |= 1 << j
    assert up == rows
    assert [[list(nc.below(j, range(k, k + 1))) for j in range(nc.size)]
            for k in range(nc.group.rank + 1)] == preds
    assert down == preds_all
    assert [nc.class_id(i) if r == 2 else None
            for i, r in enumerate(nc.ranks)] == class_ids


def test_class_ids_only_for_rank_two(monkeypatch):
    seeds = []
    real = kernels.conj_orbit

    def spy(seed, gens):
        seeds.append(seed)
        return real(seed, gens)

    monkeypatch.setattr(kernels, "conj_orbit", spy)
    for name in ("B3", "D4", "G(3,1,3)"):
        g = build_group(name)
        nc = build_nc(g)
        assert not seeds
        submaximal_by_class(nc)
        assert seeds
        assert all(g.reflection_length(Element(g.name, p)) == 2
                   for p in seeds)
        seeds.clear()


@pytest.mark.parametrize("name", ["F4", "H4", "E6"])
def test_mov_test_matches_codim_drop(nc_of, name):
    # t =< v iff the root of t is in Mov(v), against the matrix_rank codim
    # of v and v*t, for every v in NC and every t
    nc = nc_of(name)
    car = nc.group.carrier
    rs = build_root_system(name)
    last = rs.npoints - 1
    roots = [next(i for i in range(rs.npoints) if t[i] == last - i)
             for t in car.refl_perms]
    for v in nc.perms:
        moved = set(rs.moved_roots(v))
        drop = car.codim(v) - 1
        assert [i in moved for i in roots] == [
            car.codim(kernels.compose(v, t)) == drop for t in car.refl_perms]
        assert car.lower_covers(v) == [
            kernels.compose(v, t) for t, i in zip(car.refl_perms, roots)
            if i in moved]



MONOMIAL = ("A", "B", "D", "I2", "GD1N", "GEEN")


def _codim_on_coordinates(perm, n):
    """n minus the number of sigma-cycles whose colors sum to 0 mod d, with
    sigma and the colors read off the images of the points (i, 0)."""
    images = kernels.unpack(perm)
    d = len(images) // n
    img = images[::d]
    fixed = 0
    seen = [False] * n
    for start in range(n):
        if not seen[start]:
            total = 0
            x = start
            while not seen[x]:
                seen[x] = True
                total += img[x] % d
                x = img[x] // d
            fixed += total % d == 0
    return n - fixed


def _check_cycle_rule(group, perms):
    # the carrier's cycle rule against the v*t whose codim is one less,
    # for every t, in T order
    car = group.carrier
    n = group.rank + (group.spec.family == "A")
    for v in perms:
        drop = _codim_on_coordinates(v, n) - 1
        assert car.lower_covers(v) == [
            kernels.compose(v, t) for t in car.refl_perms
            if _codim_on_coordinates(kernels.compose(v, t), n) == drop], v


@pytest.mark.parametrize("name", ["B3", "D4", "A4", "G(3,1,3)", "G(4,1,3)",
                                  "G(5,1,2)", "G(3,3,4)", "G(4,4,3)",
                                  "G(6,6,3)"])
def test_cycle_rule_matches_codim_drop_on_all_of_w(group_of, name):
    # off NC too: a split whose part sum ignores the wrap past the
    # cycle's start agrees with the codim drop on NC but not on W
    g = group_of(name)
    _check_cycle_rule(g, g.length_table())


@pytest.mark.parametrize("name", [
    name for name in ORACLE_GROUPS + ("D7", "A8")
    if parse_group(name).family in MONOMIAL])
def test_cycle_rule_matches_codim_drop_on_nc(nc_of, name):
    nc = nc_of(name)
    _check_cycle_rule(nc.group, nc.perms)


def _k_part_compositions(n, k):
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("name", ORACLE_GROUPS + ("E7",))
def test_fact_k_lanes_match_compositions(nc_of, name):
    # the one lane pass against a transfer DP per composition
    if name == "E7":
        nc = build_nc(build_group(name, budget=3_000_000))
    else:
        nc = nc_of(name)
    n = nc.group.rank
    lanes = fact_counts(nc)
    assert len(lanes) == n + 1
    for k in range(1, n + 1):
        assert lanes[k] == count_fact_k(nc, k) == sum(
            count_fact_by_composition(nc, comp)
            for comp in _k_part_compositions(n, k))
