"""NC poset: sizes, grading, chain counting vs. oracle, strata."""

import math
from collections import Counter

import pytest

from ncfact import build_group, build_nc, kernels
from ncfact.errors import NonIntegerResult, NotInNC, RankTooSmall
from ncfact.facto import submaximal_by_class
from ncfact.families import parse_group
from ncfact.groups import Element
from ncfact.ncp import count_multichains, fuss_catalan, strata_codim2

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
        bit = [[bool(nc.leq_rows[i] >> j & 1) for j in range(nc.size)]
               for i in range(nc.size)]
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


# every group the suite builds up to |W| = 51840 (E6)
ORACLE_GROUPS = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "D4", "D5", "D6",
    "H3", "F4", "H4", "E6", "I2(5)", "I2(150)", "G(3,1,3)", "G(3,1,4)",
    "G(4,1,3)", "G(3,3,3)", "G(4,4,3)", "G(5,5,4)",
)


def _old_route(group):
    """NC as built before the walk down from c: membership by
    l(w) + l(w^-1 c) = n over the whole length table, all-pairs
    kernels.leq_rows, predecessor lists from every bit (i = j at jump 0),
    and class ids from a conjugation orbit per element."""
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
    assert list(nc.leq_rows) == rows
    assert [[list(lst) for lst in level] for level in nc.preds_by_jump] \
        == preds
    assert [sorted(i for level in nc.preds_by_jump for i in level[j])
            for j in range(nc.size)] == preds_all
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
