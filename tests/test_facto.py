"""Factorization counting vs. explicit enumeration, Hurwitz action, fibers."""

import itertools
from collections import Counter

import pytest

from ncfact import build_group, build_nc, facto, kernels
from ncfact.errors import BudgetExceeded, IndexOutOfRange, NotLengthTwo
from ncfact.facto import (Factorization, concatenation_fibers,
                          count_fact_by_composition, count_fact_k,
                          count_reduced, derived_degree,
                          enumerate_by_composition, enumerate_reduced,
                          hurwitz_move, hurwitz_orbit, make_factorization,
                          r_lambda, submaximal_by_class)
from ncfact.families import parse_group
from ncfact.groups import Group
from ncfact.ncp import NcPoset
from ncfact.verify import run_verify
from oracle import reflection_length, submaximal_counts_by_pairs
from test_ncp import ORACLE_GROUPS


def _compositions(n):
    for k in range(1, n + 1):
        for parts in itertools.product(range(1, n + 1), repeat=k):
            if sum(parts) == n:
                yield parts


def test_brute_force_oracle_all_compositions(nc_of):
    # independent oracle: walk tuples of NC elements with prescribed
    # lengths whose ordered product is c
    for name in ("A3", "B3", "G(3,3,3)"):
        nc = nc_of(name)
        g = nc.group
        by_len = {}
        for w in nc.elements:
            by_len.setdefault(nc.rank_of(w), []).append(w)
        for comp in _compositions(g.rank):
            brute = 0
            for combo in itertools.product(*(by_len[p] for p in comp)):
                prod = g.identity
                for w in combo:
                    prod = g.multiply(prod, w)
                if prod == g.coxeter:
                    brute += 1
            assert count_fact_by_composition(nc, comp) == brute, (name, comp)
            listed = enumerate_by_composition(nc, comp)
            assert len(listed) == brute
            assert len(set(listed)) == brute


def test_reduced_counts_frozen(nc_of):
    # n! h^n / |W| evaluated independently
    expected = {
        "A2": 3, "A3": 16, "A4": 125, "B2": 4, "B3": 27, "B4": 256,
        "D4": 162, "I2(5)": 5, "I2(12)": 12, "H3": 50, "F4": 432,
        "G(3,3,3)": 24, "G(4,4,3)": 32, "G(3,3,4)": 243, "G(3,1,3)": 27,
    }
    for name, count in expected.items():
        assert count_reduced(nc_of(name)) == count, name


def test_fact_k_values(nc_of):
    nc = nc_of("A3")
    assert count_fact_k(nc, 1) == 1
    assert count_fact_k(nc, 2) == 12
    assert count_fact_k(nc, 3) == 16
    assert count_fact_k(nc, 4) == 0  # no room for 4 nontrivial blocks
    assert count_fact_k(nc_of("D4"), 3) == 189
    # strictness: blocks are nontrivial, so fact_k sums compositions
    for name in ("B3", "G(3,3,3)"):
        nc = nc_of(name)
        n = nc.group.rank
        for k in range(1, n + 1):
            total = sum(count_fact_by_composition(nc, comp)
                        for comp in _compositions(n) if len(comp) == k)
            assert count_fact_k(nc, k) == total


def test_r_lambda_values(group_of, nc_of):
    for name, want in (("A3", {2, 3}), ("B3", {2, 3, 4}),
                       ("H3", {2, 3, 5}), ("I2(7)", {7})):
        rows = submaximal_by_class(nc_of(name))
        assert {row.r for row in rows} == want
        g = group_of(name)
        for row in rows:
            assert r_lambda(g, row.representative) == row.r


def test_r_lambda_is_atom_count(group_of, nc_of):
    nc = nc_of("B3")
    g = group_of("B3")
    for w in nc.elements:
        if nc.rank_of(w) != 2:
            continue
        atoms = [r for r in g.reflections
                 if reflection_length(g, g.multiply(g.inverse(r), w)) == 1]
        assert r_lambda(g, w) == len(atoms)
    with pytest.raises(NotLengthTwo):
        r_lambda(g, g.coxeter)


def test_derived_degree_scaling(group_of):
    # u = count * |W| / ((n-1)! h^(n-1)); A3: count 4 -> u 3
    g = group_of("A3")
    assert derived_degree(g, 4) == 3
    assert derived_degree(g, 8) == 6
    from ncfact.errors import NonIntegerResult
    with pytest.raises(NonIntegerResult):
        derived_degree(g, 5)


def test_submaximal_rows_frozen(nc_of):
    rows = submaximal_by_class(nc_of("A3"))
    table = sorted((r.parabolic, r.r, r.u, r.count, r.size_in_nc)
                   for r in rows)
    assert table == [((2, 2), 2, 3, 4, 2), ((2, 3), 3, 6, 8, 4)]
    rows = submaximal_by_class(nc_of("H4"))
    assert sorted((r.r, r.u) for r in rows) == [(2, 60), (3, 40), (5, 24)]
    counts = sorted(r.count for r in rows)
    assert counts == [270, 450, 675]  # 45/4 * u


def test_submaximal_asks_one_class_id_per_rank_two_element(monkeypatch):
    calls = []
    real = Group.conjugacy_class_id

    def spy(self, w):
        calls.append(w)
        return real(self, w)

    monkeypatch.setattr(Group, "conjugacy_class_id", spy)
    nc = build_nc(build_group("D5"))
    submaximal_by_class(nc)
    rank2 = [w for w, r in zip(nc.elements, nc.ranks) if r == 2]
    assert len(calls) == len(rank2) == 70
    assert sorted(calls, key=lambda w: w.perm) == rank2


def test_enumerate_reduced_inverts_each_nc_element_at_most_once(
        monkeypatch):
    nc = build_nc(build_group("D5"))
    calls = []
    real = kernels.inverse

    def spy(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(kernels, "inverse", spy)
    reduced = enumerate_reduced(nc)
    assert len(reduced) == count_reduced(nc)
    assert len(calls) <= nc.size == 182


def _reducible_by_closure(g, w):
    """The rule reducibility used to be computed by: every reflection of
    the parabolic generated by the atoms of w commutes with every other."""
    atoms = [t.perm for t in g.reflections
             if reflection_length(g, g.multiply(g.inverse(t), w)) == 1]
    refls = [x for x in kernels.bfs_lengths(atoms)
             if x in g.carrier.refl_set]
    return all(kernels.compose(a, b) == kernels.compose(b, a)
               for a in refls for b in refls)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "G(3,1,3)", "G(4,1,3)",
                                  "G(3,1,4)"])
def test_reducible_matches_closure_rule(group_of, nc_of, name):
    g = group_of(name)
    rows = submaximal_by_class(nc_of(name))
    for row in rows:
        assert row.reducible == _reducible_by_closure(g, row.representative)
    if name == "G(3,1,3)":
        # Z3xA1 and A2 share the degrees (2, 3); only reducibility differs
        assert {row.reducible for row in rows
                if row.parabolic == (2, 3)} == {True, False}


def test_row_counts_sum_to_fact_n_minus_1(nc_of):
    for name in ("A4", "B4", "D4", "G(3,1,3)", "F4"):
        nc = nc_of(name)
        rows = submaximal_by_class(nc)
        assert (sum(r.count for r in rows)
                == count_fact_k(nc, nc.group.rank - 1))


@pytest.mark.parametrize("name", [
    name for name in ORACLE_GROUPS + ("E7", "E8")
    if parse_group(name).rank >= 2])
def test_submaximal_counts_match_pair_oracle(nc_of, name):
    # the Hurwitz-shift count against the forward/backward jump-2 pair scan
    nc = nc_of(name)
    assert ({row.class_id: row.count for row in submaximal_by_class(nc)}
            == submaximal_counts_by_pairs(nc))


def test_submaximal_by_class_reads_covers_only(monkeypatch):
    # one cover pass; no scan over the jump-2 pairs of NC (a poset of its
    # own, which has not run the cover pass yet)
    jumps = set()
    real = NcPoset.below

    def spy(self, j, jump_range):
        jumps.add(jump_range)
        return real(self, j, jump_range)

    monkeypatch.setattr(NcPoset, "below", spy)
    submaximal_by_class(build_nc(build_group("D5")))
    assert jumps == {range(1, 2)}


@pytest.mark.parametrize("name", ["B3", "G(3,1,3)"])
def test_one_cover_pass_per_verify(monkeypatch, name):
    # |Red(c)| for the lanes and the per-class counts read the same pass
    real = facto._cover_paths
    calls = []

    def spy(nc):
        calls.append(nc.group.name)
        return real(nc)

    monkeypatch.setattr(facto, "_cover_paths", spy)
    assert run_verify(parse_group(name), p_max=2).passed
    assert calls == [parse_group(name).name]


def test_one_nc_walk_per_group(monkeypatch):
    walks = []
    real = NcPoset.__init__

    def spy(self, group):
        walks.append(group.name)
        real(self, group)

    monkeypatch.setattr(NcPoset, "__init__", spy)
    g = build_group("B3")
    nc = build_nc(g)
    assert build_nc(g) is nc
    for row in submaximal_by_class(nc):
        assert g.parabolic_degrees(row.representative) == row.parabolic
    make_factorization(g, [g.coxeter])
    assert walks == ["B3"]


def test_per_position_symmetry(nc_of):
    # every placement of the length-2 block yields the same class counts
    for name in ("A4", "B3", "D4", "G(3,3,3)", "G(3,1,3)", "G(4,4,3)"):
        nc = nc_of(name)
        g = nc.group
        n = g.rank
        tallies = []
        for pos in range(n - 1):
            comp = [1] * (n - 1)
            comp[pos] = 2
            tally = Counter()
            for fact in enumerate_by_composition(nc, comp):
                tally[g.conjugacy_class_id(fact.factors[pos])] += 1
            tallies.append(tally)
        assert all(t == tallies[0] for t in tallies[1:]), name


def test_make_factorization_validates(group_of, nc_of):
    g = group_of("A3")
    reduced = enumerate_reduced(nc_of("A3"))
    fact = reduced[0]
    assert make_factorization(g, fact.factors).factors == fact.factors
    with pytest.raises(ValueError):
        make_factorization(g, [g.coxeter, g.identity])
    with pytest.raises(ValueError):
        make_factorization(g, [g.coxeter, g.coxeter])
    with pytest.raises(ValueError):
        make_factorization(g, [g.reflections[0]])


@pytest.mark.parametrize("name", ["A3", "B3", "G(3,1,3)"])
def test_make_factorization_accepts_and_rejects(group_of, nc_of, name):
    # accepted: Red(c), every (2,1,..,1) factorization and [c]
    g = group_of(name)
    nc = nc_of(name)
    reduced = enumerate_reduced(nc)
    accepted = reduced + enumerate_by_composition(
        nc, (2,) + (1,) * (g.rank - 2)) + [Factorization((g.coxeter,))]
    for fact in accepted:
        assert make_factorization(g, fact.factors) == fact
    # rejected: products other than c, identity factors, and product c
    # with lengths summing to n + 2
    for fact in reduced:
        for bad in (fact.factors[:-1], fact.factors[1:],
                    fact.factors + (g.identity,),
                    (g.identity,) + fact.factors):
            with pytest.raises(ValueError):
                make_factorization(g, bad)
    for t in g.reflections:
        for bad in ((t, g.inverse(t), g.coxeter), (g.coxeter, t, g.inverse(t)),
                    (t, g.coxeter, g.inverse(g.multiply(
                        g.inverse(g.coxeter), g.multiply(t, g.coxeter))))):
            with pytest.raises(ValueError):
                make_factorization(g, bad)


def test_hurwitz_move_braid_relations(group_of, nc_of):
    g = group_of("B3")
    for fact in enumerate_reduced(nc_of("B3"))[:10]:
        for i in (1, 2):
            moved = hurwitz_move(g, fact, i)
            # products and length sums preserved by construction
            back = hurwitz_move(g, moved, i, direction=-1)
            assert back == fact
        # braid relation: s_1 s_2 s_1 = s_2 s_1 s_2 on positions 1,2
        lhs = hurwitz_move(g, hurwitz_move(g, hurwitz_move(g, fact, 1), 2), 1)
        rhs = hurwitz_move(g, hurwitz_move(g, hurwitz_move(g, fact, 2), 1), 2)
        assert lhs == rhs
    fact = enumerate_reduced(nc_of("B3"))[0]
    with pytest.raises(IndexOutOfRange):
        hurwitz_move(g, fact, 3)
    with pytest.raises(ValueError):
        hurwitz_move(g, fact, 1, direction=0)
    with pytest.raises(ValueError):  # factors of another group
        hurwitz_move(group_of("A3"), fact, 1)


def test_hurwitz_orbit_a2_by_hand(group_of, nc_of):
    g = group_of("A2")
    reduced = enumerate_reduced(nc_of("A2"))
    assert len(reduced) == 3
    orbit = hurwitz_orbit(g, reduced[0])
    assert {f.factors for f in orbit} == {f.factors for f in reduced}


def test_hurwitz_transitive_small(group_of, nc_of):
    for name in ("A3", "B3", "G(3,3,3)", "I2(6)"):
        g = group_of(name)
        reduced = enumerate_reduced(nc_of(name))
        orbit = hurwitz_orbit(g, reduced[0])
        assert len(orbit) == len(reduced), name


def test_hurwitz_orbit_cap(group_of, nc_of):
    g = group_of("A3")
    fact = enumerate_reduced(nc_of("A3"))[0]
    with pytest.raises(BudgetExceeded):
        hurwitz_orbit(g, fact, cap=5)


def test_hurwitz_singleton(group_of):
    g = group_of("A3")
    assert len(hurwitz_orbit(g, make_factorization(g, [g.coxeter]))) == 1


def test_concatenation_fibers_a3(group_of, nc_of):
    g = group_of("A3")
    nc = nc_of("A3")
    fibers = concatenation_fibers(g, enumerate_reduced(nc))
    assert sum(fibers.values()) == 16
    assert len(fibers) == count_fact_by_composition(nc, (2, 1))
    assert set(fibers.values()) == {2, 3}
    for fact, size in fibers.items():
        assert size == r_lambda(g, fact.factors[0])
