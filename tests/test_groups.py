"""Group layer: carrier algebra, reflection length, absolute order,
conjugacy ids, parabolic degrees, budget gating."""

import itertools
import random

import pytest

from ncfact import kernels
from ncfact.errors import (BudgetExceeded, NotInNC, NotLengthTwo,
                           RankTooSmall)
from ncfact.groups import Element, build_group


def test_multiply_convention_symmetric_group(group_of):
    # A2 acts on 3 points; elements tagged as permutations of {0,1,2}
    g = group_of("A2")
    s, t = g.reflections[:2]
    st = g.multiply(s, t)
    # right factor applies first: check on the underlying images
    assert bytes(s.perm[t.perm[i]] for i in range(3)) == st.perm


def test_length_via_brute_products(group_of):
    # oracle: shortest expression as product of reflections, by widening
    for name in ("A3", "B2", "G(3,3,3)"):
        g = group_of(name)
        refl = list(g.reflections)
        found = {g.identity: 0}
        frontier = [g.identity]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for x in frontier:
                for r in refl:
                    y = g.multiply(x, r)
                    if y not in found:
                        found[y] = depth
                        nxt.append(y)
            frontier = nxt
        assert len(found) == g.spec.order
        for w, length in found.items():
            assert g.reflection_length(w) == length


def test_length_equals_codim_for_real_types(group_of):
    for name in ("A3", "B3"):
        g = group_of(name)
        for w in g.elements():
            assert g.reflection_length(w) == g.fixed_space_codim(w)


def test_coxeter_element_properties(group_of):
    for name in ("A4", "B3", "D4", "G(3,1,3)", "G(4,4,3)", "H3", "F4"):
        g = group_of(name)
        assert g.element_order(g.coxeter) == g.spec.h
        assert g.reflection_length(g.coxeter) == g.rank
        assert g.fixed_space_codim(g.coxeter) == g.rank


def test_absolute_order_axioms_sampled(group_of):
    g = group_of("B3")
    elems = list(g.elements())
    sample = elems[::7]
    for u in sample:
        assert g.absolute_leq(u, u)
        for v in sample:
            if g.absolute_leq(u, v) and g.absolute_leq(v, u):
                assert u == v
    c = g.coxeter
    for r in g.reflections:
        assert g.absolute_leq(r, c)  # atoms of NC are all reflections


def test_conjugacy_class_id(group_of):
    g = group_of("A3")
    refl = list(g.reflections)
    ids = {g.conjugacy_class_id(r) for r in refl}
    assert len(ids) == 1  # all transpositions conjugate
    # 4-cycles and (2,2)-elements both have length 3 resp. 2 but split
    c = g.coxeter
    assert g.conjugacy_class_id(c) == g.conjugacy_class_id(
        g.multiply(g.multiply(refl[0], c), g.inverse(refl[0])))


def test_parabolic_degrees_known_cases(nc_of):
    from ncfact.facto import submaximal_by_class
    expected = {
        "A3": {((2, 2), True), ((2, 3), False)},
        "B3": {((2, 2), True), ((2, 3), False), ((2, 4), False)},
        "H3": {((2, 2), True), ((2, 3), False), ((2, 5), False)},
        "G(3,1,3)": {((3, 6), False), ((2, 3), True), ((2, 3), False)},
        "G(4,1,3)": {((4, 8), False), ((2, 4), True), ((2, 3), False)},
    }
    for name, want in expected.items():
        rows = submaximal_by_class(nc_of(name))
        got = {(row.parabolic, row.reducible) for row in rows}
        assert got == want, name


def test_parabolic_errors(group_of):
    g = group_of("B3")
    with pytest.raises(NotLengthTwo):
        g.parabolic_degrees(g.coxeter)
    with pytest.raises(NotLengthTwo):
        g.parabolic_degrees(g.reflections[0])
    # a length-2 element that is not below c
    nc_perms = {w.perm for w in g.elements()
                if g.reflection_length(w) == 2 and g.absolute_leq(w, g.coxeter)}
    outside = next(w for w in g.elements()
                   if g.reflection_length(w) == 2 and w.perm not in nc_perms)
    with pytest.raises(NotInNC):
        g.parabolic_degrees(outside)
    with pytest.raises(RankTooSmall):
        build_group("A1").parabolic_degrees(build_group("A1").coxeter)


def test_budget_gating():
    with pytest.raises(BudgetExceeded):
        build_group("E7").length_table()
    with pytest.raises(BudgetExceeded):
        build_group("E8").length_table()
    with pytest.raises(BudgetExceeded):
        build_group("A12").length_table()  # 13! exceeds the default budget
    with pytest.raises(BudgetExceeded):
        build_group("B4", budget=100).length_table()
    # explicit budget lets E7 construct its carrier without enumeration
    g = build_group("E7", budget=10)
    with pytest.raises(BudgetExceeded):
        g.length_table()


def test_element_foreign_tag_rejected(group_of):
    g = group_of("A3")
    other = group_of("B3")
    with pytest.raises(ValueError):
        g.multiply(g.identity, other.identity)


def test_elements_iteration_matches_order(group_of):
    for name in ("A2", "I2(7)", "G(3,3,3)"):
        g = group_of(name)
        elems = list(g.elements())
        assert len(elems) == g.spec.order
        assert len({w.perm for w in elems}) == g.spec.order


@pytest.mark.parametrize("n", range(1, 7))
def test_type_a_carrier(n):
    # A(n) is the one-color monomial carrier on n+1 points
    g = build_group(f"A{n}")
    m = n + 1
    assert g.coxeter.perm == bytes((x + 1) % m for x in range(m))
    transpositions = []
    for i, j in itertools.combinations(range(m), 2):
        images = list(range(m))
        images[i], images[j] = j, i
        transpositions.append(bytes(images))
    assert g.carrier.refl_perms == tuple(sorted(transpositions))
    rng = random.Random(n)
    for _ in range(20):
        images = list(range(m))
        rng.shuffle(images)
        seen, cycles = set(), 0
        for start in range(m):
            if start not in seen:
                cycles += 1
                x = start
                while x not in seen:
                    seen.add(x)
                    x = images[x]
        w = Element(g.name, bytes(images))
        assert g.fixed_space_codim(w) == m - cycles


def test_wide_carrier_int16_path(group_of):
    # I2(150) acts on 300 colored points: exercises the uint16 perms
    g = group_of("I2(150)")
    assert len(kernels.unpack(g.coxeter.perm)) == 300
    assert g.element_order(g.coxeter) == 150
    assert g.reflection_length(g.coxeter) == 2
    assert len(g.reflections) == 150


def test_reflections_are_length_one(group_of):
    g = group_of("G(3,1,3)")
    for r in g.reflections:
        assert g.reflection_length(r) == 1
        assert g.fixed_space_codim(r) == 1
