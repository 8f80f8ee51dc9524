"""Group layer: carrier algebra, reflection length, absolute order,
conjugacy ids, parabolic degrees, budget gating."""

import itertools
import math
import random
import struct

import pytest

from ncfact import kernels
from ncfact.errors import (BudgetExceeded, NotInNC, NotLengthTwo,
                           RankTooSmall)
from ncfact.groups import Element, _monomial_reflections, build_group
from oracle import (absolute_leq, elements, parabolic_degrees_by_closure,
                    reflection_length)


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
            assert reflection_length(g, w) == length


def test_length_equals_codim_for_real_types(group_of):
    for name in ("A3", "B3"):
        g = group_of(name)
        for w in elements(g):
            assert reflection_length(g, w) == g.fixed_space_codim(w)


def test_coxeter_element_properties(group_of):
    for name in ("A4", "B3", "D4", "G(3,1,3)", "G(4,4,3)", "H3", "F4"):
        g = group_of(name)
        assert g.element_order(g.coxeter) == g.spec.h
        assert reflection_length(g, g.coxeter) == g.rank
        assert g.fixed_space_codim(g.coxeter) == g.rank


def test_absolute_order_axioms_sampled(group_of):
    g = group_of("B3")
    elems = list(elements(g))
    sample = elems[::7]
    for u in sample:
        assert absolute_leq(g, u, u)
        for v in sample:
            if absolute_leq(g, u, v) and absolute_leq(g, v, u):
                assert u == v
    c = g.coxeter
    for r in g.reflections:
        assert absolute_leq(g, r, c)  # atoms of NC are all reflections


def test_conjugacy_class_id(group_of):
    g = group_of("A3")
    refl = list(g.reflections)
    ids = {g.conjugacy_class_id(r) for r in refl}
    assert len(ids) == 1  # all transpositions conjugate
    # 4-cycles and (2,2)-elements both have length 3 resp. 2 but split
    c = g.coxeter
    assert g.conjugacy_class_id(c) == g.conjugacy_class_id(
        g.multiply(g.multiply(refl[0], c), g.inverse(refl[0])))


def test_conjugacy_orbit_over_budget_names_group_phase_and_budget():
    # the carrier is under 30000, the Coxeter class of E8 far over it
    g = build_group("E8", budget=30000)
    with pytest.raises(BudgetExceeded) as info:
        g.conjugacy_class_id(g.coxeter)
    assert str(info.value) == ("E8: conjugacy orbit needs more than the "
                               "budget 30000")
    assert info.value.exit_code == 3


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
    nc_perms = {w.perm for w in elements(g) if reflection_length(g, w) == 2
                and absolute_leq(g, w, g.coxeter)}
    outside = next(w for w in elements(g)
                   if reflection_length(g, w) == 2 and w.perm not in nc_perms)
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
        elems = list(elements(g))
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


def test_wide_carrier_coordinates(group_of):
    # I2(150) = G(150,150,2) acts on 300 colored points, so an element is
    # its 2 coordinates sigma(i)*150 + c_i; c = diag(zeta, zeta^-1)
    g = group_of("I2(150)")
    assert g.coxeter.perm == (150, 1, 299)
    assert len(kernels.unpack(g.coxeter.perm)) == 300
    assert g.element_order(g.coxeter) == 150
    assert reflection_length(g, g.coxeter) == 2
    assert len(g.reflections) == 150


@pytest.mark.parametrize("d,n,with_diagonal", [
    (1, 5, True), (2, 4, True), (2, 4, False), (3, 3, True), (4, 4, False),
    (5, 4, False), (150, 2, False), (130, 2, True)])
def test_monomial_shapes_match_a_coordinate_scan(d, n, with_diagonal):
    # each reflection's (i, j, a), kept as the carrier builds it, against
    # a scan of its coordinates: i is the first coordinate it moves (or
    # recolors), j the other one it moves (-1 for none), a the color it
    # gives (i, 0)
    shapes = _monomial_reflections(d, n, with_diagonal)
    refls = [t for t, *_ in shapes]
    assert refls == sorted(set(refls))
    assert len(refls) == d * n * (n - 1) // 2 + (n * (d - 1)
                                                  if with_diagonal else 0)
    for t, *shape in shapes:
        tc = kernels.coordinates(t, d)
        i, *rest = [x for x in range(n) if tc[x] != x * d]
        assert shape == [i, rest[0] if rest else -1, tc[i] % d]
        order = 2 if rest else d // math.gcd(d, tc[i] % d)
        assert kernels.perm_order(t) == order


def _conjugacy_class_on_points(g, w):
    """The class of w as point tuples, by conjugation with the carrier's
    generators on expanded points."""
    gens = []
    for x in g.carrier.gens:
        images = kernels.unpack(x)
        inv = [0] * len(images)
        for i, y in enumerate(images):
            inv[y] = i
        gens.append((images, inv))
    seed = tuple(kernels.unpack(w.perm))
    seen, frontier = {seed}, [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for images, inv in gens:
                y = tuple(images[x[inv[p]]] for p in range(len(x)))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["I2(150)", "G(130,1,2)"])
def test_wide_class_ids_serialize_uint16_points(nc_of, name):
    # a wide element's class id is the least of its class's point images
    # as little-endian uint16, the serialization it had before elements
    # were stored on coordinates, so the ids on stdout keep their bytes
    nc = nc_of(name)
    g = nc.group
    for w in nc.elements:
        least = min(struct.pack(f"<{len(x)}H", *x)
                    for x in _conjugacy_class_on_points(g, w))
        assert g.conjugacy_class_id(w) == g.name.encode() + b"|" + least


def test_reflections_are_length_one(group_of):
    g = group_of("G(3,1,3)")
    for r in g.reflections:
        assert reflection_length(g, r) == 1
        assert g.fixed_space_codim(r) == 1


# A-I2, both monomial families and every exceptional type; I2(150) and
# G(1000,1,2) on coordinates
ORDER_GROUPS = ("A1", "A5", "B4", "D2", "D5", "I2(7)", "I2(150)",
                "G(3,1,1)", "G(3,1,3)", "G(4,1,2)", "G(3,3,4)", "G(4,4,3)",
                "G(1000,1,2)", "H3", "H4", "F4", "E6", "E7", "E8")


@pytest.mark.parametrize("name", ORDER_GROUPS)
def test_schreier_sims_order_of_gens(name):
    g = build_group(name)  # |T| * points is far under the default budget
    gens = g.carrier.gens
    order, contains = kernels.schreier_sims(gens)
    assert order == g.spec.order
    assert contains(g.carrier.coxeter)
    assert all(contains(t) for t in g.carrier.refl_perms)
    # every generator is needed: without it the order drops, and the
    # chain of the rest misses it
    if len(gens) > 1:
        for k in range(len(gens)):
            rest = gens[:k] + gens[k + 1:]
            order, contains = kernels.schreier_sims(rest)
            assert order < g.spec.order
            assert not contains(gens[k])


@pytest.mark.parametrize("name", ["B3", "G(3,1,3)", "G(4,1,2)", "G(5,1,1)"])
def test_gd1n_coxeter_element(name):
    # c sends coordinate i to i+1 and n-1 to 0 with color 1, as the
    # product of diag(zeta, 1, ..) and the adjacent transpositions
    g = build_group(name)
    d, n = g.spec.d, g.spec.n
    images = [((i + 1) % n) * d + (k + (i == n - 1)) % d
              for i in range(n) for k in range(d)]
    assert g.coxeter.perm == bytes(images)
    assert g.carrier.gens[0] == bytes(
        i * d + (k + (i == 0)) % d for i in range(n) for k in range(d))


# the rank-2 NC elements of these groups cover every parabolic type the
# carriers produce: real, G(d,1,n), G(e,e,n) and wide dihedral ones
PARABOLIC_GROUPS = (
    "A3", "A5", "A8", "B3", "B4", "D4", "D5", "D7", "H3", "F4", "H4", "E6",
    "E7", "I2(5)", "I2(150)", "G(3,1,3)", "G(3,1,4)", "G(4,1,3)", "G(5,1,3)",
    "G(6,1,3)", "G(3,1,5)", "G(3,1,6)", "G(4,1,4)", "G(5,1,2)", "G(20,1,2)",
    "G(3,3,3)", "G(3,3,4)", "G(4,4,3)", "G(4,4,4)", "G(4,4,5)", "G(5,5,4)",
    "G(6,6,3)", "G(7,7,4)")


@pytest.mark.parametrize("name", PARABOLIC_GROUPS)
def test_parabolic_degrees_match_closure_oracle(nc_of, name):
    # N from the Schreier-Sims chain against N from the BFS closure, on
    # every rank-2 element of NC
    nc = nc_of(name)
    g = nc.group
    for w, r in zip(nc.elements, nc.ranks):
        if r == 2:
            atoms = g.reflections_below(w)
            assert (g.parabolic_degrees_of_atoms(atoms)
                    == parabolic_degrees_by_closure(g, atoms)), w


def test_parabolic_degrees_build_one_chain(monkeypatch):
    # G(20,1,2)'s rank-2 parabolic is all of W, and the atoms of c go into
    # one Schreier-Sims chain, which skips the atoms it already holds
    g = build_group("G(20,1,2)")
    calls = []
    real = kernels.schreier_sims
    monkeypatch.setattr(kernels, "schreier_sims",
                        lambda gens: calls.append(len(gens)) or real(gens))
    atoms = g.reflections_below(g.coxeter)
    assert g.parabolic_degrees_of_atoms(atoms) == (20, 40)
    assert calls == [len(atoms)]


@pytest.mark.parametrize("name", ["B3", "D4", "H3", "A4", "I2(5)", "G(3,1,3)",
                                  "G(4,1,3)", "G(3,3,3)", "G(4,4,3)",
                                  "G(3,3,4)", "F4"])
def test_length_two_test_matches_length_table(group_of, name):
    # w not in {1} u T with an atom has l_R(w) = 2, on all of W; its atoms
    # are the t with l_R(t^-1 w) = 1
    g = group_of(name)
    for w in elements(g):
        if reflection_length(g, w) == 2:
            assert g.reflections_below(w) == [
                t.perm for t in g.reflections
                if reflection_length(g, g.multiply(g.inverse(t), w)) == 1]
        else:
            with pytest.raises(NotLengthTwo):
                g.reflections_below(w)
