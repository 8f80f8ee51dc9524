"""Exact scalar domain: Z[phi] arithmetic on flat int vectors, where
coordinate k of (a_0, b_0, a_1, b_1, ...) is a_k + b_k*phi, and
fraction-free rank computation."""

import pytest

from ncfact.rootdata import _div_exact, _dot, _rank, _scale, build_root_system

ONE, ZERO, PHI = (1, 0), (0, 0), (0, 1)

SAMPLE = [(a, b) for a in (-2, 0, 1, 3) for b in (-1, 0, 2)]


def mul(x, y):
    return tuple(_scale(x, y))


def add(x, y):
    return tuple(u + v for u, v in zip(x, y))


def test_phi_satisfies_quadratic():
    # phi^2 = phi + 1 is the defining relation of the domain
    assert mul(PHI, PHI) == add(PHI, ONE)
    assert _dot(PHI, PHI) == (1, 1)


def test_ring_axioms_sampled():
    for x in SAMPLE:
        assert mul(x, ONE) == x
        assert mul(x, ZERO) == ZERO
        for y in SAMPLE:
            assert mul(x, y) == mul(y, x) == _dot(x, y)
            for z in SAMPLE:
                assert mul(mul(x, y), z) == mul(x, mul(y, z))
                assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
                # _dot sums coordinatewise products; _scale scales each
                assert _dot(x + y, z + x) == add(mul(x, z), mul(y, x))
                assert tuple(_scale(x, y + z)) == mul(x, y) + mul(x, z)


def test_order_is_total_and_matches_equality():
    # flat tuple order is the lexicographic order of the (a, b) pairs: a
    # deterministic total order for canonical root ordering, not the
    # real-number order
    pairs = sorted(SAMPLE)
    assert pairs == sorted(SAMPLE, key=lambda x: (x[0], x[1]))
    vectors = [x + y for x in SAMPLE for y in SAMPLE]
    assert sorted(vectors) == sorted(vectors,
                                     key=lambda v: (v[:2], v[2:]))
    for name in ("H3", "H4", "F4"):
        roots = build_root_system(name).roots
        assert list(roots) == sorted(
            roots, key=lambda r: tuple(zip(r[::2], r[1::2])))
        # negation reverses the order: root i and root -1-i are a pair
        assert [tuple(-c for c in r) for r in roots] == list(roots[::-1])


def test_bool_is_nonzero():
    # a coordinate is zero iff both of its ints are, so a 1x1 matrix has
    # rank 1 iff its entry is nonzero
    assert _rank([ZERO]) == 0
    assert _rank([PHI]) == 1
    assert _rank([(0, -7)]) == 1
    assert _rank([(2, 0)]) == 1


def test_div_exact():
    assert _div_exact((4, -6), (2, 0)) == (2, -3)
    assert _div_exact((-4, 0), (4, 0)) == (-1, 0)
    assert _div_exact((6, 0, -3, 9), (-3, 0)) == (-2, 0, 1, -3)


@pytest.mark.parametrize("x,d", [((3, 0), (2, 0)),
                                 ((2, 1), (2, 0)),
                                 ((2, 0), PHI)])
def test_div_exact_rejects_non_exact_division(x, d):
    with pytest.raises(ArithmeticError):
        _div_exact(x, d)


def f(*ints):
    """A flat row of rational entries."""
    return [c for x in ints for c in (x, 0)]


def test_matrix_rank_rational():
    assert _rank([f(1, 2), f(2, 4)]) == 1
    assert _rank([f(1, 2), f(0, 1)]) == 2
    assert _rank([f(0, 0, 0)] * 3) == 0
    assert _rank([]) == 0
    # a pivot that is not a unit: elimination must scale the lower row
    assert _rank([f(2, 4), f(1, 2)]) == 1
    # 4x4 with a dependent row
    rows = [f(1, 0, 2, 1),
            f(0, 1, 1, 0),
            f(1, 1, 3, 1),
            f(0, 0, 0, 5)]
    assert _rank(rows) == 3


def test_matrix_rank_golden():
    phi2 = mul(PHI, PHI)
    # rows proportional by phi have rank 1
    assert _rank([ONE + PHI, PHI + phi2]) == 1
    assert _rank([ONE + ZERO, PHI + ONE]) == 2
    # the pivot 2*phi is not a unit in Z[phi]
    two_phi = (0, 2)
    assert _rank([two_phi + mul(two_phi, PHI), PHI + phi2]) == 1


def test_matrix_rank_does_not_mutate_input():
    rows = [f(1, 2), f(3, 4)]
    snapshot = [row[:] for row in rows]
    _rank(rows)
    assert rows == snapshot
