"""Exact scalar domain: Z[phi] arithmetic, fraction-free rank computation."""

import pytest

from ncfact.exact import GOLDEN_ONE, GOLDEN_ZERO, Golden, matrix_rank

PHI = Golden(0, 1)

SAMPLE = [Golden(a, b) for a in (-2, 0, 1, 3) for b in (-1, 0, 2)]


def test_phi_satisfies_quadratic():
    # phi^2 = phi + 1 is the defining relation of the domain
    assert PHI * PHI == PHI + GOLDEN_ONE


def test_ring_axioms_sampled():
    for x in SAMPLE:
        assert x + GOLDEN_ZERO == x
        assert x * GOLDEN_ONE == x
        assert x - x == GOLDEN_ZERO
        assert x + (-x) == GOLDEN_ZERO
        for y in SAMPLE:
            assert x + y == y + x
            assert x * y == y * x
            for z in SAMPLE:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_order_is_total_and_matches_equality():
    # the order only promises a deterministic total order for canonical
    # root ordering, not the real-number order
    assert len(set(SAMPLE)) == len(SAMPLE)
    for g in SAMPLE:
        for g2 in SAMPLE:
            assert (g == g2) == ((g.a, g.b) == (g2.a, g2.b))
            assert (g < g2) == ((g.a, g.b) < (g2.a, g2.b))
            assert sum((g < g2, g == g2, g > g2)) == 1
    assert sorted(SAMPLE) == sorted(SAMPLE, reverse=True)[::-1]


def test_bool_is_nonzero():
    assert not GOLDEN_ZERO
    assert PHI
    assert Golden(0, -7)
    assert Golden(2)


def test_div_exact():
    assert Golden(4, -6).div_exact(Golden(2)) == Golden(2, -3)
    assert Golden(-4).div_exact(Golden(4)) == Golden(-1)


@pytest.mark.parametrize("x,d", [(Golden(3), Golden(2)),
                                 (Golden(2, 1), Golden(2)),
                                 (Golden(2), PHI)])
def test_div_exact_rejects_non_exact_division(x, d):
    with pytest.raises(ArithmeticError):
        x.div_exact(d)


def test_matrix_rank_rational():
    f = Golden
    assert matrix_rank([[f(1), f(2)], [f(2), f(4)]]) == 1
    assert matrix_rank([[f(1), f(2)], [f(0), f(1)]]) == 2
    assert matrix_rank([[f(0)] * 3] * 3) == 0
    # a pivot that is not a unit: elimination must scale the lower row
    assert matrix_rank([[f(2), f(4)], [f(1), f(2)]]) == 1
    # 4x4 with a dependent row
    rows = [[f(1), f(0), f(2), f(1)],
            [f(0), f(1), f(1), f(0)],
            [f(1), f(1), f(3), f(1)],
            [f(0), f(0), f(0), f(5)]]
    assert matrix_rank(rows) == 3


def test_matrix_rank_golden():
    one, phi = GOLDEN_ONE, PHI
    zero = GOLDEN_ZERO
    # rows proportional by phi have rank 1
    assert matrix_rank([[one, phi], [phi, phi * phi]]) == 1
    assert matrix_rank([[one, zero], [phi, one]]) == 2
    # the pivot 2*phi is not a unit in Z[phi]
    two_phi = Golden(0, 2)
    assert matrix_rank([[two_phi, two_phi * phi], [phi, phi * phi]]) == 1


def test_matrix_rank_does_not_mutate_input():
    f = Golden
    rows = [[f(1), f(2)], [f(3), f(4)]]
    snapshot = [row[:] for row in rows]
    matrix_rank(rows)
    assert rows == snapshot
