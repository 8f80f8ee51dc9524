"""NC(W, c) against four literature identities that need no enumeration
of W: Fuss-Narayana numbers by rank, Hall's theorem for mu(1, c), the
Kreweras complement, and cyclic sieving under conjugation by c.

Each identity is read off the poset alone (its down-sets and its
elements), so a cover the walk drops or adds shows up here as a wrong
number, independently of the closed forms `verify` checks.
"""

import math
from fractions import Fraction

import pytest

from ncfact import kernels
from ncfact.closedform import fuss_catalan
from ncfact.facto import fact_counts
from ncfact.ncp import transfer

# the families with a Fuss-Narayana closed form
NARAYANA_GROUPS = ["A3", "A4", "A5", "B3", "B4", "B5", "D4", "D5", "D6",
                   "G(3,1,4)", "G(4,1,3)", "G(3,1,5)"]
LATTICE_GROUPS = NARAYANA_GROUPS + ["H3", "H4", "F4", "E6", "I2(7)",
                                    "G(3,3,4)", "G(4,4,3)", "G(5,5,4)"]


def _fuss_narayana(spec, p, k):
    """Multichains w_1 =< .. =< w_p in NC with rank(w_p) = n - k
    (Armstrong, Mem. AMS 949, 2009; Fomin-Reading 2005)."""
    n, comb = spec.n, math.comb
    if spec.family == "A":
        return comb(n + 1, k) * comb(p * (n + 1), n - k) // (n + 1)
    if spec.family in ("B", "GD1N"):
        return comb(n, k) * comb(p * n, n - k)
    assert spec.family == "D"
    return (comb(n, k) * comb(p * (n - 1), n - k)
            + comb(n - 2, k) * comb(p * (n - 1) + 1, n - k))


@pytest.mark.parametrize("name", NARAYANA_GROUPS)
def test_multichains_by_rank_are_fuss_narayana(group_of, nc_of, name):
    spec, nc = group_of(name).spec, nc_of(name)
    n = spec.rank
    chains = [1] * nc.size
    for p in (1, 2, 3):
        if p > 1:
            chains = transfer(nc, chains)
        by_k = [0] * (n + 1)
        for j, count in enumerate(chains):
            by_k[n - nc.ranks[j]] += count
        assert by_k == [_fuss_narayana(spec, p, k) for k in range(n + 1)], p


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_mobius_is_halls_sum_and_the_fuss_catalan_value(
        group_of, nc_of, name):
    # mu(1, j) = -sum of mu(1, i) over the i < j; by Hall's theorem
    # (Stanley, EC1) mu(1, c) = sum_k (-1)^k fact_k, the alternating sum
    # over strict chains from 1 to c, and it is prod (d_i - 2h)/d_i
    # (Chapoton 2004; Armstrong 2009), the Fuss-Catalan value at p = -2
    nc = nc_of(name)
    mu = [1]
    for j in range(1, nc.size):
        mu.append(-sum(mu[i] for i in nc.strictly_below(j)))
    assert mu[-1] == fuss_catalan(group_of(name).spec, -2)
    lanes = fact_counts(nc)
    assert mu[-1] == sum((-1) ** k * f for k, f in enumerate(lanes))


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_kreweras_complement_is_an_order_reversing_map_of_nc(nc_of, name):
    # K(w) = w^-1 c lies in NC, and i =< j implies K(j) =< K(i)
    # (Kreweras 1972; Bessis 2003)
    nc = nc_of(name)
    c = nc.perms[-1]
    kw = [nc.index.get(kernels.compose(kernels.inverse(p), c))
          for p in nc.perms]
    assert None not in kw
    down = [set(nc.strictly_below(j)) | {j} for j in range(nc.size)]
    for j in range(nc.size):
        for i in down[j]:
            assert kw[j] in down[kw[i]], (i, j)


@pytest.mark.parametrize("name", LATTICE_GROUPS)
def test_cyclic_sieving_under_conjugation_by_c(group_of, nc_of, name):
    # the w in NC fixed by conjugation by c^k number
    # prod over the d_i divisible by m of (d_i + h)/d_i, with
    # m = h / gcd(k, h) (Bessis-Reiner, Ann. Comb. 15, 2011)
    g, nc = group_of(name), nc_of(name)
    c = nc.perms[-1]
    c_inv = kernels.inverse(c)
    shift = [nc.index[kernels.compose(kernels.compose(c, p), c_inv)]
             for p in nc.perms]
    # w is fixed by the k-th power of the shift iff its cycle length
    # divides k
    cycle = [0] * nc.size
    for start in range(nc.size):
        if not cycle[start]:
            orbit = [start]
            while shift[orbit[-1]] != start:
                orbit.append(shift[orbit[-1]])
            for x in orbit:
                cycle[x] = len(orbit)
    for k in range(1, g.h + 1):
        m = g.h // math.gcd(k, g.h)
        expected = math.prod(Fraction(d + g.h, d) for d in g.degrees
                             if d % m == 0)
        assert sum(k % length == 0 for length in cycle) == expected, k
