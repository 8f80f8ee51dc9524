"""Root systems for the exceptional types: closure, counts, exact codim."""

import hashlib

import pytest

from ncfact import kernels
from ncfact.rootdata import _dot, _form, _reflect, _scale, build_root_system

# (name, expected root count) — twice the reflection count for these types
CASES = [("H3", 30), ("F4", 48), ("E6", 72), ("E7", 126), ("H4", 120)]


@pytest.mark.parametrize("name,count", CASES)
def test_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.roots) == count


def test_roots_closed_under_negation():
    rs = build_root_system("F4")
    for root in rs.roots:
        assert tuple(-x for x in root) in rs.index


# sha256 of the reflection permutations followed by the simple ones.  Every
# group element is a permutation of the sorted root list, so the root order
# and each reflection are fixed data that must not depend on how the scalars
# are represented.
PERM_DIGESTS = [
    ("H3", "871f83d28a0335a0f8ca6c4d15dc1aad3906bc7d343ec33125d61ff9947c3c2e"),
    ("F4", "0cc8c4f3f5e375705b931e0e95ef5580d49b6d7e11d817ed1e34aa9c69ad3806"),
    ("E6", "9e50397367aa48e3cfc4e88225827c9826ff22d14e3c6fb65e1fa7664670a96a"),
    ("H4", "cb0f2207ee08595c35af6ac244d5721c35f431f98c851bbaf3c784b988e0c5b1"),
    ("E7", "5db9aeb3ada622c08876ee05116682ff9db30b44f6e07df50387405552dc8b14"),
    ("E8", "bb17081147bdad7831a111d9f163172d8be12a8c9ea25ba24499aa59e2fca508"),
]


@pytest.mark.parametrize("name,digest", PERM_DIGESTS)
def test_permutation_digests_frozen(name, digest):
    rs = build_root_system(name)
    blob = b"".join(rs.reflection_perms + rs.simple_perms)
    assert hashlib.sha256(blob).hexdigest() == digest


def test_reflection_perms_are_involutions_and_halved():
    rs = build_root_system("H3")
    assert len(rs.reflection_perms) == len(rs.roots) // 2
    npoints = len(rs.roots)
    ident = bytes(range(npoints)) if npoints <= 256 else None
    for perm in rs.reflection_perms:
        composed = bytes(perm[perm[i]] for i in range(npoints))
        assert composed == ident


def test_simple_reflections_fix_all_but_two_roots():
    # a reflection fixes every root orthogonal to its own; in a root
    # permutation it moves at least the +/- pair it belongs to
    rs = build_root_system("E6")
    for perm in rs.simple_perms:
        moved = sum(1 for i in range(len(rs.roots)) if perm[i] != i)
        assert moved >= 2 and moved % 2 == 0


def test_codim_matches_moved_space():
    rs = build_root_system("H3")
    ident = bytes(range(len(rs.roots)))
    assert rs.codim(ident) == 0
    for perm in rs.simple_perms:
        assert rs.codim(perm) == 1
    # product of the three simples is a Coxeter element: codim = rank
    c = ident
    for perm in rs.simple_perms:
        c = bytes(perm[c[i]] for i in range(len(c)))
    assert rs.codim(c) == 3


def test_gram_is_symmetric_with_norm_two_diagonal():
    # gram rows are flat: entry (i, j) is the pair gram[i][2j:2j+2]
    for name in ("H3", "F4", "E6"):
        rs = build_root_system(name)
        n = len(rs.gram)
        for i in range(n):
            for j in range(n):
                assert (rs.gram[i][2 * j:2 * j + 2]
                        == rs.gram[j][2 * i:2 * i + 2])
    h3 = build_root_system("H3")
    assert all(h3.gram[i][2 * i:2 * i + 2] == (2, 0) for i in range(3))


def test_root_systems_are_cached():
    assert build_root_system("H3") is build_root_system("H3")


@pytest.mark.parametrize("name", ["H3", "F4", "H4", "E6", "E7", "E8"])
def test_reflections_by_conjugation_match_direct_route(name):
    # the direct route: reflect every root in every positive root (the
    # first half of the sorted list) with the form of that root
    # of x - w(x) beta, written out here on the flat int vectors
    rs = build_root_system(name)

    def reflection(beta):
        form = _form(rs.gram, beta)
        return kernels.pack([rs.index[tuple(
            x - y for x, y in zip(r, _scale(_dot(form, r), beta)))]
            for r in rs.roots])

    half = rs.roots[:rs.npoints // 2]
    assert rs.reflection_perms == tuple(sorted({reflection(beta)
                                                for beta in half}))
    simples = [tuple(int(k == 2 * j) for k in range(2 * rs.rank))
               for j in range(rs.rank)]
    assert rs.simple_perms == tuple(reflection(s) for s in simples)
    # the closure's simple reflection moves coordinate i alone
    for i, s in enumerate(simples):
        form = _form(rs.gram, s)
        for r in rs.roots:
            image = list(_reflect(form, i, r))
            image[2 * i:2 * i + 2] = r[2 * i:2 * i + 2]
            assert tuple(image) == r


@pytest.mark.parametrize("name", ["H3", "F4", "H4", "E6", "E7", "E8"])
def test_refl_index_matches_an_image_scan(name):
    # a reflection negates exactly one +/- root pair, root i and root
    # npoints-1-i of the sorted list; refl_index, recorded as the closure
    # makes the reflections, must name that reflection for both roots
    rs = build_root_system(name)
    last = rs.npoints - 1
    scan = [None] * rs.npoints
    for k, t in enumerate(rs.reflection_perms):
        negated = [i for i, y in enumerate(kernels.unpack(t)) if y == last - i]
        assert len(negated) == 2
        for i in negated:
            scan[i] = k
    assert list(rs.refl_index) == scan
