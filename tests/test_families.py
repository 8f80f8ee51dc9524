"""Group grammar, canonicalization, and closed-form group data."""

import math

import pytest

from ncfact.cli import main
from ncfact.errors import ParseError, UnsupportedGroup
from ncfact.families import EXCEPTIONAL, GroupSpec, parse_group


@pytest.mark.parametrize("text,family,d,n", [
    ("A3", "A", 0, 3),
    ("a3", "A", 0, 3),
    ("B4", "B", 2, 4),
    ("D5", "D", 2, 5),
    ("I2(7)", "I2", 7, 2),
    ("i2(12)", "I2", 12, 2),
    ("G(3,1,4)", "GD1N", 3, 4),
    ("g(5, 5, 3)", "GEEN", 5, 3),
    ("H3", "H3", 0, 0),
    ("E8", "E8", 0, 0),
])
def test_parse_families(text, family, d, n):
    spec = parse_group(text)
    assert (spec.family, spec.d, spec.n) == (family, d, n)


@pytest.mark.parametrize("text,canonical", [
    ("G(2,1,3)", "B3"),          # G(2,1,n) is B_n
    ("G(2,2,4)", "D4"),          # G(2,2,n) is D_n
    ("G(5,5,2)", "I2(5)"),       # G(e,e,2) is dihedral
    ("G(2,2,2)", "D2"),          # degenerate dihedral, kept in D form
    ("G(2,1,1)", "A1"),          # one signed point is a single reflection
    ("G(4,2,1)", "A1"),          # G(d,e,1) is cyclic of order d/e
    ("G(6,2,1)", "G(3,1,1)"),
    ("G(9,3,1)", "G(3,1,1)"),
    ("D3", "D3"),
])
def test_canonicalization(text, canonical):
    assert parse_group(text).name == canonical


@pytest.mark.parametrize("bad", [
    "Q7", "A0", "B1", "D1", "I2(2)", "I2(-3)", "H5", "E9",
    "G(1,1,4)",     # symmetric group must be written A(n)
    "G(3,2,4)",     # e must divide d with quotient 1 or e
    "G(3,3,1)",     # trivial group
    "G(0,1,3)", "A", "", "G(3,3)",
])
def test_rejects(bad):
    with pytest.raises((ParseError, UnsupportedGroup)):
        parse_group(bad)


@pytest.mark.parametrize("bad,reason", [
    ("G(3,5,2)", "is not a group: G(d,e,n) needs d, n >= 1 and e >= 1 "
                 "dividing d"),
    ("G(4,3,2)", "is not a group"), ("G(1,2,3)", "is not a group"),
    ("G(3,0,2)", "is not a group"), ("G(0,1,3)", "is not a group"),
    ("G(1,1,1)", "G(1,1,1) is trivial"),
    ("G(1,1,4)", "G(1,1,4) is the symmetric group; use A3"),
    ("G(4,2,3)", "imprimitive but not well-generated"),
])
def test_rejection_says_why(bad, reason):
    with pytest.raises(UnsupportedGroup) as info:
        parse_group(bad)
    assert reason in str(info.value)


@pytest.mark.parametrize("name,degrees,order,nrefl", [
    ("A3", (2, 3, 4), 24, 6),
    ("A1", (2,), 2, 1),
    ("B3", (2, 4, 6), 48, 9),
    ("D4", (2, 4, 4, 6), 192, 12),
    ("I2(5)", (2, 5), 10, 5),
    ("I2(6)", (2, 6), 12, 6),
    ("G(3,1,3)", (3, 6, 9), 162, 15),
    ("G(4,4,3)", (4, 8, 3), 96, 12),
    ("G(3,3,4)", (3, 6, 9, 4), 648, 18),
    ("H3", (2, 6, 10), 120, 15),
    ("H4", (2, 12, 20, 30), 14400, 60),
    ("F4", (2, 6, 8, 12), 1152, 24),
    ("E6", (2, 5, 6, 8, 9, 12), 51840, 36),
    ("E7", (2, 6, 8, 10, 12, 14, 18), 2903040, 63),
    ("E8", (2, 8, 12, 14, 18, 20, 24, 30), 696729600, 120),
])
def test_degrees_order_reflections(name, degrees, order, nrefl):
    spec = parse_group(name)
    assert sorted(spec.degrees) == sorted(degrees)
    assert spec.order == order == math.prod(spec.degrees)
    assert spec.num_reflections == nrefl
    assert spec.num_reflections == sum(d - 1 for d in spec.degrees)
    assert spec.h == max(spec.degrees)


def test_rank_equals_degree_count():
    # rank is defined as the number of degrees, so both are checked against
    # the literature ranks: n for A(n), B(n), D(n), G(d,1,n) and G(e,e,n),
    # 2 for I2(e), and the index of an exceptional type
    ranks = {"A1": 1, "A5": 5, "B4": 4, "D2": 2, "D6": 6, "I2(9)": 2,
             "G(3,1,1)": 1, "G(4,1,3)": 3, "G(5,5,4)": 4, "G(3,3,6)": 6,
             "H3": 3, "H4": 4, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
    for name, rank in ranks.items():
        spec = parse_group(name)
        assert spec.rank == len(spec.degrees) == rank, name


SWEEP = ([f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 11)]
         + [f"D{n}" for n in range(2, 11)]
         + [f"I2({e})" for e in range(3, 31)]
         + [f"G({d},1,{n})" for d in range(2, 7) for n in range(1, 7)]
         + [f"G({e},{e},{n})" for e in range(2, 7) for n in range(2, 7)]
         + list(EXCEPTIONAL))


@pytest.mark.parametrize("name", SWEEP)
def test_rank_and_h_read_from_the_family_match_the_degrees(name):
    # rank and h are stated per family without listing the degrees
    spec = parse_group(name)
    assert spec.rank == len(spec.degrees)
    assert spec.h == spec.degrees[-1] == max(spec.degrees)


def test_info_lists_the_degrees_a_bounded_number_of_times(monkeypatch,
                                                          capsys):
    # a closed form that read h through the degrees once per degree listed
    # them 2,014 times for B2000, quadratic in the rank
    builds = []
    listed = GroupSpec.degrees.fget
    monkeypatch.setattr(GroupSpec, "degrees", property(
        lambda spec: builds.append(spec) or listed(spec)))
    assert main(["info", "B2000"]) == 0
    assert "| rank | 2000 |" in capsys.readouterr().out
    assert 0 < len(builds) <= 8


def test_two_reflection_classification():
    for name in ("A4", "B3", "D4", "I2(8)", "G(6,6,3)", "H3", "E6"):
        assert parse_group(name).is_two_reflection
    for name in ("G(3,1,3)", "G(4,1,2)", "G(6,1,4)"):
        assert not parse_group(name).is_two_reflection


def test_spec_is_hashable_value_object():
    a = parse_group("G(2,1,4)")
    b = parse_group("B4")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
