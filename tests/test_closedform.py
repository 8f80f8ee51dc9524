"""Closed-form identities: numbers, degrees, and the per-class table."""

import json
from fractions import Fraction
from importlib import resources

import pytest

from ncfact.closedform import (deg_discriminant, deg_jacobian,
                               expected_ll_data, ll_number, prefactor_of,
                               submax_total, sum_derived_degrees,
                               table_records)
from ncfact.errors import NonIntegerResult, NoTableRow, RankTooSmall
from ncfact.families import parse_group

SWEEP = [
    "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "D4", "D5", "D6",
    "I2(3)", "I2(5)", "I2(7)", "I2(12)", "G(3,3,3)", "G(6,6,3)", "G(4,4,3)",
    "G(5,5,3)", "G(3,3,4)", "G(4,4,4)", "G(5,5,4)", "G(3,3,5)", "G(3,3,6)",
    "H3", "H4", "F4", "E6", "E7", "E8",
]


def test_ll_number_values():
    assert ll_number(parse_group("A3")) == 16
    assert ll_number(parse_group("H4")) == 1350
    assert ll_number(parse_group("E6")) == 41472
    assert ll_number(parse_group("E7")) == 1062882
    assert ll_number(parse_group("E8")) == 37968750
    for e in range(3, 13):
        assert ll_number(parse_group(f"I2({e})")) == e


def test_submax_total_values():
    assert submax_total(parse_group("A3")) == 12
    assert submax_total(parse_group("B3")) == 18
    assert submax_total(parse_group("H3")) == 30
    with pytest.raises(RankTooSmall):
        submax_total(parse_group("A1"))


def test_degree_values():
    for name, dd, dj in (("A3", 24, 15), ("H3", 60, 42), ("B3", 36, 24)):
        spec = parse_group(name)
        assert deg_discriminant(spec) == dd
        assert deg_jacobian(spec) == dj
    for e in range(3, 10):
        spec = parse_group(f"I2({e})")
        assert deg_discriminant(spec) == 2 * e
        assert deg_jacobian(spec) == 2 * e - 2
        assert sum_derived_degrees(spec) == 2


def test_expected_rows_concrete():
    row = expected_ll_data(parse_group("A3"))
    assert row.label == "A"
    assert row.prefactor == Fraction(2, 3)
    assert row.entries == ((2, 3), (3, 6))
    assert row.counts == (4, 8)

    # zero-u entry dropped at the boundary parameter
    row = expected_ll_data(parse_group("A2"))
    assert row.entries == ((3, 2),)
    assert row.counts == (1,)

    row = expected_ll_data(parse_group("B3"))
    assert row.prefactor == Fraction(3, 4)
    assert row.entries == ((2, 4), (3, 4), (4, 4))
    assert row.counts == (6, 6, 6)

    row = expected_ll_data(parse_group("D4"))
    assert row.label == "GEEN-4-even"
    assert row.entries == ((2, 4), (2, 4), (3, 16), (2, 4))
    assert row.counts == (27, 27, 108, 27)

    assert expected_ll_data(parse_group("D3")).label == "A"
    assert expected_ll_data(parse_group("G(5,5,2)")).entries == ((5, 2),)
    assert (expected_ll_data(parse_group("G(3,3,3)")).entries
            == ((3, 3),) * 4)
    assert expected_ll_data(parse_group("G(4,4,3)")).label == "GEEN-3-coprime"
    assert expected_ll_data(parse_group("G(3,3,4)")).label == "GEEN-4-odd"
    assert expected_ll_data(parse_group("D6")).label == "GEEN-large"
    assert expected_ll_data(parse_group("H4")).counts == (675, 450, 270)


def test_no_table_row_for_gd1n():
    with pytest.raises(NoTableRow):
        expected_ll_data(parse_group("G(3,1,3)"))
    with pytest.raises(RankTooSmall):
        expected_ll_data(parse_group("A1"))


def test_row_degree_identities_sweep():
    # sum r*u = n(n-1)h and sum u = deg D - deg J, for every routed group
    for name in SWEEP:
        spec = parse_group(name)
        row = expected_ll_data(spec)
        assert (sum(r * u for r, u in row.entries)
                == deg_discriminant(spec)), name
        assert (sum(u for _, u in row.entries)
                == sum_derived_degrees(spec)), name
        assert row.prefactor == prefactor_of(spec), name
        assert sum(row.counts) == submax_total(spec), name
        assert all(c > 0 for c in row.counts), name


def test_reference_rows_satisfy_identities():
    # rows without a carrier still obey the degree bookkeeping
    seen = set()
    for rec in table_records():
        if rec["realizable"]:
            continue
        seen.add(rec["row"])
        n, h = rec["rank"], rec["h"]
        degrees = rec["degrees"]
        assert len(degrees) == n and max(degrees) == h
        total_ru = sum(Fraction(r) * Fraction(u) for r, u in rec["entries"])
        assert total_ru == n * (n - 1) * h, rec["row"]
        deg_j = h * (n * (n + 1) // 2 - 1) - (sum(degrees) - h)
        total_u = sum(Fraction(u) for _, u in rec["entries"])
        assert total_u == n * (n - 1) * h - deg_j, rec["row"]
        # counts prefactor * (n-1) * u must be integral here too
        pre = Fraction(rec["prefactor"])
        for _, u in rec["entries"]:
            assert (pre * (n - 1) * Fraction(u)).denominator == 1
    assert seen == {"G24", "G27", "G29", "G33", "G34"}


def test_bundled_table_file_matches():
    raw = (resources.files("ncfact") / "data" / "ll_table.json").read_text()
    assert json.loads(raw) == table_records()
    assert raw == json.dumps(table_records(), indent=2, sort_keys=True) + "\n"


def test_table_records_are_fresh_copies():
    spec = parse_group("B4")
    before = expected_ll_data(spec)
    records = table_records()
    records[1]["entries"][0][1] = "0"
    records.clear()
    assert table_records()[1]["entries"][0] == ["2", "(n-1)*(n-2)*(n-3)"]
    assert expected_ll_data(spec) == before
