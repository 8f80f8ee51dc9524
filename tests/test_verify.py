"""run_verify report structure and check inventory."""

import hashlib
import json
import random

import pytest

from ncfact import build_group, build_nc, facto, kernels, ncp, verify
from ncfact.cli import main as cli_main
from ncfact.facto import make_factorization, r_lambda, submaximal_by_class
from ncfact.families import parse_group
from ncfact.groups import Element, Group
from ncfact.verify import run_verify

# the groups of the benchmark's verify workload
BENCH_GROUPS = ("H3", "F4", "H4", "E6", "A7", "D6", "G(3,1,5)", "G(4,4,5)",
                "G(4,1,4)", "G(5,5,4)", "I2(150)")


def _passed(rep):
    return all(c["pass"] for c in rep["checks"])


def test_report_all_pass_and_inventory():
    rep = run_verify(parse_group("B3"))
    assert _passed(rep)
    names = [c["name"] for c in rep["checks"]]
    for expected in ("group-order", "reflection-count", "coxeter-order",
                     "nc-size-catalan", "multichains-p2", "multichains-p4",
                     "reduced-count", "factorization-binomial-p0",
                     "factorization-binomial-p4", "submax-total",
                     "submax-dp-agrees", "degree-sum-r-u", "degree-sum-u",
                     "table-rows", "hurwitz-transitive", "fiber-sum-reduced",
                     "fiber-mismatches"):
        assert expected in names, expected
    assert sum(1 for n in names if n.startswith("r-ll-class")) == 3
    assert sum(1 for n in names if n.startswith("r-order-class")) == 3
    assert len(rep["rows"]) == 3


def test_payload_json_round_trip():
    payload = run_verify(parse_group("A2"), p_max=2)
    again = json.loads(json.dumps(payload, sort_keys=True))
    assert again == payload
    assert payload["meta"]["seconds"] is None
    for check in payload["checks"]:
        assert isinstance(check["expected"], str)
        assert isinstance(check["actual"], str)


def test_rank_one_group_skips_class_checks():
    rep = run_verify(parse_group("A1"))
    assert _passed(rep)
    names = [c["name"] for c in rep["checks"]]
    assert "submax-total" not in names
    assert rep["rows"] == []


def test_wide_carrier_group():
    # 2 bytes per point past 256 points; end-to-end on I2(150)
    rep = run_verify(parse_group("I2(150)"), p_max=2)
    assert _passed(rep)
    assert [(r["r"], r["u"]) for r in rep["rows"]] == [("150", "2")]


def test_orbit_gate_skips_expensive_checks():
    rep = run_verify(parse_group("E6"), p_max=2)
    assert _passed(rep)
    names = [c["name"] for c in rep["checks"]]
    assert "hurwitz-transitive" not in names  # |Red| = 41472 > gate
    assert "table-rows" in names


def test_multichain_checks_take_one_transfer_per_p(monkeypatch):
    # the multichain vector for p is one transfer step from the one for p-1
    real = ncp.transfer
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    for module in (ncp, facto, verify):
        if vars(module).get("transfer") is real:
            monkeypatch.setattr(module, "transfer", counting)

    def transfers(p_max):
        calls.clear()
        assert _passed(run_verify(parse_group("A3"), p_max=p_max))
        return len(calls)

    assert transfers(16) - transfers(8) == 8


def _one_reduced(nc):
    """The factors of one maximal chain of NC, walked down from c."""
    j, factors = nc.size - 1, []
    while j:
        i = nc.below(j, range(1, 2))[0]
        factors.append(Element(nc.group.name, kernels.compose(
            kernels.inverse(nc.perms[i]), nc.perms[j])))
        j = i
    return factors[::-1]


@pytest.mark.parametrize("name", BENCH_GROUPS)
def test_verify_never_builds_the_length_table(monkeypatch, capsys, name):
    # NC(W, c) comes from the carrier's cover test, |W| and the parabolic
    # degrees from Schreier-Sims and the length-2 test from T, so no
    # command or public helper lists W or a subgroup
    def refuse(*args):
        raise AssertionError(f"{name}: a group is listed")

    monkeypatch.setattr(Group, "length_table", refuse)
    monkeypatch.setattr(kernels, "bfs_lengths", refuse)
    monkeypatch.setattr(kernels, "leq_rows", refuse)
    assert _passed(run_verify(parse_group(name)))
    for argv in (["count", name, "red"], ["count", name, "by-class"],
                 ["table", name]):
        assert cli_main(argv) == 0
    capsys.readouterr()
    g = build_group(name)
    nc = build_nc(g)
    make_factorization(g, _one_reduced(nc))
    for row in submaximal_by_class(nc):
        assert r_lambda(g, row.representative) == row.r
        assert g.parabolic_degrees(row.representative) == row.parabolic


def test_builtin_sha256_matches_hashlib(nc_of):
    # the class-id digests in stdout come from verify.sha256
    rng = random.Random(20261019)
    for size in (0, 1, 55, 56, 63, 64, 65, 1000, 100_000):
        data = rng.randbytes(size)
        assert (verify.sha256(data).hexdigest()
                == hashlib.sha256(data).hexdigest())
    digest = verify.sha256()
    for chunk in (b"ab", b"", b"c" * 200):
        digest.update(chunk)
    assert digest.hexdigest() == hashlib.sha256(b"ab" + b"c" * 200).hexdigest()
    for name in BENCH_GROUPS:
        for cls in ncp.strata_codim2(nc_of(name)):
            assert (verify.sha256(cls.class_id).digest()
                    == hashlib.sha256(cls.class_id).digest()), name
