"""run_verify report structure and check inventory."""

import json

from ncfact import facto, ncp, verify
from ncfact.families import parse_group
from ncfact.verify import run_verify


def test_report_all_pass_and_inventory():
    rep = run_verify(parse_group("B3"))
    assert rep.passed
    names = [c.name for c in rep.checks]
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
    assert len(rep.rows) == 3


def test_payload_json_round_trip():
    rep = run_verify(parse_group("A2"), p_max=2)
    payload = rep.payload()
    again = json.loads(json.dumps(payload, sort_keys=True))
    assert again == payload
    assert payload["meta"]["seconds"] is None
    for check in payload["checks"]:
        assert isinstance(check["expected"], str)
        assert isinstance(check["actual"], str)


def test_rank_one_group_skips_class_checks():
    rep = run_verify(parse_group("A1"))
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "submax-total" not in names
    assert rep.rows == []


def test_wide_carrier_group():
    # 2 bytes per point past 256 points; end-to-end on I2(150)
    rep = run_verify(parse_group("I2(150)"), p_max=2)
    assert rep.passed
    assert [(r["r"], r["u"]) for r in rep.rows] == [("150", "2")]


def test_orbit_gate_skips_expensive_checks():
    rep = run_verify(parse_group("E6"), p_max=2)
    assert rep.passed
    names = [c.name for c in rep.checks]
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
        assert run_verify(parse_group("A3"), p_max=p_max).passed
        return len(calls)

    assert transfers(16) - transfers(8) == 8
