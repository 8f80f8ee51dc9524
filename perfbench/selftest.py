"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs from the root of a checkout, in about a minute:
  - BENCHMARK.json, the metric tables in run.py and layers.py, and the
    workloads agree, and the literature sizes in workloads.GROUP_FACTS agree
    with ncfact's own degree data;
  - a reduced pass (the first runs of each round) of every workload, untraced
    and traced, prints every end-to-end or per-layer metric with its unit,
    fails nothing, and the traced runs print the same bytes as the untraced;
  - a wrong digest, a non-zero exit and a failing check each count as a
    failed run and raise the fail ratio.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import sys

import run
from layers import LAYER_MAP
from workloads import GROUP_FACTS, WORKLOADS, Invocation, Workload

LIMIT = 2  # runs per round in a reduced pass


def report_of(name, trace, result, digests):
    """run.report's return value and the lines it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = run.report(name, 0, trace, result, digests)
    return out, buf.getvalue().splitlines()


def check_definitions():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: v[:2] for k, v in LAYER_MAP.items()}
    sys.path.insert(0, str(run.ROOT / "src"))
    from ncfact.families import parse_group
    from ncfact.ncp import fuss_catalan
    for group, (order, catalan) in GROUP_FACTS.items():
        spec_ = parse_group(group)
        assert (spec_.order, fuss_catalan(spec_, 1)) == (order, catalan), group
    groups = {inv.group for w in WORKLOADS.values() for r in w.rounds
              for inv in r} - {None}
    assert groups == set(GROUP_FACTS), groups ^ set(GROUP_FACTS)


def check_reduced_passes(work, digests):
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = run.measure(workload, 1, 0, trace, work, limit=LIMIT)
            out, lines = report_of(name, trace, result, digests)
            assert out["failed"] == 0 and out["correct"], lines
            names = LAYER_MAP if trace else run.END_TO_END
            assert set(out["metrics"]) == set(names), name
            for metric, value in out["metrics"].items():
                unit = LAYER_MAP[metric][0] if trace else names[metric]
                assert value["unit"] == unit, metric
                assert any(line.startswith(f"{metric} median=") and
                           line.split(" n=")[1].split()[1] == unit
                           for line in lines), (metric, lines)
        plain = {r.inv.key: hashlib.sha256(r.stdout).hexdigest()
                 for p in result["plain"] for r in p.runs}
        traced = {r.inv.key: hashlib.sha256(r.stdout).hexdigest()
                  for p in result["traced"] for r in p.runs}
        assert plain == traced and plain, name
        print(f"reduced pass ok: {name} ({len(plain)} distinct runs)")


def check_failures_counted(work, digests):
    runner = run.Runner(work)
    good = runner.run_pass(WORKLOADS["verify"], random.Random(0), False,
                           limit=1)
    assert run.run_problem(good.runs[0], digests) is None
    bad_exit = Workload("neg", "", ((Invocation(
        ("verify", "A3", "--p-max", "0", "--format", "json"), "A3"),),))
    exited = runner.run_pass(bad_exit, random.Random(0), False).runs[0]
    assert exited.code == 2
    failing = json.loads(good.runs[0].stdout)
    failing["checks"][0]["pass"] = False
    cases = {
        "wrong digest": (good.runs[0], {k: "0" * 64 for k in digests}),
        "non-zero exit": (exited, digests),
        "failing check": (dataclasses.replace(
            good.runs[0], stdout=json.dumps(failing).encode()), digests),
    }
    for case, (bad, table) in cases.items():
        assert run.run_problem(bad, table) is not None, case
        result = {"setup": [0.1], "reference": [0.1], "traced": [],
                  "stamp": {},
                  "plain": [run.PassResult([good.runs[0], bad], True)]}
        out, lines = report_of("neg", False, result, table)
        assert out["failed"] >= 1 and not out["correct"], case
        assert any(line.startswith("fail_ratio ") and
                   float(line.split("= ")[1]) > 0 for line in lines), case
        print(f"failure counted: {case}")
    for fmt, text in (("md", "| a | 1 | 2 | FAIL |\n\nFAIL (1 of 1 checks "
                              "failed)"),
                      ("csv", "name,expected,actual,pass\na,1,2,false")):
        assert run.failing_check(fmt, text.encode()), fmt


def main() -> int:
    check_definitions()
    print("definitions ok")
    digests = run.load_digests()
    with run.scratch() as work:
        check_failures_counted(work, digests)
        check_reduced_passes(work, digests)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
