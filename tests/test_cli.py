"""CLI behavior: output formats, exit codes, examples, cache, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ncfact
from ncfact.cli import main


def child_env():
    """Environment for a CLI subprocess that imports the ncfact under test."""
    paths = [str(Path(ncfact.__file__).resolve().parents[1])]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_md(capsys):
    code, out, err = run_cli(capsys, "info", "G(3,3,4)")
    assert code == 0
    assert "| degrees | 3,4,6,9 |" in out
    assert "| order | 648 |" in out
    assert "| ll-number | 243 |" in out
    assert "| two-reflection | yes |" in out
    assert err.startswith("[info ")
    _, out, _ = run_cli(capsys, "info", "G(3,1,3)")
    assert "| two-reflection | no |" in out


def test_count_examples(capsys):
    code, out, _ = run_cli(capsys, "count", "B3", "red")
    assert code == 0 and "red: 27" in out
    code, out, _ = run_cli(capsys, "count", "D4", "fact-k", "3")
    assert code == 0 and "fact-k 3: 189" in out
    code, out, _ = run_cli(capsys, "count", "A3", "composition", "2,1")
    assert code == 0 and "composition 2,1: 6" in out
    code, out, _ = run_cli(capsys, "count", "A3", "by-class")
    assert code == 0
    assert "A1xA1: 4" in out and "A2: 8" in out


def test_verify_md_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "A3")
    assert code == 0
    assert "PASS (" in out and "FAIL" not in out
    assert "| nc-size-catalan | 14 | 14 | ok |" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "A4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"group", "checks", "rows", "meta"}
    assert payload["group"] == "A4"
    assert payload["meta"]["seconds"] is None
    assert payload["meta"]["budget"] is None
    for check in payload["checks"]:
        assert set(check) == {"name", "expected", "actual", "pass"}
        assert isinstance(check["expected"], str)
        assert check["pass"] is True
    for row in payload["rows"]:
        assert set(row) == {"class_id", "label", "d1p", "hp", "r", "u",
                            "count"}
        assert all(isinstance(v, str) for v in row.values())
    # sorted keys + indent fixed by the format contract
    assert out.rstrip("\n") == json.dumps(payload, indent=2, sort_keys=True)


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "B3", "--format", "csv")
    assert code == 0
    sections = out.rstrip("\n").split("\n\n")
    assert len(sections) == 2
    checks = list(csv.reader(sections[0].splitlines()))
    assert checks[0] == ["name", "expected", "actual", "pass"]
    assert all(line[3] == "true" for line in checks[1:])
    rows = list(csv.reader(sections[1].splitlines()))
    assert rows[0] == ["class_id", "label", "d1p", "hp", "r", "u", "count"]
    assert len(rows) == 1 + 3  # three rank-2 classes in this group


def test_verify_p_max(capsys):
    code, out, _ = run_cli(capsys, "verify", "I2(5)", "--format", "json",
                           "--p-max", "2")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert "multichains-p2" in names
    assert "multichains-p3" not in names
    assert "factorization-binomial-p2" in names


def test_table_group_and_families(capsys):
    code, out, _ = run_cli(capsys, "table", "H3")
    assert code == 0 and "PASS (1 checks)" in out
    assert out.count("| 10 |") >= 3  # every class has h' = 10

    code, out, _ = run_cli(capsys, "table", "B")
    assert code == 0 and "row-B" in out and "n**(n-2)" in out

    code, out, _ = run_cli(capsys, "table", "G24")
    assert code == 0 and "reference only" in out

    code, out, _ = run_cli(capsys, "table", "GEEN", "--format", "json")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert len(names) == 5 and all(n.startswith("row-GEEN") for n in names)

    # rank 1 has no codimension-2 classes: no checks and no rows
    code, out, _ = run_cli(capsys, "table", "A1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"] == [] and payload["rows"] == []


def test_table_gd1n_internal_identities(capsys):
    code, out, _ = run_cli(capsys, "table", "G(3,1,3)")
    assert code == 0
    assert "no table row for this family" in out
    assert "Z3xA1" in out and "A2" in out


def test_exit_code_usage_errors(capsys):
    assert run_cli(capsys, "info", "Q7")[0] == 2
    assert run_cli(capsys, "count", "A3", "composition", "2,2")[0] == 2
    assert run_cli(capsys, "count", "A3", "composition", "x,y")[0] == 2
    assert run_cli(capsys, "count", "A3", "fact-k", "0")[0] == 2
    assert run_cli(capsys, "count", "A3", "fact-k")[0] == 2
    assert run_cli(capsys, "table", "NOPE")[0] == 2
    assert run_cli(capsys, "verify", "A1", "--p-max", "0")[0] == 2


def test_exit_code_budget(capsys):
    assert run_cli(capsys, "count", "A12", "red")[0] == 3
    assert run_cli(capsys, "verify", "E7", "--budget", "10")[0] == 3


@pytest.mark.parametrize("group,phase", [
    ("G(2000,1,2)", "carrier"), ("I2(9999)", "carrier"), ("A12", "NC walk"),
    ("A3000", "carrier")])
def test_over_budget_exits_before_the_work(group, phase):
    # the predicted size is checked before the phase starts
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ncfact.cli", "verify",
                           group], capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert f"budget exceeded: {group}: {phase} needs" in proc.stderr


def test_default_budget_admits_e8_and_the_whole_g_d_1_2(capsys):
    # |NC| * |T| = 25080 * 120 for E8, and G(500,1,2)'s rank-2 parabolic
    # is all of W (order 500000), never listed
    code, out, _ = run_cli(capsys, "count", "E8", "red")
    assert code == 0 and "red: 37968750" in out
    code, out, _ = run_cli(capsys, "verify", "G(500,1,2)")
    assert code == 0 and "| G(500,1,2) | 500 | 1000 | 4 | 500 | 1 |" in out


@pytest.mark.parametrize("argv", [("verify", "A3"), ("count", "A3", "red"),
                                  ("table", "A3")])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_non_positive_budget_is_a_usage_error(capsys, argv, budget):
    code, out, err = run_cli(capsys, *argv, "--budget", budget)
    assert code == 2
    assert out == ""
    assert "--budget" in err


def test_exit_code_failed_check(capsys, monkeypatch):
    monkeypatch.setattr("ncfact.cli.count_reduced", lambda nc: 999)
    code, out, _ = run_cli(capsys, "count", "B3", "red")
    assert code == 1
    assert "red: 999" in out


def test_argparse_plumbing(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["count", "A3", "bogus-kind"]) == 2
    capsys.readouterr()


def test_help_version_and_usage_lines(capsys):
    for argv in (["-h"], ["--help"], ["count", "-h"], ["verify", "A3", "--he"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: ncfact info GROUP") and "--p-max" in out
    code, out, err = run_cli(capsys, "--version")
    assert (code, out, err) == (0, f"ncfact {ncfact.__version__}\n", "")
    code, out, err = run_cli(capsys, "count", "A3", "red", "--budget", "0")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "usage: ncfact count GROUP KIND [ARG] [OPTIONS]",
        "ncfact: error: argument --budget: must be >= 1, got 0"]


def test_option_spellings(capsys):
    # --opt value and --opt=value, unique prefixes, options before the
    # positionals, and the last repeat wins
    _, want, _ = run_cli(capsys, "count", "D4", "fact-k", "3", "--format",
                         "csv")
    for argv in (("count", "D4", "fact-k", "3", "--format=csv"),
                 ("count", "--f", "csv", "D4", "fact-k", "3"),
                 ("count", "D4", "--fo=json", "fact-k", "3", "--form", "csv")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out == want, argv
    # as with argparse, ARG must follow KIND with no option between
    assert run_cli(capsys, "count", "D4", "fact-k", "--f", "csv", "3")[0] == 2
    assert run_cli(capsys, "verify", "A3", "--c")[0] == 2  # no value
    assert run_cli(capsys, "info", "A3", "--cache", "x.json")[0] == 2


def test_determinism_and_cache(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    outputs = []
    for argv in (
        ["verify", "A4", "--format", "json"],
        ["verify", "A4", "--format", "json", "--no-cache"],
        ["verify", "A4", "--format", "json", "--cache", str(cache)],
        ["verify", "A4", "--format", "json", "--cache", str(cache)],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1
    assert cache.exists()
    stored = json.loads(cache.read_text())
    assert len(stored) == 1
    # corrupt cache must be ignored, and left as it is
    cache.write_text("{ not json")
    code, out, _ = run_cli(capsys, "verify", "A4", "--format", "json",
                           "--cache", str(cache))
    assert code == 0 and out == outputs[0]
    assert cache.read_text() == "{ not json"


def test_cache_key_distinguishes_params(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    run_cli(capsys, "count", "A3", "red", "--cache", str(cache))
    run_cli(capsys, "count", "A3", "fact-k", "2", "--cache", str(cache))
    run_cli(capsys, "count", "B3", "red", "--cache", str(cache))
    assert len(json.loads(cache.read_text())) == 3


def test_cache_entry_from_other_sources_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    argv = ("count", "A3", "red", "--format", "json")
    code, fresh, _ = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0
    (key, payload), = json.loads(cache.read_text()).items()
    digest, rest = key.split("|", 1)
    assert len(digest) == 64
    stale = json.loads(json.dumps(payload))
    stale["checks"][0]["actual"] = "999"
    # one entry under another source digest, one under the version-only key
    # that older code wrote
    cache.write_text(json.dumps({"0" * 64 + "|" + rest: stale, rest: stale}))
    code, out, _ = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0 and out == fresh
    assert json.loads(cache.read_text())[key] == payload


def test_corrupt_cache_is_left_unchanged(capsys, tmp_path):
    argv = ("count", "A3", "red", "--format", "json")
    _, fresh, _ = run_cli(capsys, *argv)
    cache = tmp_path / "cache.json"
    for junk in (b"{ not json", b"[1, 2]", b"\xff\xfe"):
        cache.write_bytes(junk)
        code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
        assert code == 0 and out == fresh
        assert "not a readable cache" in err
        assert cache.read_bytes() == junk


def test_concurrent_runs_keep_every_entry(tmp_path):
    # each run takes long enough that, without the lock, several would read
    # the empty cache before any stores
    cache = tmp_path / "cache.json"
    groups = ["A4", "B4", "D4", "H3"]
    procs = [subprocess.Popen(
        [sys.executable, "-m", "ncfact.cli", "verify", group,
         "--format", "json", "--cache", str(cache)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env())
        for group in groups]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    keys = json.loads(cache.read_text())
    assert sorted(key.split("|")[3] for key in keys) == groups


def test_large_rank_prints_exact_decimals(capsys):
    code, out, _ = run_cli(capsys, "info", "A3000", "--format", "json")
    assert code == 0
    checks = {c["name"]: c["actual"] for c in json.loads(out)["checks"]}
    assert checks["order"] == str(math.factorial(3001))
    proc = subprocess.run([sys.executable, "-m", "ncfact.cli", "verify",
                           "A3000"], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "budget exceeded" in proc.stderr


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "ncfact.cli", "info", "A2"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "| order | 6 |" in proc.stdout
    assert proc.stderr.startswith("[info ")


# `python -m ncfact.cli` flushes stdout and stderr and then leaves through
# os._exit; these runs unset PYTHONUNBUFFERED, so both streams are
# block-buffered and only that flush gets the bytes out
def script_env():
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_script(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "ncfact.cli", *argv],
                          env=script_env(), timeout=120, **kwargs)


def _untimed(err):
    return re.sub(r": \d+\.\d\ds\]$", ": -s]", err, flags=re.M)


@pytest.mark.parametrize("fmt", ["md", "json", "csv"])
def test_script_stdout_matches_main(capsys, tmp_path, fmt):
    # a pipe and a file get main()'s bytes; info A3000 prints more than
    # one buffer's worth (3001! has 9,000-odd digits)
    for argv in (("verify", "A3"), ("count", "B3", "by-class"),
                 ("table", "G(4,4,3)"), ("table", "GEEN"),
                 ("info", "A3000")):
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        piped = run_script(*argv, "--format", fmt, capture_output=True)
        path = tmp_path / "stdout"
        with open(path, "wb") as fh:
            filed = run_script(*argv, "--format", fmt, stdout=fh,
                               stderr=subprocess.DEVNULL)
        assert piped.returncode == filed.returncode == code, argv
        assert piped.stdout == path.read_bytes() == out.encode(), argv


@pytest.mark.parametrize("argv,want", [
    (("verify", "A3"), 0), (("info", "Q7"), 2),
    (("count", "A3", "fact-k"), 2), (("count", "A3", "bogus-kind"), 2),
    (("verify", "A3", "--budget", "0"), 2),
    (("verify", "E7", "--budget", "10"), 3), (("count", "A12", "red"), 3)])
def test_script_exit_codes_and_stderr(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    proc = run_script(*argv, capture_output=True, text=True)
    assert proc.returncode == code == want
    assert proc.stdout == out
    assert _untimed(proc.stderr) == _untimed(err)


def test_script_cache_miss_then_hit(tmp_path):
    # the miss stores through a temp file and a rename before the fast
    # exit, so the hit replays the same bytes and leaves nothing behind
    cache = tmp_path / "cache.json"
    argv = ("verify", "A4", "--format", "json", "--cache", str(cache))
    miss = run_script(*argv, capture_output=True)
    stored = json.loads(cache.read_text())
    hit = run_script(*argv, capture_output=True)
    assert miss.returncode == hit.returncode == 0
    assert hit.stdout == miss.stdout
    assert len(stored) == 1
    assert json.loads(cache.read_text()) == stored
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cache.json", "cache.json.lock"]
