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
from ncfact import errors
from ncfact.cli import _count_arg, cmd_count, cmd_info, cmd_table, main
from ncfact.families import parse_group
from ncfact.report import is_report
from ncfact.verify import run_verify


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


def test_info_of_a_cyclic_g_d_e_1_is_its_canonical_group(capsys):
    # G(4,2,1) is cyclic of order 2, i.e. A1
    assert run_cli(capsys, "info", "G(4,2,1)")[:2] == run_cli(
        capsys, "info", "A1")[:2]


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


# every error class, with the exit code and the stderr label it ends a run
# with
ERROR_ENDINGS = [
    (errors.NcfactError, 2, "error: "), (errors.ParseError, 2, "error: "),
    (errors.UnsupportedGroup, 2, "error: "),
    (errors.RankTooSmall, 2, "error: "),
    (errors.BudgetExceeded, 3, "budget exceeded: "),
    (errors.NonIntegerResult, 1, "non-integer result: "),
    (errors.NotLengthTwo, 2, "error: "), (errors.NotInNC, 2, "error: "),
    (errors.IndexOutOfRange, 2, "error: "), (errors.NoTableRow, 2, "")]


def test_error_endings_cover_every_error_class():
    classes = {errors.NcfactError}
    todo = [errors.NcfactError]
    while todo:
        found = todo.pop().__subclasses__()
        classes.update(found)
        todo += found
    assert {cls for cls, _, _ in ERROR_ENDINGS} == classes


@pytest.mark.parametrize("cls,code,label", ERROR_ENDINGS,
                         ids=[cls.__name__ for cls, _, _ in ERROR_ENDINGS])
def test_every_error_class_ends_main_with_its_code_and_label(
        capsys, monkeypatch, cls, code, label):
    def dispatch(args):
        raise cls("the message")

    monkeypatch.setattr("ncfact.cli._dispatch", dispatch)
    assert run_cli(capsys, "verify", "A3") == (
        code, "", f"ncfact: {label}the message\n")


@pytest.mark.parametrize("argv,want", [
    (("fact-k", "x"), 2), (("fact-k", "0"), 2),
    (("composition", "x,y"), 2), (("composition", "1,11"), 3),
    (("composition", "1,2"), 2), (("composition", "0,12"), 2),
    (("red", "5"), 2), (("by-class", "x"), 2)])
def test_count_checks_arg_before_the_work(capsys, argv, want):
    # A12's NC walk is over the default budget: a bad ARG is reported
    # before it, and a composition of the rank 12 reaches it
    code, out, err = run_cli(capsys, "count", "A12", *argv)
    assert (code, out) == (want, "")
    assert err.startswith("ncfact: error: " if want == 2
                          else "ncfact: budget exceeded: A12: NC walk")


@pytest.mark.parametrize("argv", [
    ("count", "A3", "fact-k", "x"), ("count", "A3", "fact-k", "0"),
    ("count", "A3", "fact-k"), ("count", "A3", "composition", "x,y"),
    ("count", "A3", "composition", "2,-1"),
    ("count", "A3", "composition", "2,2"), ("count", "A3", "red", "5"),
    ("count", "A3", "by-class", "x"), ("count", "Q7", "red"),
    ("table", "NOPE"), ("table", "G(3,5,2)")])
def test_usage_errors_return_before_any_build(capsys, monkeypatch, tmp_path,
                                              argv):
    def build_group(*args, **kwargs):
        raise AssertionError("build_group called")

    monkeypatch.setattr("ncfact.groups.build_group", build_group)
    cache = tmp_path / "cache.json"
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert (code, out) == (2, "") and err.startswith("ncfact: error: ")
    assert not cache.exists()


def test_unknown_table_name_makes_no_cache_path(capsys, tmp_path):
    # a name that is neither a group nor a family is refused before the
    # cache's directory or lock is made
    new = tmp_path / "new"
    code, out, err = run_cli(capsys, "table", "NOPE",
                             "--cache", str(new / "c.json"))
    assert (code, out) == (2, "")
    assert "is neither a group nor a table family" in err
    assert not new.exists()


def test_table_family_is_never_cached(capsys, tmp_path):
    # a family's rows are closed form: answered, but never stored
    cache = tmp_path / "p.json"
    _, fresh, _ = run_cli(capsys, "table", "B")
    code, out, _ = run_cli(capsys, "table", "B", "--cache", str(cache))
    assert (code, out) == (0, fresh)
    assert os.listdir(tmp_path) == []


def test_table_parses_the_group_once(capsys, monkeypatch):
    calls = []

    def spy(text):
        calls.append(text)
        return parse_group(text)

    monkeypatch.setattr("ncfact.cli.parse_group", spy)
    for argv in (("table", "H3"), ("table", "b")):
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert calls == [argv[1]]


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


@pytest.mark.parametrize("argv,phase", [
    (("verify", "A3", "--p-max", "3000000", "--budget", "1000"),
     "A3: multichains needs 164999780,"),
    (("info", "A100000"), "A100000: closed forms needs 705592969,")])
def test_p_max_and_closed_forms_are_charged_before_the_work(argv, phase):
    # (p_max - 4) * Cat^(2)(A3) = 2999996 * 55, and ceil(100000 *
    # bit_length(100001) / 64)^2 = 26563^2, each checked before it runs
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ncfact.cli", *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert time.perf_counter() - start < 2.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"ncfact: budget exceeded: {phase}")


def test_closed_forms_charge_every_command_first(capsys):
    # info A3000 charges ceil(3000 * 12 / 64)^2 = 563^2 = 316969, before
    # any other phase or check of the command line
    code, out, _ = run_cli(capsys, "info", "A3000", "--budget", "316969")
    assert code == 0 and str(math.factorial(3001)) in out
    for argv in (("info", "A3000"), ("verify", "A3000"),
                 ("count", "A3000", "composition", "1,2"),
                 ("table", "A3000")):
        code, out, err = run_cli(capsys, *argv, "--budget", "316968")
        assert (code, out) == (3, "")
        assert err == ("ncfact: budget exceeded: A3000: closed forms needs "
                       "316969, over the budget 316968\n")


def test_p_max_past_the_default_is_charged(capsys):
    # Cat^(2)(A3) = 55 per step past p_max 4; A3's other phases need at
    # most 84 (the NC walk, 14 * 6)
    code, _, _ = run_cli(capsys, "verify", "A3", "--p-max", "6",
                         "--budget", "110")
    assert code == 0
    code, out, err = run_cli(capsys, "verify", "A3", "--p-max", "7",
                             "--budget", "110")
    assert (code, out) == (3, "")
    assert "A3: multichains needs 165, over the budget 110" in err


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


@pytest.mark.parametrize("p_max", ["0", "-1"])
def test_non_positive_p_max_is_a_usage_error(capsys, p_max):
    code, out, err = run_cli(capsys, "verify", "A3", "--p-max", p_max)
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "usage: ncfact verify GROUP [OPTIONS]",
        f"ncfact: error: argument --p-max: must be >= 1, got {p_max}"]


def test_exit_code_failed_check(capsys, monkeypatch):
    monkeypatch.setattr("ncfact.facto.count_reduced", lambda nc: 999)
    code, out, _ = run_cli(capsys, "count", "B3", "red")
    assert code == 1
    assert "red: 999" in out


@pytest.mark.parametrize("fmt", ["md", "json", "csv"])
def test_a_failing_verify_report_fails_in_every_format(capsys, monkeypatch,
                                                       fmt):
    # one wrong closed form fails one check; the benchmark's failing_check
    # reads md failures by the FAIL line and the `| FAIL |` cell
    monkeypatch.setattr("ncfact.closedform.ll_number", lambda spec: 17)
    code, out, _ = run_cli(capsys, "verify", "A3", "--format", fmt)
    assert code == 1
    if fmt == "md":
        lines = out.splitlines()
        assert "| reduced-count | 17 | 16 | FAIL |" in lines
        assert lines[-1] == "FAIL (1 of 25 checks failed)"
    elif fmt == "csv":
        assert "reduced-count,17,16,false" in out.splitlines()
    else:
        failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
        assert failed == [{"name": "reduced-count", "expected": "17",
                           "actual": "16", "pass": False}]


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


@pytest.mark.parametrize("argv,lines", [
    (("verify", "A3", "--budget", "x"),
     ["usage: ncfact verify GROUP [OPTIONS]",
      "ncfact: error: argument --budget: invalid int value: 'x'"]),
    (("verify", "A3", "--no-cache=1"),
     ["usage: ncfact verify GROUP [OPTIONS]",
      "ncfact: error: argument --no-cache: ignored explicit argument '1'"]),
    (("count", "A3"),
     ["usage: ncfact count GROUP KIND [ARG] [OPTIONS]",
      "ncfact: error: the following arguments are required: kind"]),
    (("verify", "A3", "--fo"),
     ["usage: ncfact verify GROUP [OPTIONS]",
      "ncfact: error: argument --format: expected one argument"]),
])
def test_usage_error_text(capsys, argv, lines):
    # the property test against argparse compares exit statuses only; the
    # text differs from argparse's on purpose (HELP's usage line, the prog
    # name, `invalid int value`, no list of choices), so it is pinned here
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err.splitlines()) == (2, "", lines)


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
    # one entry under another source digest, one under a key with no
    # digest at all
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


def test_every_fresh_report_is_cache_shaped():
    # what a command builds is what a cache hit accepts and replays
    b3 = parse_group("B3")
    reports = [cmd_info(b3), cmd_table(parse_group("H3"), None),
               cmd_table("GEEN", None), run_verify(parse_group("A1")),
               run_verify(b3)]
    reports += [cmd_count(b3, kind, arg, _count_arg(b3.rank, kind, arg), None)
                for kind, arg in (("red", None), ("fact-k", "2"),
                                  ("composition", "2,1"), ("by-class", None))]
    for rep in reports:
        assert rep["checks"] or rep["rows"], rep["group"]
        assert is_report(rep), rep["group"]


@pytest.mark.parametrize("entry", [7, {"group": "A3"}])
@pytest.mark.parametrize("fmt", ["md", "json"])
def test_malformed_cache_hit_is_left_unchanged(capsys, tmp_path, entry, fmt):
    argv = ("count", "A3", "red", "--format", fmt)
    cache = tmp_path / "cache.json"
    code, fresh, _ = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0
    key, = json.loads(cache.read_text())
    cache.write_text(json.dumps({key: entry}))
    junk = cache.read_bytes()
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0 and out == fresh
    assert "not a readable cache" in err
    assert cache.read_bytes() == junk


def test_unusable_cache_path_computes_without_it(capsys, tmp_path,
                                                 monkeypatch):
    argv = ("count", "A3", "red")
    _, fresh, _ = run_cli(capsys, *argv)
    # the cache's directory is a file
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "ncfact.cli", *argv,
         "--cache", str(blocker / "cache.json")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0 and proc.stdout == fresh
    assert "cannot use" in proc.stderr
    assert "Traceback" not in proc.stderr
    # the lock cannot be opened
    (tmp_path / "locked.json.lock").mkdir()
    code, out, err = run_cli(capsys, *argv,
                             "--cache", str(tmp_path / "locked.json"))
    assert code == 0 and out == fresh and "cannot use" in err
    # the store fails once the work is done
    import tempfile

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    cache = tmp_path / "cache.json"
    code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
    assert code == 0 and out == fresh and "cannot use" in err
    assert not cache.exists()


@pytest.mark.parametrize("slash", ["", "/"])
def test_a_directory_is_no_cache_and_gets_no_lock(capsys, tmp_path, slash):
    # refused before the lock is opened: no PATH.lock beside the
    # directory, and with a trailing slash no .lock inside it
    argv = ("count", "A3", "red")
    _, fresh, _ = run_cli(capsys, *argv)
    directory = tmp_path / "dir"
    directory.mkdir()
    code, out, err = run_cli(capsys, *argv, "--cache", f"{directory}{slash}")
    assert code == 0 and out == fresh
    assert f"cannot use {directory}{slash} as a cache" in err
    assert sorted(tmp_path.rglob("*")) == [directory]


@pytest.mark.parametrize("path", ["", os.path.join("newdir", "sub", "")])
def test_a_path_naming_no_file_makes_nothing(capsys, tmp_path, monkeypatch,
                                             path):
    # "" names no file (it would resolve to the working directory), and
    # newdir/sub/ names a directory though neither exists yet: each is
    # refused with the note before any directory or .lock is made
    argv = ("count", "A3", "red")
    _, fresh, _ = run_cli(capsys, *argv)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--cache", path)
    assert code == 0 and out == fresh
    assert f"cannot use {path} as a cache" in err
    assert sorted(tmp_path.rglob("*")) == []


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
    assert sorted(key.split("|")[2] for key in keys) == groups


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
