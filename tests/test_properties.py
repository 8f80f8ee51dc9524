"""Randomized invariants: length axioms, NC geometry, Hurwitz moves, and
CLI exit codes under fuzzed argv.

Exhaustive where the group is small; seeded sampling or hypothesis where
the state space is too large to sweep.
"""

import io
import itertools
import random
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncfact.cli import main, parse_args
from ncfact.facto import (count_fact_by_composition, enumerate_reduced,
                          hurwitz_move)
from oracle import absolute_leq, build_parser, elements, reflection_length

SEED = 20260814


def test_length_axioms_sampled(group_of):
    for name in ("B3", "H3", "F4", "G(3,3,4)", "G(3,1,3)"):
        g = group_of(name)
        elems = list(elements(g))
        rng = random.Random(SEED)
        for _ in range(300):
            u, v = rng.choice(elems), rng.choice(elems)
            lu, lv = reflection_length(g, u), reflection_length(g, v)
            assert reflection_length(g, g.inverse(u)) == lu
            conj = g.multiply(g.multiply(v, u), g.inverse(v))
            assert reflection_length(g, conj) == lu
            luv = reflection_length(g, g.multiply(u, v))
            assert abs(lu - lv) <= luv <= lu + lv


def test_length_parity_real(group_of):
    # real groups: multiplying by a reflection flips length by exactly one
    for name in ("B3", "H3"):
        g = group_of(name)
        rng = random.Random(SEED)
        elems = list(elements(g))
        for _ in range(200):
            w = rng.choice(elems)
            r = rng.choice(g.reflections)
            assert abs(reflection_length(g, g.multiply(r, w))
                       - reflection_length(g, w)) == 1


def test_length_equals_codim_real_exhaustive(group_of):
    for name in ("A3", "B3", "H3"):
        g = group_of(name)
        for w in list(elements(g)):
            assert reflection_length(g, w) == g.fixed_space_codim(w)


def test_length_vs_codim_complex_exhaustive(group_of, nc_of):
    for name in ("G(3,3,3)", "G(3,1,3)", "G(4,4,3)"):
        g = group_of(name)
        in_nc = set(nc_of(name).perms)
        for w in list(elements(g)):
            length, codim = reflection_length(g, w), g.fixed_space_codim(w)
            assert length >= codim
            if w.perm in in_nc:
                assert length == codim


def test_descent_chains_stay_noncrossing(group_of, nc_of):
    # walking down from c by length-reducing reflections never leaves NC
    for name in ("B3", "F4", "H3"):
        g = group_of(name)
        in_nc = set(nc_of(name).perms)
        rng = random.Random(SEED)
        for _ in range(60):
            w = g.coxeter
            while reflection_length(g, w) > 0:
                downs = [r for r in g.reflections
                         if (reflection_length(g, g.multiply(r, w))
                             == reflection_length(g, w) - 1)]
                w = g.multiply(rng.choice(downs), w)
                assert w.perm in in_nc
                assert absolute_leq(g, w, g.coxeter)


def test_absolute_order_antisymmetry_sampled(group_of):
    g = group_of("F4")
    rng = random.Random(SEED)
    elems = list(elements(g))
    for _ in range(400):
        u, v = rng.choice(elems), rng.choice(elems)
        if absolute_leq(g, u, v) and absolute_leq(g, v, u):
            assert u == v


@settings(deadline=None, max_examples=60)
@given(moves=st.lists(st.tuples(st.integers(1, 2), st.sampled_from((1, -1))),
                      max_size=12),
       start=st.integers(0, 26))
def test_hurwitz_walk_invariants(group_of, nc_of, moves, start):
    g = group_of("B3")
    fact = enumerate_reduced(nc_of("B3"))[start]
    cur = fact
    for i, direction in moves:
        cur = hurwitz_move(g, cur, i, direction=direction)
        prod = g.identity
        for w in cur.factors:
            prod = g.multiply(prod, w)
        assert prod == g.coxeter
        assert all(reflection_length(g, w) == 1 for w in cur.factors)
    for i, direction in reversed(moves):
        cur = hurwitz_move(g, cur, i, direction=-direction)
    assert cur == fact


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_composition_count_order_invariant(nc_of, data):
    name = data.draw(st.sampled_from(("A4", "B3", "G(3,3,3)")))
    nc = nc_of(name)
    n = nc.group.rank
    parts = []
    remaining = n
    while remaining:
        p = data.draw(st.integers(1, remaining))
        parts.append(p)
        remaining -= p
    base = count_fact_by_composition(nc, tuple(parts))
    for perm in itertools.permutations(parts):
        assert count_fact_by_composition(nc, perm) == base


@settings(deadline=None, max_examples=100)
@given(i=st.integers(0, 10 ** 9), j=st.integers(0, 10 ** 9))
def test_multiplication_length_subadditive_hyp(group_of, i, j):
    g = group_of("G(4,4,3)")
    elems = list(elements(g))
    u, v = elems[i % len(elems)], elems[j % len(elems)]
    assert (reflection_length(g, g.multiply(u, v))
            <= reflection_length(g, u) + reflection_length(g, v))


# group strings in the grammar's shape, with numbers of at most 4 digits;
# small numbers are drawn as often as large ones so that some groups are
# small enough to enumerate
_NUM = st.one_of(st.integers(0, 12), st.integers(0, 9999)).map(str)


def _junk(max_size):
    # argparse accepts "--c" for --cache; no example may write a cache
    return st.text(max_size=max_size).filter(
        lambda t: not t.startswith("--c"))


_GROUP = st.one_of(
    st.builds(lambda f, n: f + n, st.sampled_from("ABDabd"), _NUM),
    st.builds(lambda e: f"I2({e})", _NUM),
    st.builds(lambda d, b, n: f"G({d},{b},{n})", _NUM,
              st.one_of(st.just("1"), _NUM), _NUM),
    st.builds(lambda e, n: f"G({e},{e},{n})", _NUM, _NUM),
    st.sampled_from(("H3", "H4", "F4", "E6", "E7", "E8", "h3", "GEEN",
                     "GD1N", "G24", "B", "I2")),
    _junk(12),
)
_KIND_ARG = st.one_of(
    st.tuples(st.sampled_from(("red", "by-class"))),
    st.tuples(st.just("fact-k"), _NUM),
    st.tuples(st.just("composition"),
              st.lists(st.integers(0, 9), min_size=1, max_size=5).map(
                  lambda parts: ",".join(map(str, parts)))),
    st.tuples(st.sampled_from(("fact-k", "composition"))),
    st.tuples(_junk(8)),
)
_FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--format"),
              st.sampled_from(("md", "json", "csv", "xml"))),
    st.tuples(st.just("--p-max"), st.integers(-1, 5).map(str)),
    st.tuples(st.just("--no-cache")),
    st.tuples(_junk(6)),
), max_size=3)


# Every enumerating run gets --budget 65536, which admits every group of
# order at most 256; the largest of them, G(256,1,1), needs 256 points *
# 255 reflections = 65280 for its carrier.  The budget bounds work, not
# |W|, so it also admits e.g. A7, E6 and H4 (|NC| * |T| at most 65536),
# each under a second.
@settings(deadline=None, max_examples=60)
@given(command=st.sampled_from(("info", "verify", "count", "table")),
       group=_GROUP, kind_arg=_KIND_ARG, flags=_FLAGS)
def test_cli_fuzz_exit_codes(command, group, kind_arg, flags):
    argv = [command, group]
    if command == "count":
        argv += list(kind_arg)
    for flag in flags:
        argv += list(flag)
    if command != "info":
        argv += ["--budget", "65536"]
    assert main(argv) in (0, 1, 2, 3)


def _parsed(parse, argv):
    """The fields a parser reads from argv, or its exit status."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = 0 if exc.code in (0, None) else 2
    return result if isinstance(result, int) else vars(result)


def _reference(argv):
    return build_parser().parse_args(argv)


# option spellings: prefixes, `=` values, help and version in their
# argparse forms, `--`, negative numbers and tokens with spaces
_TOKEN = st.one_of(
    st.sampled_from((
        "--format", "--form", "--f=json", "--format=", "--budget", "--bud",
        "--b=7", "--budget=0", "--cache", "--ca=x.json", "--c", "--no-cache",
        "--n", "--no-cache=1", "--p-max", "--p=2", "--p-max=-1", "-h",
        "--help", "--he", "-hh", "-hx", "-h=h", "--help=1", "--version",
        "--v", "--", "-", "-1", "-2.5", "-x", "--x", "--=x", "-x y", "0",
        "7", "md", "json", "xml", "red", "fact-k", "by-class", "A3", "")),
    _junk(6),
)
_COMMAND = st.one_of(st.sampled_from(("info", "verify", "count", "table")),
                     _TOKEN)


@settings(deadline=None, max_examples=300)
@given(command=_COMMAND, group=_GROUP, kind_arg=_KIND_ARG, flags=_FLAGS,
       extra=st.lists(st.tuples(st.integers(0, 8), _TOKEN), max_size=4))
def test_argv_parser_agrees_with_argparse(command, group, kind_arg, flags,
                                          extra):
    # the fuzz test's argv shapes, with tokens dropped in anywhere
    argv = [command, group, *kind_arg]
    for flag in flags:
        argv += list(flag)
    for at, token in extra:
        argv.insert(min(at, len(argv)), token)
    # the one deliberate difference: argparse drops the first "--" from
    # the tokens of each positional and each `--opt=` value, so a second
    # "--" or a value "--" reads as None or [], where this parser keeps it
    assume(argv.count("--") < 2
           and not any(token.endswith("=--") for token in argv))
    assert _parsed(parse_args, argv) == _parsed(_reference, argv), argv


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"^\$ ncfact (.*)$", text, flags=re.M)
    lines += re.findall(r"`ncfact\s+((?:info|verify|count|table|-)[^`]*)`",
                        text)
    lines += re.findall(r"python3? -m ncfact\.cli (.*)$", text, flags=re.M)
    return sorted({" ".join(line.split()) for line in lines})


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_parse_as_with_argparse(line):
    argv = shlex.split(line, comments=True)
    assert _parsed(parse_args, argv) == _parsed(_reference, argv)
