"""Shared fixtures: session-cached groups and their NC posets.

Group construction (root systems, and the BFS length tables the oracle
tests build) is the expensive part of most tests, so `group_of` memoizes
per group name for the session; a group keeps its own NC(W, c), so
`nc_of` asks `build_nc` for it.
"""

import pytest

from ncfact import build_group, build_nc

_GROUPS = {}


@pytest.fixture(scope="session")
def group_of():
    def get(name):
        if name not in _GROUPS:
            _GROUPS[name] = build_group(name)
        return _GROUPS[name]
    return get


@pytest.fixture(scope="session")
def nc_of(group_of):
    def get(name):
        return build_nc(group_of(name))
    return get


# acceptance-criterion reporting: tests record one line each; the lines are
# echoed immediately (visible under -s) and again in the terminal summary
# so a plain `pytest -v` run shows every verdict
CRITERION_LINES = []


@pytest.fixture
def criterion():
    def report(num, ok, detail=""):
        text = f"[criterion {num}] {'PASS' if ok else 'FAIL'}"
        if detail:
            text += f" - {detail}"
        CRITERION_LINES.append(text)
        print(text)
        assert ok, text
    return report


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
