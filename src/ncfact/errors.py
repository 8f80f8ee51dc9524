"""Exception types raised by the public API.

Every error carries a human-readable message; callers that need to branch on
failure kind catch the specific class.  CLI maps ParseError/UnsupportedGroup
to exit code 2 and BudgetExceeded to exit code 3.  `exact_quotient` divides
integers that a closed form says divide exactly, or raises NonIntegerResult.
"""

from __future__ import annotations

import math


class NcfactError(Exception):
    """Base class for all package errors."""


class ParseError(NcfactError):
    """A group string does not match the accepted grammar."""


class UnsupportedGroup(NcfactError):
    """The group string parses but names no supported family/parameters."""


class RankTooSmall(NcfactError):
    """The requested operation needs a higher-rank group."""


class BudgetExceeded(NcfactError):
    """A phase's predicted work, or an orbit, would pass the work budget;
    the message names the group, the phase, the size and the budget."""


class NonIntegerResult(NcfactError):
    """A closed-form expression that must be an integer is not one."""


def exact_quotient(num: int, den: int, what: str) -> int:
    """num / den for den > 0, or NonIntegerResult naming what."""
    value, rest = divmod(num, den)
    if rest:
        g = math.gcd(num, den)
        raise NonIntegerResult(f"{what} = {num // g}/{den // g} is not an "
                               "integer")
    return value


class NotLengthTwo(NcfactError):
    """The element is not of reflection length two."""


class NotInNC(NcfactError):
    """The element does not lie below the Coxeter element."""


class IndexOutOfRange(NcfactError):
    """A position index into a factorization is out of range."""


class NoTableRow(NcfactError):
    """No closed-form per-class row covers the requested group."""
