"""Group-string parsing and closed-form family data.

Accepted grammar (case-insensitive): A<n> n>=1, B<n> n>=2, D<n> n>=2,
I2(e) e>=3, G(d,1,n) d>=2 n>=1, G(e,e,n), H3, H4, F4, E6, E7, E8.
Inputs are canonicalized: G(2,1,n>=2) -> B<n>, G(2,1,1) -> A1, G(e,e,2) ->
I2(e) (e>=3) or D2, G(2,2,n) -> D<n>.  Everything here is closed-form
(degrees, order, Coxeter number) and never enumerates a group.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Tuple

from ncfact.errors import ParseError, UnsupportedGroup
from ncfact.rootdata import exceptional_degrees

EXCEPTIONAL = ("H3", "H4", "F4", "E6", "E7", "E8")

_RE_LETTER = re.compile(r"^([ABD])\s*(\d+)$", re.IGNORECASE)
_RE_I2 = re.compile(r"^I2\s*\(\s*(\d+)\s*\)$", re.IGNORECASE)
_RE_G = re.compile(r"^G\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$",
                   re.IGNORECASE)
_RE_EXC = re.compile(r"^(H3|H4|F4|E6|E7|E8)$", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """Canonical group descriptor.

    family: one of A, B, D, I2, GD1N, GEEN, H3, H4, F4, E6, E7, E8.
    d: color modulus for monomial families (B: 2, D: 2, I2/GEEN: e, GD1N: d);
       0 for A and the exceptional types.
    n: number of permuted coordinates (I2: 2); 0 for exceptional types.
    """

    family: str
    d: int = 0
    n: int = 0

    @property
    def name(self) -> str:
        if self.family == "A":
            return f"A{self.n}"
        if self.family == "B":
            return f"B{self.n}"
        if self.family == "D":
            return f"D{self.n}"
        if self.family == "I2":
            return f"I2({self.d})"
        if self.family == "GD1N":
            return f"G({self.d},1,{self.n})"
        if self.family == "GEEN":
            return f"G({self.d},{self.d},{self.n})"
        return self.family

    @property
    def rank(self) -> int:
        if self.family == "A":
            return self.n
        if self.family in ("B", "D", "GD1N", "GEEN"):
            return self.n
        if self.family == "I2":
            return 2
        return {"H3": 3, "H4": 4, "F4": 4,
                "E6": 6, "E7": 7, "E8": 8}[self.family]

    @property
    def degrees(self) -> Tuple[int, ...]:
        if self.family == "A":
            return tuple(range(2, self.n + 2))
        if self.family in ("B", "GD1N"):
            d = 2 if self.family == "B" else self.d
            return tuple(d * i for i in range(1, self.n + 1))
        if self.family in ("D", "GEEN", "I2"):
            e = 2 if self.family == "D" else self.d
            n = 2 if self.family == "I2" else self.n
            return tuple(sorted([e * i for i in range(1, n)] + [n]))
        return exceptional_degrees(self.family)

    @property
    def h(self) -> int:
        return self.degrees[-1]

    @property
    def order(self) -> int:
        return math.prod(self.degrees)

    @property
    def num_reflections(self) -> int:
        return sum(d - 1 for d in self.degrees)

    @property
    def is_two_reflection(self) -> bool:
        """True when every reflection has order 2 (no diagonal order > 2)."""
        return not (self.family == "GD1N" and self.d > 2)


def _canonical_g(a: int, b: int, c: int) -> GroupSpec:
    if a < 1 or c < 1:
        raise UnsupportedGroup(f"G({a},{b},{c}) is not supported")
    if b == 1:
        if a == 1:
            raise UnsupportedGroup(f"G(1,1,{c}) is the symmetric group; "
                                   f"use A{c - 1}")
        if a == 2:
            return (GroupSpec("A", n=1) if c == 1
                    else GroupSpec("B", d=2, n=c))
        return GroupSpec("GD1N", d=a, n=c)
    if b == a:
        if a == 1:
            raise UnsupportedGroup(f"G(1,1,{c}) is the symmetric group; "
                                   f"use A{c - 1}")
        if c == 1:
            raise UnsupportedGroup(f"G({a},{a},1) is trivial")
        if a == 2:
            return GroupSpec("D", d=2, n=c)
        if c == 2:
            return GroupSpec("I2", d=a, n=2)
        return GroupSpec("GEEN", d=a, n=c)
    raise UnsupportedGroup(f"G({a},{b},{c}) with 1 < {b} < {a} is imprimitive "
                           "but not well-generated here; only G(d,1,n) and "
                           "G(e,e,n) are supported")


def parse_group(text: str) -> GroupSpec:
    """Parse and canonicalize a group string; ParseError/UnsupportedGroup."""
    s = text.strip()
    m = _RE_LETTER.match(s)
    if m:
        fam, n = m.group(1).upper(), int(m.group(2))
        if fam == "A":
            if n < 1:
                raise UnsupportedGroup("A(n) needs n >= 1")
            return GroupSpec("A", n=n)
        if fam == "B":
            if n < 2:
                raise UnsupportedGroup("B(n) needs n >= 2; B1 is A1")
            return GroupSpec("B", d=2, n=n)
        if n < 2:
            raise UnsupportedGroup("D(n) needs n >= 2")
        return GroupSpec("D", d=2, n=n)
    m = _RE_I2.match(s)
    if m:
        e = int(m.group(1))
        if e < 3:
            raise UnsupportedGroup("I2(e) needs e >= 3; I2(2) is D2")
        return GroupSpec("I2", d=e, n=2)
    m = _RE_G.match(s)
    if m:
        return _canonical_g(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    m = _RE_EXC.match(s)
    if m:
        return GroupSpec(m.group(1).upper())
    raise ParseError(f"cannot parse group string {text!r}; expected A<n>, "
                     "B<n>, D<n>, I2(e), G(d,1,n), G(e,e,n), or one of "
                     "H3 H4 F4 E6 E7 E8")
