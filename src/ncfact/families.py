"""Group-string parsing, the composition rule and closed-form family data.

Accepted grammar (case-insensitive): A<n> n>=1, B<n> n>=2, D<n> n>=2,
I2(e) e>=3, G(d,1,n) d>=2 n>=1, G(e,e,n), G(d,e,1) e<d, H3, H4, F4, E6,
E7, E8.  Inputs are canonicalized: G(2,1,n>=2) -> B<n>, G(2,1,1) -> A1,
G(e,e,2) -> I2(e) (e>=3) or D2, G(2,2,n) -> D<n>, and G(d,e,1), the
cyclic group of order d/e, -> G(d/e,1,1).  Everything here is closed-form
(degrees, order, Coxeter number) and never enumerates a group.  This is
the one module that states per-family facts: `EXCEPTIONAL` is the one list
of exceptional type names, and the rank is the number of degrees.  The
exceptional degrees come from data/groups.json, which also holds the Gram
data that rootdata builds the root systems from.
"""

from __future__ import annotations

import functools
import json
import math
import re
from pathlib import Path
from typing import NamedTuple, Sequence, Tuple

from ncfact.errors import ParseError, UnsupportedGroup

EXCEPTIONAL = ("H3", "H4", "F4", "E6", "E7", "E8")

_RE_LETTER = re.compile(r"^([ABD])\s*(\d+)$", re.IGNORECASE)
_RE_I2 = re.compile(r"^I2\s*\(\s*(\d+)\s*\)$", re.IGNORECASE)
_RE_G = re.compile(r"^G\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)$",
                   re.IGNORECASE)


@functools.cache
def group_data() -> dict:
    """data/groups.json: degrees, roots and Gram data per exceptional type."""
    path = Path(__file__).resolve().parent / "data" / "groups.json"
    return json.loads(path.read_text(encoding="utf-8"))


class GroupSpec(NamedTuple):
    """Canonical group descriptor.

    family: one of A, B, D, I2, GD1N, GEEN, H3, H4, F4, E6, E7, E8.
    d: color modulus for monomial families (B: 2, D: 2, I2/GEEN: e, GD1N: d);
       0 for A and the exceptional types.
    n: number of permuted coordinates (I2: 2); 0 for exceptional types.
    `degrees` reads d and n as stored, so `parse_group` stores them so.
    """

    family: str
    d: int = 0
    n: int = 0

    @property
    def name(self) -> str:
        if self.family in ("A", "B", "D"):
            return f"{self.family}{self.n}"
        if self.family == "I2":
            return f"I2({self.d})"
        if self.family == "GD1N":
            return f"G({self.d},1,{self.n})"
        if self.family == "GEEN":
            return f"G({self.d},{self.d},{self.n})"
        return self.family

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degrees(self) -> Tuple[int, ...]:
        d, n = self.d, self.n
        if self.family in EXCEPTIONAL:
            return tuple(group_data()[self.family]["degrees"])
        if self.family == "A":
            return tuple(range(2, n + 2))
        if self.family in ("B", "GD1N"):
            return tuple(d * i for i in range(1, n + 1))
        # D, GEEN and I2: d, 2d, ..., (n-1)d and n
        return tuple(sorted([d * i for i in range(1, n)] + [n]))

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
    def closed_form_size(self) -> int:
        """The closed forms' predicted size, ceil(rank * bit_length(h) /
        64)^2: |W| <= h^rank, and printing it, or any product of that
        length, in decimal is quadratic in its 64-bit words.  Read from
        (family, d, n), so no degree is listed or multiplied first."""
        fam, d, n = self
        if fam in EXCEPTIONAL:
            rank, h = self.rank, self.h
        else:
            rank, h = n, (n + 1 if fam == "A" else d * n
                          if fam in ("B", "GD1N") else max(d * (n - 1), n))
        return ((rank * h.bit_length() + 63) // 64) ** 2

    @property
    def is_two_reflection(self) -> bool:
        """True when every reflection has order 2 (no diagonal order > 2)."""
        return not (self.family == "GD1N" and self.d > 2)


def _canonical_g(a: int, b: int, c: int) -> GroupSpec:
    if a < 1 or b < 1 or c < 1 or a % b:
        raise UnsupportedGroup(f"G({a},{b},{c}) is not a group: G(d,e,n) "
                               "needs d, n >= 1 and e >= 1 dividing d")
    if b == a and c == 1:
        raise UnsupportedGroup(f"G({a},{a},1) is trivial")
    if b > 1 and c == 1:  # cyclic of order d/e
        return _canonical_g(a // b, 1, 1)
    if a == 1:  # so b == 1 and c >= 2
        raise UnsupportedGroup(f"G(1,1,{c}) is the symmetric group; "
                               f"use A{c - 1}")
    if b == 1:
        if a == 2:
            return (GroupSpec("A", n=1) if c == 1
                    else GroupSpec("B", d=2, n=c))
        return GroupSpec("GD1N", d=a, n=c)
    if b == a:
        if a == 2:
            return GroupSpec("D", d=2, n=c)
        if c == 2:
            return GroupSpec("I2", d=a, n=2)
        return GroupSpec("GEEN", d=a, n=c)
    raise UnsupportedGroup(f"G({a},{b},{c}) with 1 < {b} < {a} is imprimitive "
                           "but not well-generated here; only G(d,1,n) and "
                           "G(e,e,n) are supported")


def validate_composition(rank: int, comp: Sequence[int]) -> Tuple[int, ...]:
    """A factorization's block lengths: positive, summing to the rank."""
    parts = tuple(int(x) for x in comp)
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"composition {parts} must have positive parts")
    if sum(parts) != rank:
        raise ValueError(f"composition {parts} must sum to the rank {rank}")
    return parts


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
    if s.upper() in EXCEPTIONAL:
        return GroupSpec(s.upper())
    raise ParseError(f"cannot parse group string {text!r}; expected A<n>, "
                     "B<n>, D<n>, I2(e), G(d,1,n), G(e,e,n), or one of "
                     + " ".join(EXCEPTIONAL))
