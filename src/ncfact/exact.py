"""Exact scalar arithmetic for root-system geometry: the ring Z[phi].

Every root coordinate, Gram entry and reflection coefficient of the
exceptional types lies in Z[phi], phi^2 = phi + 1 (with b = 0 for the
crystallographic ones).  Golden stores a + b*phi with int coefficients, so
there are no floats and no fractions anywhere.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence


class Golden(NamedTuple):
    """a + b*phi with phi the golden ratio, phi^2 = phi + 1.

    The order is lexicographic in (a, b), the tuple order: a deterministic
    total order for canonical root indexing, not the order of the real
    numbers.  The arithmetic operators replace the tuple ones.
    """

    a: int
    b: int = 0

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __add__(self, other: "Golden") -> "Golden":
        return Golden(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Golden") -> "Golden":
        return Golden(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Golden":
        return Golden(-self.a, -self.b)

    def __mul__(self, other: "Golden") -> "Golden":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return Golden(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)

    def div_exact(self, d: "Golden") -> "Golden":
        """self / d for a rational integer d; ArithmeticError on a remainder
        or when d is not rational."""
        qa, ra = divmod(self.a, d.a)
        qb, rb = divmod(self.b, d.a)
        if d.b or ra or rb:
            raise ArithmeticError(f"{self} / {d} is not exact")
        return Golden(qa, qb)


GOLDEN_ZERO = Golden(0)
GOLDEN_ONE = Golden(1)


def matrix_rank(rows: Sequence[Sequence[Golden]]) -> int:
    """Rank over Z[phi] by fraction-free elimination.

    Z[phi] is an integral domain, so row_i <- lead*row_i - f*row_pivot keeps
    the rank while clearing column entries without any division.
    """
    work: List[List[Golden]] = [list(r) for r in rows]
    if not work:
        return 0
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        lead = top[col]
        for i in range(rank + 1, len(work)):
            f = work[i][col]
            if f:
                work[i] = [lead * x - f * y for x, y in zip(work[i], top)]
        rank += 1
        if rank == len(work):
            break
    return rank
