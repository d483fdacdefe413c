"""Exact dense linear algebra over a coefficient field.

Matrices are lists (or tuples) of rows of field scalars.  `rank`, `rref` and
`nullspace` read one incremental `Echelon`.  Reduced echelon forms are
unique, so results are canonical.
"""

from __future__ import annotations

import bisect
import math

from .fields import Field, integral


class Echelon:
    """Fraction-free row echelon form of a growing list of rows: int rows,
    over Q cleared of denominators once and kept content-free, over F_p mod p."""

    def __init__(self, field: Field, rows=()):
        self.field, self.p = field, field.p
        self.pivots: list[int] = []  # ascending
        self.rows: dict[int, list[int]] = {}  # pivot column -> row, zero before it
        for row in rows:
            self.add_row(row)

    def _eliminate(self, work: list[int], col: int, pivot_row: list[int]) -> list[int]:
        g = math.gcd(pivot_row[col], work[col])
        a, b = pivot_row[col] // g, work[col] // g
        if self.p is not None:
            return [(a * x - b * y) % self.p for x, y in zip(work, pivot_row)]
        work = [a * x - b * y for x, y in zip(work, pivot_row)]
        g = math.gcd(*work)
        return [x // g for x in work] if g > 1 else work

    def add_row(self, row) -> bool:
        """Reduce row by the pivot rows and keep it if it is independent;
        returns whether the rank grew."""
        if len(self.pivots) == len(row):
            return False
        work = integral(row)[0]
        for col in self.pivots:
            if work[col]:
                work = self._eliminate(work, col, self.rows[col])
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is not None:
            bisect.insort(self.pivots, lead)
            self.rows[lead] = work
        return lead is not None

    def rref(self):
        """(rows, pivot columns) of the reduced row echelon form.  Back-
        substitutes the pivot rows in place, last first: they stay an echelon."""
        rows, zero = self.rows, self.field.zero()
        for i, col in reversed(list(enumerate(self.pivots))):
            for later in self.pivots[i + 1:]:
                if rows[col][later]:
                    rows[col] = self._eliminate(rows[col], later, rows[later])
        scale = self.field.from_pair
        return [[scale(x, rows[c][c]) if x else zero for x in rows[c]]
                for c in self.pivots], list(self.pivots)


def rref(rows, field: Field):
    """Reduced row echelon form; returns (rows, pivot column list), the
    pivot rows first and then one zero row per dependent input row."""
    reduced, pivots = Echelon(field, rows).rref()
    return reduced + [[field.zero()] * len(row) for row in rows[len(pivots):]], pivots


def rank(rows, field: Field) -> int:
    return len(Echelon(field, rows).pivots)


def nullspace(rows, ncols: int, field: Field):
    """Kernel basis of the matrix, rows in reduced echelon form."""
    reduced, pivots = rref(rows, field)
    where = {col: r for r, col in enumerate(pivots)}
    one, zero = field.one(), field.zero()
    basis = [
        [field.neg(reduced[where[c]][fc]) if c in where else one if c == fc else zero
         for c in range(ncols)]
        for fc in range(ncols) if fc not in where
    ]
    return [tuple(row) for row in rref(basis, field)[0]]
