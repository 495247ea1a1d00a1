"""The classical Poupard triangle, tangent numbers, and the generic
Poupard-matrix predicate.

The triangle rows f_n(1..2n+1) solve the one-dimensional difference system

    f_n(m+2) - 2 f_n(m+1) + f_n(m) + 2 f_{n-1}(m) = 0

with f_0 = [1], f_n(1) = 0 and f_n(2) = sum of row n-1.  Row sums are the
odd tangent numbers divided by powers of two (A008301 reads the rows
flattened), and they are the package's single source of tangent numbers.
"""

from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Sequence, Tuple


class Triangle(NamedTuple):
    """Rows 0..n_max of the triangle; row n has entries f_n(1..2n+1)."""

    rows: Tuple[Tuple[int, ...], ...]

    def value(self, n: int, m: int) -> int:
        """f_n(m) with the zero convention outside 1 <= m <= 2n+1."""
        row = self.row(n)
        if 1 <= m <= len(row):
            return row[m - 1]
        return 0

    def row(self, n: int) -> Tuple[int, ...]:
        """Row n, entries f_n(1..2n+1); IndexError unless 0 <= n <= n_max."""
        if n < 0 or n >= len(self.rows):
            raise IndexError(f"row {n} not computed")
        return self.rows[n]

    def to_json(self) -> str:
        return json.dumps({"rows": [list(r) for r in self.rows]}, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Triangle":
        data = json.loads(text)
        if not isinstance(data, dict) or "rows" not in data:
            raise ValueError('expected a JSON object with key "rows"')
        rows = data["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError('"rows" must be a list of lists')
        # exact entries only: no floats, strings or booleans to coerce
        if any(type(v) is not int for r in rows for v in r):
            raise ValueError("every entry must be a JSON integer")
        for n, r in enumerate(rows):
            if len(r) != 2 * n + 1:
                raise ValueError(f"row {n} must have {2 * n + 1} entries, got {len(r)}")
        return Triangle(tuple(tuple(r) for r in rows))

    def bfile_lines(self) -> List[str]:
        """Flat OEIS-style b-file: `index value` per line from 1, rows left to right."""
        values = (v for row in self.rows for v in row)
        return [f"{idx} {v}" for idx, v in enumerate(values, 1)]


def poupard_triangle(n_max: int) -> Triangle:
    """Rows 0..n_max computed left to right from the two initial entries."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows: List[Tuple[int, ...]] = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[n - 1]
        row = [0] * (2 * n + 1)
        row[0] = 0
        row[1] = sum(prev)
        for m in range(1, 2 * n):  # fills entries m+2 = 3 .. 2n+1 (1-based)
            prev_m = prev[m - 1] if m <= len(prev) else 0
            row[m + 1] = 2 * row[m] - row[m - 1] - 2 * prev_m
        rows.append(tuple(row))
    return Triangle(tuple(rows))


def tangent_numbers(count: int) -> List[int]:
    """T_1, T_3, ..., T_{2*count-1}, each 2^n times the sum of triangle row n."""
    if count < 1:
        raise ValueError("count must be positive")
    return [sum(row) * 2**n for n, row in enumerate(poupard_triangle(count - 1).rows)]


class PoupardCheck(NamedTuple):
    ok: bool
    violation: Optional[Tuple[int, int]]  # first (i, j) where (9.1)-style rule fails


def is_poupard_matrix(grid: Sequence[Sequence[int]]) -> PoupardCheck:
    """Check g[i][j+2] - 2*g[i+1][j+1] + g[i+2][j] + 2*g[i][j] = 0 for every
    in-bounds 0-based (i, j) of a rectangular grid."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    for r in grid:
        if len(r) != cols:
            raise ValueError("grid must be rectangular")
    for i in range(rows - 2):
        for j in range(cols - 2):
            if grid[i][j + 2] - 2 * grid[i + 1][j + 1] + grid[i + 2][j] + 2 * grid[i][j] != 0:
                return PoupardCheck(False, (i, j))
    return PoupardCheck(True, None)
