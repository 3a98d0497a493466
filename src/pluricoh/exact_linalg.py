"""Exact linear algebra over the rationals.

Arbitrary-precision integers and `fractions.Fraction` are the only scalar
types used anywhere in this package: every rank, determinant and dimension
is an exact integer, never a float.  The rank routine is the workhorse; it
backs all section counts for blow-ups, so it is deliberately deterministic
and fraction-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction | int


def _fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense matrix of rationals (Fractions or ints), stored row-major."""

    rows: int
    cols: int
    entries: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Rational]]) -> "RatMatrix":
        grid = [tuple(_fraction(x) for x in row) for row in rows]
        if not grid:
            return cls(0, 0, ())
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows have inconsistent lengths")
        return cls(len(grid), width, tuple(x for row in grid for x in row))

    def entry(self, i: int, j: int) -> Rational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatMatrix({self.rows}x{self.cols})"


def _integer_row(row: Sequence[Rational]) -> list[int]:
    # Scaling a row by the lcm of its denominators changes no rank.
    scale = math.lcm(*(x.denominator for x in row)) if row else 1
    return [(x * scale).numerator for x in row]


def rank(matrix: RatMatrix) -> int:
    """Rank over the rationals, computed exactly.

    Rows are scaled to integers first, then one-step fraction-free (Bareiss)
    elimination runs over plain integers: the update
    ``a[i][j] = (piv * a[i][j] - a[i][c] * a[r][j]) // prev`` keeps every
    intermediate entry an exact minor of the scaled matrix, so the division
    is always exact and no fraction is ever formed.  Pivoting is
    deterministic: columns left to right, first nonzero entry scanning rows
    top-down, which makes every downstream dimension reproducible.
    """
    work = [_integer_row(matrix.row(i)) for i in range(matrix.rows)]
    m, n = matrix.rows, matrix.cols
    r = 0
    prev = 1
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][c]
        for i in range(r + 1, m):
            factor = work[i][c]
            row_i, row_r = work[i], work[r]
            for j in range(c + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == m:
            break
    return r


def vandermonde_det(xs: Sequence[Rational]) -> Fraction:
    """Product of pairwise differences prod_{i<j} (xs[j] - xs[i]).

    Equals the determinant of the square matrix whose i-th row is
    (1, x_i, x_i^2, ..., x_i^{len-1}).  Empty and singleton inputs give the
    empty product 1; a repeated value forces 0.
    """
    values = [_fraction(x) for x in xs]
    det = Fraction(1)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            det *= values[j] - values[i]
    return det


def vandermonde_matrix(xs: Sequence[Rational]) -> RatMatrix:
    """Square matrix with i-th row (1, x_i, x_i^2, ..., x_i^{len-1})."""
    values = [_fraction(x) for x in xs]
    size = len(values)
    return RatMatrix.from_rows([[x**j for j in range(size)] for x in values])


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient; zero when b exceeds a."""
    if a < 0 or b < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return math.comb(a, b)
