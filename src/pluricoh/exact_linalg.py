"""Exact rank over the rationals of integer matrices.

The module holds two things: `RatMatrix`, a dense matrix that refuses any
entry but a Python int, and `rank`, its rank over the rationals.  Points
with rational coordinates are cleared to integers before a matrix is formed
(`blowup.jet_matrix`), so every rank is an exact integer, never a float.
`rank` backs all section counts for blow-ups, so it is deterministic and
every answer it gives is proved.

`rank` has two routes.  When min(rows, cols) times the largest entry bit
length exceeds MODULAR_RULE_BITS and min(rows, cols) is at most
MODULAR_MAX_PIVOTS, one elimination modulo the prime MODULAR_PRIME =
2^27 - 39 runs first.  It packs each row into one Python int with a 64-bit
slot per column, so packing and unpacking run in C through `array("Q")`
and updating a row is one big-int multiply-add.  Reduction mod p is a ring
map from the integers, so every minor that vanishes over the integers
vanishes mod p and the rank mod p never exceeds the rational rank; a rank
mod p of min(rows, cols), the largest any matrix of that shape can have,
is therefore the rational rank.  Every other matrix, and every small one,
goes to fraction-free Bareiss elimination over the integers, which is
exact on all inputs, including those where p divides every maximal minor.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RatMatrix:
    """Immutable dense integer matrix, stored row-major; its rank is taken over the rationals."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        others = set(map(type, self.entries)) - {int}  # exactly int: bool, float and Fraction are refused
        if others:
            raise TypeError(f"matrix entries must be int, got {', '.join(sorted(t.__name__ for t in others))}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "RatMatrix":
        grid = [tuple(row) for row in rows]
        if not grid:
            return cls(0, 0, ())
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("rows have inconsistent lengths")
        return cls(len(grid), width, tuple(x for row in grid for x in row))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatMatrix({self.rows}x{self.cols})"


# The modular route's prime, 2^27 - 39, the largest prime below 2^27.  It is
# fixed, so the route each matrix takes is reproducible; the rank itself never
# depends on it.  It is this small so that every packed slot is exactly 64
# bits: a slot starts reduced, below p, and each of a row's at most `full`
# updates adds (p - f) * y with f, y < p, so no slot reaches
# (p - 1) + full * (p - 1)^2, which is below 2^64 for up to
# MODULAR_MAX_PIVOTS = 1024 pivots and not for 1025.  That covers every jet
# matrix within the cell cap (smaller side at most isqrt(50,000) = 223) and
# the Halphen target at k = 10 (495 rows).  A matrix whose smaller side is
# larger goes straight to Bareiss.
MODULAR_PRIME = 2**27 - 39
MODULAR_MAX_PIVOTS = 1024
assert (MODULAR_PRIME - 1) + MODULAR_MAX_PIVOTS * (MODULAR_PRIME - 1) ** 2 < 2**64
assert array("Q").itemsize == 8, "packed slots need 64-bit unsigned array items"

# min(rows, cols) * (largest entry bit length) above which `rank` tries the
# modular route first.  A rank-deficient matrix above it pays for a modular
# elimination that proves nothing, so the rule waits until the modular route
# is well ahead, not just ahead.  On random full-rank integer matrices
# (square and 2:1 both ways, smaller side 8 to 64, entries of 4 to 320
# bits) the packed pass first wins near a product of 256 for side 8 and
# already at 128 from side 16, wins on every shape from 768, and 2048 is
# still the smallest product at which Bareiss took at least three times as
# long on every shape swept (8 x 8 at 1536: 2.7 times).  Special plane
# configurations are rank-deficient and many fall just below 2048 (12
# collinear points at k = 3, product 1815: a 2.4 ms pass would be wasted
# before an 11 ms Bareiss), so a lower rule would slow them.
MODULAR_RULE_BITS = 2048


def rank(matrix: RatMatrix) -> int:
    """Rank over the rationals of the integer matrix, computed exactly.

    When min(rows, cols) times the largest entry bit length exceeds
    MODULAR_RULE_BITS and min(rows, cols) is at most MODULAR_MAX_PIVOTS, the
    rows are first eliminated modulo MODULAR_PRIME.  The rank mod p is at
    most the rational rank, so if it reaches min(rows, cols) it is returned
    as the certified rank.  Otherwise, or below the rule, one-step
    fraction-free (Bareiss) elimination runs over the integers and its
    answer is returned.
    """
    full = min(matrix.rows, matrix.cols)
    entries = matrix.entries
    bits = max(max(entries), -min(entries)).bit_length() if entries else 0
    if full * bits > MODULAR_RULE_BITS and full <= MODULAR_MAX_PIVOTS and _has_full_rank_mod_p(matrix):
        return full
    return _bareiss_rank([list(matrix.row(i)) for i in range(matrix.rows)], matrix.cols)


def _has_full_rank_mod_p(matrix: RatMatrix) -> bool:
    """Whether the integer matrix has rank min(rows, cols) modulo MODULAR_PRIME.

    Gaussian elimination over GF(p) on packed rows: each row is one int with
    a 64-bit slot per column, the current first column in the low bits, and
    min(rows, cols) must be at most MODULAR_MAX_PIVOTS.  All entries are
    reduced and packed in one pass through `array("Q")`.  Processing a
    column shifts it out of every row.  Only the pivot row is unpacked,
    reduced mod p and scaled to a leading 1; with `tail` the rest of it,
    repacked, every other row r with leading residue f becomes
    (r >> 64) + (p - f) * tail, one big-int multiply-add.  Slots stay
    nonnegative and below 2^64 (see MODULAR_PRIME), so no carry crosses a
    slot and each slot stays congruent to its entry mod p.  The pass gives
    up as soon as more columns lack a pivot than a full-rank matrix can
    afford, which keeps the cost of a rank-deficient matrix low before
    Bareiss.

    `array` buffers are in native byte order, so every bytes-int conversion
    uses `sys.byteorder`.  On a big-endian host the columns are then
    eliminated last to first, which leaves the rank unchanged.
    """
    p = MODULAR_PRIME
    mask = (1 << 64) - 1
    order = sys.byteorder
    full = min(matrix.rows, matrix.cols)
    stride = 8 * matrix.cols
    data = array("Q", map(p.__rmod__, matrix.entries)).tobytes()
    work = [int.from_bytes(data[i * stride : (i + 1) * stride], order) for i in range(matrix.rows)]
    spare = matrix.cols - full
    found = 0
    remaining = matrix.cols
    while found < full:
        remaining -= 1  # columns after the one processed now
        index = next((i for i, row in enumerate(work) if (row & mask) % p), None)
        if index is None:
            spare -= 1
            if spare < 0:
                return False
            work = [row >> 64 for row in work]
            continue
        pivot = work.pop(index)
        inverse = pow((pivot & mask) % p, -1, p)
        slots = array("Q")
        slots.frombytes((pivot >> 64).to_bytes(8 * remaining, order))
        tail = int.from_bytes(array("Q", map(p.__rmod__, map(inverse.__mul__, slots))).tobytes(), order)
        work = [
            (row >> 64) + (p - f) * tail if (f := (row & mask) % p) else row >> 64
            for row in work
        ]
        found += 1
    return True


def _bareiss_rank(work: list[list[int]], n: int) -> int:
    """Rank of the integer rows `work` (n columns each) by Bareiss elimination.

    The update ``a[i][j] = (piv * a[i][j] - a[i][c] * a[r][j]) // prev`` keeps
    every intermediate entry an exact minor of the input, so the division is
    always exact and no fraction is ever formed.  Pivoting is deterministic:
    columns left to right, first nonzero entry scanning rows top-down.  The
    rows are overwritten.
    """
    m = len(work)
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
