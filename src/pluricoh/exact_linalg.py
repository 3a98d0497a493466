"""Exact rank over the rationals of integer matrices.

The module holds two things: `RatMatrix`, a dense matrix that refuses any
entry but a Python int, and `rank`, its rank over the rationals.  Points
with rational coordinates are cleared to integers before a matrix is formed
(`blowup.jet_matrix`), so every rank is an exact integer, never a float.
`rank` backs all section counts for blow-ups, so it is deterministic and
every answer it gives is proved.

`rank` has two routes.  When min(rows, cols) times the largest entry bit
length exceeds MODULAR_RULE_BITS, one elimination modulo the Mersenne prime
MODULAR_PRIME = 2^31 - 1 runs first.  It packs each row into one Python int
with a fixed-width slot per column, so updating a row is one big-int
multiply-add done in C.  Reduction mod p is a ring map from the integers,
so every minor that vanishes over the integers vanishes mod p and the rank
mod p never exceeds the rational rank; a rank mod p of min(rows, cols), the
largest any matrix of that shape can have, is therefore the rational rank.
Every other matrix, and every small one, goes to fraction-free Bareiss
elimination over the integers, which is exact on all inputs, including
those where p divides every maximal minor.
"""

from __future__ import annotations

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


# The modular route's prime, the Mersenne prime 2^31 - 1.  It is fixed, so the
# route each matrix takes is reproducible; the rank itself never depends on it.
MODULAR_PRIME = 2**31 - 1

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
    MODULAR_RULE_BITS, the rows are first eliminated modulo MODULAR_PRIME.
    The rank mod p is at most the rational rank, so if it reaches
    min(rows, cols) it is returned as the certified rank.  Otherwise, or
    below the rule, one-step fraction-free (Bareiss) elimination runs over
    the integers and its answer is returned.
    """
    work = [list(matrix.row(i)) for i in range(matrix.rows)]
    full = min(matrix.rows, matrix.cols)
    bits = max((max(max(row), -min(row)) for row in work if row), default=0).bit_length()
    if full * bits > MODULAR_RULE_BITS and _has_full_rank_mod_p(work, matrix.cols):
        return full
    return _bareiss_rank(work, matrix.cols)


def _slot_width(full: int) -> int:
    """Bits per packed slot for an elimination mod MODULAR_PRIME with `full` pivots.

    A slot starts reduced, below p, and each update adds (p - f) * y with
    f, y < p, so less than p^2.  A row takes at most `full` updates before
    it is reduced as a pivot or the pass ends, so no slot reaches
    (p - 1) + full * (p - 1)^2.  The width is that bound's bit length rounded
    up to whole bytes, so a row unpacks by byte slicing.
    """
    p = MODULAR_PRIME
    bound = (p - 1) + full * (p - 1) ** 2
    width = -(-bound.bit_length() // 8) * 8
    assert bound < 1 << width, "a slot could carry into its neighbour"
    return width


def _has_full_rank_mod_p(rows: list[list[int]], cols: int) -> bool:
    """Whether the integer rows have rank min(rows, cols) modulo MODULAR_PRIME.

    Gaussian elimination over GF(p) on packed rows: each row is one int with
    a W-bit slot per column (W from `_slot_width`), the current first column
    in the low bits.  Processing a column shifts it out of every row.  Only
    the pivot row is unpacked, reduced mod p and scaled to a leading 1; with
    `tail` the rest of it, repacked, every other row r with leading residue
    f becomes (r >> W) + (p - f) * tail, one big-int multiply-add.  Slots
    stay nonnegative and below 2^W, so no carry crosses a slot and each slot
    stays congruent to its entry mod p.  The pass gives up as soon as more
    columns lack a pivot than a full-rank matrix can afford, which keeps the
    cost of a rank-deficient matrix low before Bareiss.
    """
    p = MODULAR_PRIME
    full = min(len(rows), cols)
    width = _slot_width(full)
    size = width // 8
    mask = (1 << width) - 1

    def pack(residues: Iterable[int]) -> int:
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in residues), "little")

    work = [pack(x % p for x in row) for row in rows]
    spare = cols - full
    found = 0
    remaining = cols
    while found < full:
        remaining -= 1  # columns after the one processed now
        index = next((i for i, row in enumerate(work) if (row & mask) % p), None)
        if index is None:
            spare -= 1
            if spare < 0:
                return False
            work = [row >> width for row in work]
            continue
        pivot = work.pop(index)
        inverse = pow((pivot & mask) % p, -1, p)
        data = (pivot >> width).to_bytes(remaining * size, "little")
        slots = (int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))
        tail = pack(x * inverse % p for x in slots)
        work = [
            (row >> width) + (p - f) * tail if (f := (row & mask) % p) else row >> width
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
