"""Exact rank over the rationals of integer matrices.

The module holds two things: `RatMatrix`, a dense matrix that refuses any
entry but a Python int, and `rank`, its rank over the rationals.  Points
with rational coordinates are cleared to integers before a matrix is formed
(`blowup.jet_matrix`), so every rank is an exact integer, never a float.
`rank` backs all section counts for blow-ups, so it is deterministic and
every answer it gives is proved.

`rank` has two routes.  When min(rows, cols) times the largest entry bit
length exceeds MODULAR_RULE_BITS and min(rows, cols) is at most
MODULAR_MAX_PIVOTS, the modular route runs first.  One elimination of the
matrix A modulo the prime MODULAR_PRIME = 2^27 - 39 gives its rank r mod p
and its pivot rows and columns.  It packs each row into one Python int with
a 64-bit slot per column, so packing and unpacking run in C through
`array("Q")` and updating a row is one big-int multiply-add.

- Reduction mod p is a ring map from the integers, so every minor that
  vanishes over the integers vanishes mod p: r is at most the rational
  rank.  An r of min(rows, cols), the largest any matrix of that shape can
  have, is therefore the rational rank, and no kernel work is done.
- Below that, the rank is certified on the side whose right kernel is the
  smaller: A when cols <= rows, else its transpose, whose rows are A's
  columns and whose rank is the same.  That side has w = min(rows, cols)
  columns, and w - r integer vectors N with side * N = 0 prove its rank is
  at most r, hence exactly r.  Only r of its rows that are independent mod
  p are eliminated (A's pivot rows, or A's pivot columns), and back
  substitution gives the reduced echelon basis of their kernel mod p.
  Bases for further primes of MODULAR_PRIMES are combined by the Chinese
  remainder theorem, and after each prime every entry is rationally
  reconstructed and each vector is cleared of its denominators by their
  lcm.  The vectors are independent because they carry a diagonal of
  nonzero integers on the free columns and zeros elsewhere there, so once
  side * N = 0 holds over the integers for every row of the side, checked
  exactly with the columns of N packed into one int per column, r is
  proved.

Every other matrix goes to fraction-free Bareiss elimination over the
integers, which is exact on all inputs: every small one, and every one
whose certificate fails, because two primes disagree on the pivot columns
or no candidate passes the exact check within the prime budget.  That
includes matrices where p divides every maximal minor.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
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
        # Column j of the row-major entries is the slice entries[j::cols].
        columns = (self.entries[j :: self.cols] for j in range(self.cols))
        return RatMatrix(self.cols, self.rows, tuple(chain.from_iterable(columns)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatMatrix({self.rows}x{self.cols})"


# The modular route's primes: 2^27 - 39, the largest prime below 2^27, and
# the next primes down.  They are fixed, so the route each matrix takes is
# reproducible; the rank itself never depends on them.  They are this small
# so that every packed slot is exactly 64 bits: a slot starts reduced, below
# p, and each of a row's at most `full` updates adds (p - f) * y with f, y
# < p, so no slot reaches (p - 1) + full * (p - 1)^2, which is below 2^64 for
# up to MODULAR_MAX_PIVOTS = 1024 pivots and not for 1025.  The same bound
# covers back substitution, a sum of at most cols - 1 products of residues
# on a side with at most MODULAR_MAX_PIVOTS columns.  That covers every jet
# matrix within the cell cap (smaller side at most isqrt(50,000) = 223) and
# the Halphen target at k = 10 (495 rows).  A matrix whose smaller side is
# larger goes straight to Bareiss.
#
# The number of primes is the certificate's budget.  Swept over the stock
# collinear and on_conic configurations within the cell cap (v = 5..20,
# k = 2..7), every deficient jet matrix certified with at most eight primes
# (on_conic v = 9, k = 6, 189 x 190, in 0.6 s where Bareiss takes seconds),
# and those of the special_structure benchmark with at most three; two more
# primes leave room for the larger entries of moved points.  A matrix that
# fails the certificate pays for all of them before Bareiss.
MODULAR_PRIMES = (
    2**27 - 39,
    2**27 - 79,
    2**27 - 111,
    2**27 - 115,
    2**27 - 135,
    2**27 - 187,
    2**27 - 199,
    2**27 - 219,
    2**27 - 231,
    2**27 - 235,
)
MODULAR_PRIME = MODULAR_PRIMES[0]
MODULAR_MAX_PIVOTS = 1024
assert all((p - 1) + MODULAR_MAX_PIVOTS * (p - 1) ** 2 < 2**64 for p in MODULAR_PRIMES)
assert array("Q").itemsize == 8, "packed slots need 64-bit unsigned array items"

# min(rows, cols) * (largest entry bit length) above which `rank` tries the
# modular route first.  Swept against Bareiss on the special configurations
# (collinear and on_conic with v = 5..12, the 3 x 3 grid, the twisted cubic;
# k <= 4; two seeded moves of each), the rank time summed over the
# special_structure benchmark's cases was 235 ms at a rule of 2048, 168 ms
# at 1024, 158 ms at 640 and no lower below.  Full-rank matrices win from a
# product near 256; certified deficient ones lose up to 2.9 times below 640
# (collinear points at k = 2) and win from about 1600 on every case, with
# the 3 x 3 grid at k = 3 (products 756 to 972) taking half of Bareiss's
# time.  Every plane jet matrix at k = 1 stays below 640 (10 columns of at
# most 60-bit entries for sampled coordinates up to 10^6): there the route
# took 2.9 times as long as Bareiss over achievable_dims.
MODULAR_RULE_BITS = 640

# The least quotient `_rational` accepts.  A true n / d needs about 8 bits of
# modulus beyond |n| * d.  A residue that is not the image of a small
# fraction passes with probability about 2^-8 per Euclidean step, and a
# candidate passes only if every entry of its vector does, so a false one
# rarely reaches the exact check, which rejects it.  Over the special jet
# matrices of the benchmark, 2^10 already costs extra primes and 2^6 lets
# false candidates through to the check.
RECONSTRUCTION_MARGIN = 2**8


class Echelon:
    """A row echelon form modulo a prime, as `_eliminate_mod_p` builds it.

    A plain class: creating a NamedTuple class costs about 0.3 ms at import.
    """

    __slots__ = ("columns", "rows", "tails")

    def __init__(self) -> None:
        self.columns: list[int] = []  # pivot columns, ascending
        self.rows: list[int] = []  # for each pivot, its input row
        self.tails: list[int] = []  # for each pivot, its packed normalized row


def rank(matrix: RatMatrix) -> int:
    """Rank over the rationals of the integer matrix, computed exactly.

    When min(rows, cols) times the largest entry bit length exceeds
    MODULAR_RULE_BITS and min(rows, cols) is at most MODULAR_MAX_PIVOTS, the
    matrix is eliminated modulo MODULAR_PRIME.  The rank mod p is at most
    the rational rank, so a rank mod p of min(rows, cols) is returned at
    once; a lower one is returned if integer kernel vectors of the side
    with the smaller right kernel (the matrix when cols <= rows, else its
    transpose) pass the exact check (see the module docstring).  Otherwise,
    or below the rule, one-step fraction-free (Bareiss) elimination runs
    over the integers and its answer is returned.
    """
    full = min(matrix.rows, matrix.cols)
    entries = matrix.entries
    bits = max(max(entries), -min(entries)).bit_length() if entries else 0
    if full * bits > MODULAR_RULE_BITS and full <= MODULAR_MAX_PIVOTS:
        echelon = _eliminate_mod_p(_packed_rows(matrix, MODULAR_PRIME), matrix.cols, MODULAR_PRIME)
        found = len(echelon.columns)
        if found == full:
            return full
        # The side with the smaller right kernel, `full` entries per row,
        # and `found` of its rows independent mod p: the matrix and its
        # pivot rows when it is at least as tall as wide, else its columns
        # and its pivot columns.
        if matrix.cols <= matrix.rows:
            side = [matrix.row(i) for i in range(matrix.rows)]
            basis, first = [side[i] for i in echelon.rows], echelon
        else:
            side = [entries[j :: matrix.cols] for j in range(matrix.cols)]
            basis, first = [side[j] for j in echelon.columns], None
        if _kernel_certificate(side, basis, full, first) is not None:
            return found
    return _bareiss_rank([list(matrix.row(i)) for i in range(matrix.rows)], matrix.cols)


def _pack(values: Iterable[int]) -> int:
    """One int with values[t] in 64-bit slot t, the first value in the low bits."""
    slots = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(packed: int, count: int) -> array:
    """The first `count` 64-bit slots of a nonnegative packed int, low slot first."""
    slots = array("Q", packed.to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _packed_rows(matrix: RatMatrix, p: int) -> list[int]:
    """The rows of the matrix reduced mod p, each packed with one 64-bit
    slot per entry; all entries are reduced and packed in one pass through
    `array("Q")`."""
    data = array("Q", map(p.__rmod__, matrix.entries))
    if sys.byteorder == "big":
        data.byteswap()
    data = data.tobytes()
    stride = 8 * matrix.cols
    return [int.from_bytes(data[i * stride : (i + 1) * stride], "little") for i in range(matrix.rows)]


def _eliminate_mod_p(work: list[int], cols: int, p: int) -> Echelon:
    """Row echelon form modulo the prime p of packed rows of `cols` entries.

    Returns the pivot columns, ascending, whose count is the rank mod p;
    for each pivot, the index of the input row it came from and its
    normalized row: the entries right of the pivot, whose own entry is 1,
    packed from the next column up.  Pivoting is deterministic: the first
    remaining row with a nonzero residue in the column.

    Gaussian elimination over GF(p) on packed rows: each row is one int with
    a 64-bit slot per column, the current first column in the low bits,
    each slot below 2^64 and congruent to its entry mod p, and the number
    of pivots must be at most MODULAR_MAX_PIVOTS.  Processing a column
    shifts it out of every row.  Only the pivot row is unpacked, reduced
    mod p and scaled to a leading 1; with `tail` the rest of it, repacked,
    every other row r with leading residue f becomes (r >> 64) +
    (p - f) * tail, one big-int multiply-add.  Slots stay nonnegative and
    below 2^64 (see MODULAR_PRIMES), so no carry crosses a slot and each
    slot stays congruent to its entry mod p.  The rows are consumed.
    """
    mask = (1 << 64) - 1  # local and literal: these loops run once per row per pivot
    unused = list(range(len(work)))
    echelon = Echelon()
    for column in range(cols):
        if not work:
            break
        index = next((i for i, row in enumerate(work) if (row & mask) % p), None)
        if index is None:
            work = [row >> 64 for row in work]
            continue
        pivot = work.pop(index)
        echelon.rows.append(unused.pop(index))
        inverse = pow((pivot & mask) % p, -1, p)
        slots = _unpack(pivot >> 64, cols - column - 1)
        tail = _pack(map(p.__rmod__, map(inverse.__mul__, slots)))
        work = [(row >> 64) + (p - f) * tail if (f := (row & mask) % p) else row >> 64 for row in work]
        echelon.columns.append(column)
        echelon.tails.append(tail)
    return echelon


def _kernel_mod_p(echelon: Echelon, free: list[int], p: int) -> list[int]:
    """The reduced echelon right-kernel basis mod p, at the pivot columns.

    Vector t of the basis is 1 at the free (non-pivot) column free[t] and 0
    at the others; back substitution, last pivot first, gives its pivot
    entries.  Returns them flat, entry (i, t) at i * d + t for the i-th
    pivot and d = len(free) vectors.  The d entries of one column share one
    packed int, so each pivot costs one sum of products of its row with the
    later columns; a slot sums at most cols - 1 products of residues, below
    2^64 for cols <= MODULAR_MAX_PIVOTS.
    """
    cols = len(echelon.columns) + len(free)
    packed = [0] * cols
    for t, column in enumerate(free):
        packed[column] = 1 << (64 * t)
    for column, tail in zip(reversed(echelon.columns), reversed(echelon.tails)):
        total = sum(map(int.__mul__, _unpack(tail, cols - column - 1), packed[column + 1 :]))
        packed[column] = _pack(map(p.__rmod__, map(int.__neg__, _unpack(total, len(free)))))
    return [x for column in echelon.columns for x in _unpack(packed[column], len(free))]


def _kernel_certificate(
    rows: list[Sequence[int]], basis: list[Sequence[int]], cols: int, first: Echelon | None
) -> list[list[int]] | None:
    """cols - r integer vectors that prove the rows have rank <= r, or None.

    `basis` holds rows whose rank mod MODULAR_PRIME is r and whose span
    lies in that of the rows: r independent ones of them, or all of them.
    `first` is an elimination mod MODULAR_PRIME with the same row space as
    the basis, when the caller has one.  The right-kernel bases of the
    basis mod each prime of MODULAR_PRIMES in turn are combined by the
    Chinese remainder theorem; after each prime the vectors are
    reconstructed and returned as soon as `_proves_kernel` accepts them for
    all the rows.  The basis has rank at least r over the rationals, so if
    the rows have rank r its kernel is theirs.  None means no proof: a
    later prime found other pivot columns, or the primes ran out.
    """

    def eliminate(p: int) -> Echelon:
        return _eliminate_mod_p([_pack(map(p.__rmod__, row)) for row in basis], cols, p)

    echelon = eliminate(MODULAR_PRIME) if first is None else first
    pivots = echelon.columns
    free = sorted(set(range(cols)) - set(pivots))
    values = [0] * (len(pivots) * len(free))
    modulus = 1
    for p in MODULAR_PRIMES:
        if p != MODULAR_PRIME:
            echelon = eliminate(p)
            if echelon.columns != pivots:
                return None
        inverse = pow(modulus, -1, p)
        residues = _kernel_mod_p(echelon, free, p)
        values = [x + modulus * ((y - x) * inverse % p) for x, y in zip(values, residues)]
        modulus *= p
        vectors = _integer_kernel(values, modulus, pivots, free)
        if vectors is not None and _proves_kernel(rows, vectors, free):
            return vectors
    return None


def _rational(x: int, modulus: int) -> tuple[int, int] | None:
    """(n, d) with n = d * x mod modulus, 0 < d and gcd(n, d) = 1, or None.

    Monagan's maximal quotient rational reconstruction: of the remainders
    r / s of the extended Euclidean algorithm on (modulus, x), take the one
    followed by the largest quotient, and only if that quotient exceeds
    RECONSTRUCTION_MARGIN.  A quotient q after r / s means |r| * s is about
    modulus / q, so the answer needs a modulus only about
    RECONSTRUCTION_MARGIN times |n| * d, however unbalanced n and d are.
    Remainders below the best quotient so far cannot beat it, so the loop
    stops there: an x that is a small integer, or a small one times the
    inverse of a small d, costs one or two steps.
    """
    if x == 0:
        return 0, 1
    best, found = RECONSTRUCTION_MARGIN, None
    r0, r1 = modulus, x
    s0, s1 = 0, 1
    while r1 and r0 > best:
        q = r0 // r1
        if q > best:
            best, found = q, (r1, s1)
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if found is None or math.gcd(*found) != 1:
        return None
    n, d = found
    return (n, d) if d > 0 else (-n, -d)


def _integer_kernel(
    values: list[int], modulus: int, pivots: list[int], free: list[int]
) -> list[list[int]] | None:
    """Integer kernel candidates from the kernel basis modulo `modulus`.

    `values` holds the pivot entries as `_kernel_mod_p` lays them out.  Each
    entry is rationally reconstructed; x * lcm is reconstructed in place of
    x, where lcm is the lcm of the vector's denominators so far, so once
    lcm is complete every later entry comes out as an integer in at most
    one Euclidean step.  Each vector is then multiplied by its lcm, which
    puts lcm at its own free column and 0 at the other free ones.  None
    when some entry has no reconstruction.
    """
    d = len(free)
    vectors = []
    for t, own in enumerate(free):
        lcm = 1
        fractions = []
        for x in values[t::d]:
            found = _rational(x * lcm % modulus, modulus)
            if found is None:
                return None
            n, q = found
            lcm *= q
            fractions.append((n, lcm))
        vector = [0] * (len(pivots) + d)
        for column, (n, denominator) in zip(pivots, fractions):
            vector[column] = n * (lcm // denominator)
        vector[own] = lcm
        vectors.append(vector)
    return vectors


def _proves_kernel(rows: list[Sequence[int]], vectors: list[list[int]], free: list[int]) -> bool:
    """Whether the vectors prove the rows have rank <= cols - len(free).

    They do if there is one per free column, as long as a row, nonzero at
    its own free column and zero at the others, which makes them
    independent, and if row * v = 0 over the integers for every row and
    vector.  `rows` must not be empty.

    The vectors are packed Kronecker-style, entry j of vector t in a signed
    slot t of packed[j], so a row times packed is one sum whose slot t is
    the row times v_t.  Every such product has magnitude at most
    cols * max|row entry| * max|v| < 2^width, and a sum of
    s_t * 2^(width * t) with every |s_t| < 2^width is 0 only if every s_t
    is 0, so one comparison per row decides all the vectors at once.
    """
    cols = len(rows[0])
    if len(vectors) != len(free) or any(len(vector) != cols for vector in vectors):
        return False
    for t, vector in enumerate(vectors):
        if any((vector[column] != 0) != (t == u) for u, column in enumerate(free)):
            return False
    largest = max(abs(x) for vector in vectors for x in vector)
    entry = max(map(abs, chain.from_iterable(rows)), default=0)
    width = max((cols * entry * largest).bit_length(), 1)
    packed = [0] * cols
    for t, vector in enumerate(vectors):
        shift = width * t
        packed = [a + (x << shift) for a, x in zip(packed, vector)]
    return all(sum(map(int.__mul__, row, packed)) == 0 for row in rows)


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
