"""Exact rank over the rationals of integer matrices.

The module holds two things: `RatMatrix`, a dense matrix that refuses any
entry but a Python int, and `rank`, its rank over the rationals.  Points
reach the jet build as integer vectors of homogeneous coordinates
(`blowup.PointConfiguration.lifts`, `blowup.jet_matrix`), so every entry
is an integer and every rank exact, never a float.
`rank` backs all section counts for blow-ups, so it is deterministic and
every answer it gives is proved.

`rank` first splits the matrix into the blocks of its nonzero pattern:
rows linked by chains of shared nonzero columns, with the columns where
they are nonzero.  The rank of a direct sum is the sum of its blocks'
ranks, and zero rows and columns add nothing.  A row with no zero entry,
or a first column with none, makes the whole matrix one block, so the scan
stops at the first such row.  Jet matrices of points on a coordinate
hyperplane split, since a derivative of x^beta vanishes on x_i = 0 unless
it takes exactly beta_i derivatives in x_i.

Each block has two routes.  When min(rows, cols) is at most
MODULAR_MAX_PIVOTS and either min(rows, cols) times the largest entry bit
length exceeds MODULAR_RULE_BITS or Bareiss's multiply count rows * cols *
min(rows, cols) exceeds MODULAR_RULE_WORK (`takes_modular_route`, the one
route rule), the modular route runs first.
One elimination of the matrix A modulo the prime MODULAR_PRIME = 2^27 - 39
gives its rank r mod p and its pivot rows and columns.  `_eliminate_mod_p`,
the one elimination mod p, packs each row into one Python int with a 64-bit
slot per column, so packing and unpacking run in C through `array("Q")` and
updating a row is one big-int multiply-add.  Every prime is 2^27 - c with
0 < c < 2^8, and 2^27 = c mod p, so a pivot row is scaled to a leading 1
in every slot at once by pseudo-Mersenne folds x -> (x mod 2^27) + c * (x
div 2^27), each a few big-int ops (Crandall and Pomerance, "Prime Numbers:
A Computational Perspective", 9.2.3).  Its slots are then congruent to the
normalized row and at most p + 2c - 1, not reduced.

A tall A (rows > cols) is eliminated on its leading cols x cols square
first.  Rank cols there is A's full column rank.  Below it, when every
other row is orthogonal mod p to the square's kernel, one packed product
per row, A has the square's rank mod p and the square's pass stands for
A's; otherwise A is eliminated whole.

- Reduction mod p is a ring map from the integers, so every minor that
  vanishes over the integers vanishes mod p: r is at most the rational
  rank.  An r of min(rows, cols), the largest any matrix of that shape can
  have, is therefore the rational rank, and no kernel work is done.
- Below that, the rank is certified by a side: a list of rows with the rank
  of A, each of some length w.  w - r integer vectors N with side * N = 0
  prove its rank is at most r, hence exactly r.  Only r of its rows that
  are independent mod p, the basis, are eliminated, and back substitution
  gives the reduced echelon basis of their kernel mod p.  Bases for further
  primes are combined by the Chinese remainder theorem, and after each
  prime every entry is rationally reconstructed and each vector is cleared
  of its denominators by their lcm.  The vectors are independent because
  they carry a diagonal of nonzero integers on the free columns and zeros
  elsewhere there, so once side * N = 0 holds over the integers for every
  row of the side, checked exactly with the columns of N packed into one
  int per column, r is proved.
- The first side is A's own rows, with its pivot rows as the basis: the
  first pass (the square's, when it stands for A's) is their elimination
  at the first prime, so that prime costs no elimination, and the square's
  kernel, which its span test found, no back substitution.  A tall or
  square A (cols <= rows) spends every prime of MODULAR_PRIMES there.  A
  wide one tries only the first two, since its own kernel is the larger,
  and skips them when its rows are longer than MODULAR_MAX_PIVOTS; then
  its transpose, whose rows are A's columns and whose rank is the same,
  with A's pivot columns as the basis, gets every prime.  On jet matrices
  the own rows' kernel is the space of sections, which on the special
  configurations never needed more primes than the columns' kernel (see
  MODULAR_PRIMES).

`rank_from_residues` takes the first pass from residues before A exists.
Of a tall A it may take the leading rows and a callable that builds the
others, called only when the leading square falls short: that is how
`blowup.h0_blowup` hands over a tall jet matrix's residues.
`blowup.h0_blowup` builds a jet matrix's rows mod p directly when the
route rule holds for its shape and its predicted entry length.  They are
R = U B mod p for a diagonal U of units and an integer matrix B with A's
rational row span: B differs from A only in the rows of lifts with a
nonzero coordinate divisible by p.  So
R's rank r mod p is B's rank mod p, at most A's rational rank by the
first bullet, and a full r is A's rank: A is never built.  Otherwise A is
built and, when it is one block, takes R's pass as its first.  When B is
A, that is A's own pass, since scaling rows by units mod p keeps the pivot
rows and columns, the normalized rows and the square's kernel, so A pays
no elimination at the first prime.  In every case r is at most A's rank
and the certificate's exact check on A's rows proves it at most r, so the
rank returned is proved.

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
from itertools import chain, compress, repeat
from operator import mod, neg
from typing import Callable, Iterable, Sequence


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
        # tuple() of a list allocates the exact size.  Of a generator it
        # resizes a 10-slot tuple, which moves small tuples between CPython's
        # per-size free lists, and they pile up there until a full collection.
        return cls(len(grid), width, tuple([x for row in grid for x in row]))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def transpose(self) -> "RatMatrix":
        # Column j of the row-major entries is the slice entries[j::cols].
        # A list first, as in from_rows.
        columns = [self.entries[j :: self.cols] for j in range(self.cols)]
        return RatMatrix(self.cols, self.rows, tuple([x for column in columns for x in column]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RatMatrix({self.rows}x{self.cols})"


# The modular route's primes: 2^27 - 39, the largest prime below 2^27, and
# the next primes down.  They are fixed, so the route each matrix takes is
# reproducible; the rank itself never depends on them.  Each is 2^27 - c
# with 0 < c < 2^8 (asserted below), so a pivot row is folded by 2^27 = c
# mod p instead of reduced slot by slot, and its slots end at most p + 2c -
# 1 (`_scaled_tail`).  They are this small so that every packed slot is
# exactly 64 bits: a slot starts reduced, below p, and each of a row's at
# most `full` updates adds (p - f) * y with f < p and y <= p + 2c - 1, so
# no slot reaches (p - 1) + full * (p - 1) * (p + 2c - 1).  That is below
# 2^64 exactly when full <= (2^64 - p) // ((p - 1) * (p + 2c - 1)), and
# MODULAR_MAX_PIVOTS is the least of these over the primes: 1024, as with
# fully reduced rows.  The same bound covers back substitution, a sum of at
# most cols - 1 products of a folded slot and a residue on a side with at
# most MODULAR_MAX_PIVOTS columns, and the span test of a tall block's
# leading square, a sum of at most cols products of residues.  That covers
# every jet matrix within the cell cap (smaller side at most isqrt(50,000) =
# 223) and the Halphen target at k = 10 (495 rows).  A matrix whose smaller
# side is larger goes straight to Bareiss.
#
# The number of primes is the certificate's budget.  Swept over the stock
# on_conic configurations within the cell cap (v = 5..20, k = 2..7, moved
# by `blowup.h0_blowup`), every deficient jet matrix certified on its own
# rows with at most four primes (v = 10..12, k = 6, 147..189 x 127) and on
# its columns with at most eight (v = 20, k = 5, 255 x 91).  The rows never
# needed more than the columns, here or on any block of the
# special_structure benchmark at seeds 1..10 (rows 1 to 3, columns 1 to 4).
# So the rows of a wide matrix get the first two primes, the first of which
# reuses the first pass: they certify the 3 x 3 grid at k = 3, 4 and every
# wide on_conic block at k <= 4.  The wide ones whose rows need three or
# four (on_conic v = 7..9 at k = 5..7) then certify on their columns with at
# most five, after one elimination spent on their rows.
# Collinear points are moved onto a coordinate line, where their jet
# matrix splits into confluent Vandermonde blocks of full rank: those need
# no certificate.  A matrix that fails the certificate pays for all the
# primes before Bareiss, and a wide one for two more.
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
FOLD_BITS = 27
MODULAR_MAX_PIVOTS = min((2**64 - p) // ((p - 1) * (p + 2 * (2**FOLD_BITS - p) - 1)) for p in MODULAR_PRIMES)
assert all(0 < 2**FOLD_BITS - p < 2**8 for p in MODULAR_PRIMES), "each prime is 2^27 - c with 0 < c < 2^8"
assert MODULAR_MAX_PIVOTS == 1024, "the folded slot bound must admit 1,024 pivots at every prime"
assert array("Q").itemsize == 8, "packed slots need 64-bit unsigned array items"
# [slots, low mask, high mask], grown by `_fold_masks` to the widest pivot
# tail so far.  Shared by every call: the masks are the same at every prime,
# and a narrower row's masks are the low slots of a wider one's.
_FOLD_MASKS = [0, 0, 0]

# The route rule: the modular route runs first when min(rows, cols) * (largest
# entry bit length) exceeds MODULAR_RULE_BITS or rows * cols * min(rows,
# cols), Bareiss's multiply count, exceeds MODULAR_RULE_WORK.  Both were swept
# on the blocks that the three benchmark workloads rank (special_structure at
# seeds 1..10, interactive_mix at 1 and 7, generic_elimination at 1; each
# block timed by both routes, min of 3 to 5 runs, 2-CPU host), summing the
# chosen route's time per pass.  special_structure, in ms:
#
#   MODULAR_RULE_WORK   none   4000   6000   8000   12000..32000   64000
#   rank time           16.3   12.8   12.6   12.5       12.6        16.3
#
# and the earlier route (bits only, wide blocks on their columns) 19.4.  The
# other two workloads do not move with it (6.8 and 5.7 ms).  The blocks
# between the bounds, route time over Bareiss's:
#
#   block (seeded moves)           shape    work     route / Bareiss
#   plane, k = 1, unmoved      10..12 x 10  <= 1200   3 to 17
#   on_conic v = 8, k = 2          15 x 19    4275    1.6 to 2.5
#   twisted cubic v = 8, k = 1     16 x 19    4864    0.8 to 2.0
#   on_conic v = 5, k = 3          12 x 37    5328    0.25 to 0.5
#   3 x 3 grid, k = 2              18 x 19    6156    1.1 to 1.6
#   on_conic v = 12, k = 2         27 x 19    9747    0.75 to 1.15
#   twisted cubic v = 5, k = 2     20 x 85   34000    0.21 to 0.24
#   3 x 3 grid, k = 3              36 x 37   47952    0.29 to 0.39
#
# So any bound from 6156 up to 9747 is best; 8000 is in the middle.  The
# first sweep of the bit rule alone, before the work rule, found its floor:
# certified deficient matrices lost up to 2.9 times below 640 and won from
# about 1600.  Plane k = 1 was then ranked on all monomials (the table's
# first row); it is now peeled and moved like every power, so its
# collinear and conic inputs rank no matrix and its generic ones rank one
# (v - 3) x 7 block on the hexagon's cubics, with entries of 112 to 123 bits
# for sampled coordinates up to 10^6.  By rows, that block's modular route
# takes 2.5, 1.7, 1.06, 0.80, 0.63, 0.53, 0.41 and 0.33 times Bareiss's at
# 2 to 9.  The bit rule swept again on the same workloads' blocks, with
# selfcheck's probes (built to exceed the rule) kept modular, rank time per
# interactive_mix pass in ms:
#
#   MODULAR_RULE_BITS   320   448..576   640   704   768   896..1024
#   seed 1              2.03    2.02    2.03  2.07  2.07     2.26
#   seed 7              2.08    2.08    2.09  2.09  2.13     2.33
#
# special_structure (seeds 1..10) and generic_elimination do not move from
# 448 to 1024.  So 640 stays: it keeps up to five rows of the block on
# Bareiss and sends six and more (v >= 9) to the modular route.
MODULAR_RULE_BITS = 640
MODULAR_RULE_WORK = 8000

# The least quotient `_rational` accepts.  A true n / d needs about 8 bits of
# modulus beyond |n| * d.  A residue that is not the image of a small
# fraction passes with probability about 2^-8 per Euclidean step, and a
# candidate passes only if every entry of its vector does, so a false one
# rarely reaches the exact check, which rejects it.  Over the special jet
# matrices of the benchmark, 2^10 already costs extra primes and 2^6 lets
# false candidates through to the check.
RECONSTRUCTION_MARGIN = 2**8

# `_eliminate_mod_p`'s (pivot columns, pivot rows, normalized rows), and a
# first pass mod MODULAR_PRIME: that echelon form with the kernel of a tall
# block's leading square when the square's pass stands for the whole, else
# None (`_first_pass`).
Echelon = tuple[list[int], list[int], list[int]]
FirstPass = tuple[Echelon, list[int] | None]
# Builds the flat row-major entries of a tall matrix's rows below those at hand (`_first_pass`).
LaterRows = Callable[[], Sequence[int]]


def rank(matrix: RatMatrix) -> int:
    """Rank over the rationals of the integer matrix, computed exactly.

    The matrix is first split into the blocks of its nonzero pattern
    (`_blocks`), and each block is ranked by `_block_rank`; the rank of a
    direct sum is the sum of its blocks' ranks.  A matrix with a row, or a
    first column, that has no zero entry is one block and is ranked as it
    is.
    """
    blocks = _blocks(matrix)
    if blocks is None:
        return _block_rank(matrix)
    return sum(map(_block_rank, blocks))


def rank_from_residues(residues: RatMatrix, rest: LaterRows | None, build: Callable[[], RatMatrix]) -> int:
    """Rank over the rationals of the integer matrix A that `build` returns,
    from residues first.

    `residues` holds A's rows, or, when `rest` returns the flat entries of
    the others, at least cols leading ones.  Together they have A's shape
    and rank mod p at most A's rational rank: A's rows times units mod p
    have it, and so do the rows of any integer matrix with A's rational
    row span times units.  Their entries are any integers.  Their first
    pass mod p (`_first_pass`) gives that rank r.  An r of min(rows, cols)
    is A's rank, and A is never built.  Otherwise A is built and ranked as
    `rank` ranks it, with the residues' pass as its first pass when A is
    one block.  When the rows are A's own times units, that pass is A's
    own: a unit row scaling keeps the pivot rows and columns, the
    normalized rows and a tall square's kernel.  In any case r is at most
    A's rational rank and the certificate checks its kernel against A's
    rows exactly, so the rank is proved.
    """
    full = min(residues.rows, residues.cols)
    if not full:
        return 0
    first = _first_pass(residues.entries, residues.rows, residues.cols, rest)
    if len(first[0][0]) == full:
        return full
    matrix = build()
    blocks = _blocks(matrix)
    if blocks is None:
        return _block_rank(matrix, first)
    return sum(map(_block_rank, blocks))


def takes_modular_route(rows: int, cols: int, bits: int) -> bool:
    """The route rule: whether a block of this shape whose largest entry has
    `bits` bits is eliminated mod p first.

    It is when min(rows, cols) is at most MODULAR_MAX_PIVOTS and either
    min(rows, cols) * bits exceeds MODULAR_RULE_BITS or Bareiss's multiply
    count rows * cols * min(rows, cols) exceeds MODULAR_RULE_WORK.
    `_block_rank` applies it to a block's actual entries, and
    `blowup.h0_blowup` to the entry length it predicts for a jet matrix.
    """
    full = min(rows, cols)
    return (full * bits > MODULAR_RULE_BITS or rows * cols * full > MODULAR_RULE_WORK) and full <= MODULAR_MAX_PIVOTS


def _blocks(matrix: RatMatrix) -> list[RatMatrix] | None:
    """The blocks of the matrix's nonzero pattern, or None if it is one block.

    Two rows share a block when they are linked by a chain of rows, each
    nonzero in a column where the next is.  A block holds its rows and
    the columns where they are nonzero, both in the matrix's order; zero
    rows and zero columns lie in no block.  A row or a column with no zero
    entry links every row.  The first row and the first column are tested
    first, so dense matrices pay for one row slice, and plane evaluation
    matrices, whose first column is all ones, for one column slice; then
    rows are scanned until the first with no zero entry.  Only the other
    matrices pay for a union of row supports, kept as disjoint column sets.
    """
    cols, entries = matrix.cols, matrix.entries
    # A first row or column with no zero entry links every row.
    if not entries or all(entries[:cols]) or all(entries[::cols]):
        return None
    slices, blocks = [], []  # blocks: (columns, row indices), pairwise disjoint in columns
    for i, start in enumerate(range(0, len(entries), cols)):
        row = entries[start : start + cols]
        if all(row):
            return None
        slices.append(row)
        support = set(compress(range(cols), row))
        if not support:
            continue
        # The row joins every block it meets.  Blocks are disjoint, so the
        # support grown by one of them meets no block it did not meet before.
        rows, kept = [i], []
        for block in blocks:
            if support.isdisjoint(block[0]):
                kept.append(block)
            else:
                support |= block[0]
                rows += block[1]
        blocks = [*kept, (support, rows)]
    if len(blocks) < 2:
        return None
    out = []
    for columns, rows in blocks:
        pick = sorted(columns)
        out.append(RatMatrix.from_rows([list(map(slices[i].__getitem__, pick)) for i in sorted(rows)]))
    return out


def _block_rank(matrix: RatMatrix, first: FirstPass | None = None) -> int:
    """Rank of one block: the modular route when it applies, else Bareiss.

    When `takes_modular_route` holds for the block's shape and largest
    entry, or `first` hands over its first pass (`rank_from_residues`), the
    rank mod MODULAR_PRIME comes from that pass (`_first_pass`).  It is at
    most the rational rank, so a rank mod p of min(rows, cols) is returned
    at once.  A lower one is returned if integer kernel vectors pass the
    exact check (see the module docstring): of the matrix's own rows, with
    every prime when cols <= rows, else with the first two primes and then
    of its columns with every prime.  Otherwise, or below the rule,
    one-step fraction-free (Bareiss) elimination runs over the integers and
    its answer is returned.
    """
    rows, cols, entries = matrix.rows, matrix.cols, matrix.entries
    full = min(rows, cols)
    if first is None:
        bits = max(max(entries), -min(entries)).bit_length() if entries else 0
        # The rule keeps small matrices, most of the CLI's ranks, on Bareiss, which is faster there.
        if takes_modular_route(rows, cols, bits):
            first = _first_pass(entries, rows, cols)
    if first is not None:
        columns, pivot_rows, _ = first[0]
        found = len(columns)
        if found == full:
            return full
        # The matrix's own rows, with its pivot rows as the basis, reuse the
        # first pass.  A tall matrix spends the whole prime budget on them.  A
        # wide one tries two primes there, if its rows fit the slot bound of
        # back substitution, then its columns, whose right kernel is smaller,
        # with its pivot columns as the basis.
        own = [matrix.row(i) for i in range(rows)]
        basis = [own[i] for i in pivot_rows]
        if cols <= rows:
            if _kernel_certificate(own, basis, first) is not None:
                return found
        else:
            if cols <= MODULAR_MAX_PIVOTS and _kernel_certificate(own, basis, first, MODULAR_PRIMES[:2]) is not None:
                return found
            side = [entries[j::cols] for j in range(cols)]
            if _kernel_certificate(side, [side[j] for j in columns], None) is not None:
                return found
    return _bareiss_rank([list(matrix.row(i)) for i in range(rows)], cols)


def _first_pass(entries: Sequence[int], rows: int, cols: int, rest: LaterRows | None = None) -> FirstPass:
    """The first pass mod MODULAR_PRIME of flat row-major entries: (echelon, kernel).

    `rest`, when given, returns the entries of the rows after `entries`,
    which then hold at least cols rows.  `echelon` is `_eliminate_mod_p`'s
    result for the whole matrix, or for its leading cols x cols square
    when that stands for the whole, and `kernel` is then the square's
    right kernel mod p as `_kernel_mod_p` lays it out, else None.  A tall
    block is eliminated on its leading square first.  Full rank there is
    full column rank, and `rest` is not called.  Below it, rows that all
    lie in the square's span mod p, those of `entries` and of `rest()`,
    leave the rank mod p as it is, so the square's pass serves as the
    first pass; otherwise the whole is eliminated.
    """
    if rows > cols or rest is not None:
        square = _eliminate_mod_p(entries[: cols * cols], cols, MODULAR_PRIME)
        if len(square[0]) == cols:
            return square, None
        if rest is not None:
            entries = [*entries, *rest()]
        kernel = _in_span_mod_p(square, entries[cols * cols :], cols, MODULAR_PRIME)
        if kernel is not None:
            return square, kernel
    return _eliminate_mod_p(entries, cols, MODULAR_PRIME), None


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


def _fold_masks(slots: int) -> tuple[int, int]:
    """The masks of the low 27 bits and of the next 37 of each of at least
    `slots` 64-bit slots.  Built once and grown as wider rows arrive: a
    mask wider than the row it is applied to costs nothing more under &."""
    if slots > _FOLD_MASKS[0]:
        _FOLD_MASKS[:] = slots, _pack([(1 << FOLD_BITS) - 1] * slots), _pack([(1 << (64 - FOLD_BITS)) - 1] * slots)
    return _FOLD_MASKS[1], _FOLD_MASKS[2]


def _scaled_tail(tail: int, factor: int, c: int, low: int, high: int) -> int:
    """factor * tail mod p = 2^27 - c, slot by slot, for packed slots below
    2^64 and 0 <= factor < p: each slot of the result is congruent to
    factor times its slot and at most p + 2c - 1.

    A fold x -> (x & low) + c * ((x >> 27) & high), with the masks of
    `_fold_masks`, maps each slot x to (x mod 2^27) + c * (x div 2^27),
    congruent since 2^27 = c mod p, in every slot at once.  Two folds take
    a slot below 2^64 to below 2^28, the product with the factor stays
    below 2^55, and three more folds take it below 2^27 + 2c^2, then to at
    most (2^27 - 1) + c = p + 2c - 1.  No slot carries into the next.
    """
    tail = (tail & low) + c * ((tail >> FOLD_BITS) & high)
    tail = (tail & low) + c * ((tail >> FOLD_BITS) & high)
    tail *= factor
    tail = (tail & low) + c * ((tail >> FOLD_BITS) & high)
    tail = (tail & low) + c * ((tail >> FOLD_BITS) & high)
    return (tail & low) + c * ((tail >> FOLD_BITS) & high)


def _eliminate_mod_p(entries: Iterable[int], cols: int, p: int) -> Echelon:
    """Row echelon form modulo the prime p of flat row-major integer entries
    in rows of `cols` >= 1.

    Returns (columns, rows, tails): the pivot columns, ascending, whose
    count is the rank mod p; for each pivot, the index of the input row it
    came from; and for each pivot its normalized row: the entries right of
    the pivot, whose own entry is 1, packed from the next column up, each
    slot congruent to its entry mod p and at most p + 2c - 1 for p =
    2^27 - c.  Pivoting is deterministic: the first remaining row with a
    nonzero residue in the column.

    Gaussian elimination over GF(p) on packed rows.  All entries are
    reduced mod p and packed in one pass through `array("Q")`, each row
    into one int with a 64-bit slot per column, the current first column
    in the low bits, each slot below 2^64 and congruent to its entry mod
    p; the number of pivots must be at most MODULAR_MAX_PIVOTS.  Processing a
    column shifts it out of every row.  The pivot row's tail is scaled by
    the inverse of its leading residue with five folds by 2^27 = c mod p
    and one multiply (`_scaled_tail`), all in big-int ops, and every other
    row r with leading residue f becomes (r >> 64) + (p - f) * tail, one
    big-int multiply-add.  Slots stay nonnegative and below 2^64 (see
    MODULAR_PRIMES), so no carry crosses a slot and each slot stays
    congruent to its entry mod p.
    """
    data = array("Q", map(mod, entries, repeat(p)))
    if sys.byteorder == "big":
        data.byteswap()
    data = data.tobytes()
    stride = 8 * cols
    work = [int.from_bytes(data[i : i + stride], "little") for i in range(0, len(data), stride)]
    del data  # the packed rows hold the same residues; keep one copy through the elimination
    c = (1 << FOLD_BITS) - p
    low, high = _fold_masks(cols - 1)
    mask = (1 << 64) - 1  # local and literal: these loops run once per row per pivot
    unused = list(range(len(work)))
    columns, rows, tails = [], [], []
    for column in range(cols):
        if not work:
            break
        index = next((i for i, row in enumerate(work) if (row & mask) % p), None)
        if index is None:
            work = [row >> 64 for row in work]
            continue
        pivot = work.pop(index)
        rows.append(unused.pop(index))
        tail = _scaled_tail(pivot >> 64, pow((pivot & mask) % p, -1, p), c, low, high)
        work = [(row >> 64) + (p - f) * tail if (f := (row & mask) % p) else row >> 64 for row in work]
        columns.append(column)
        tails.append(tail)
    return columns, rows, tails


def _in_span_mod_p(echelon: Echelon, rest: Sequence[int], cols: int, p: int) -> list[int] | None:
    """The right kernel mod p of the rows that `_eliminate_mod_p` gave
    `echelon` for at p, as `_kernel_mod_p` lays it out, if every row of the
    flat entries `rest` lies mod p in their span; else None.

    A row does when it is orthogonal mod p to that kernel, whose reduced
    echelon basis `_kernel_mod_p` gives.  The rows'
    residues are packed by column, one 64-bit slot per row, so each kernel
    vector's products with all the rows are one sum of cols multiples of
    these columns, and one unpacking checks them mod p.  A slot sums at
    most cols products of residues, below 2^64 for cols <=
    MODULAR_MAX_PIVOTS, so no carry crosses a slot.
    """
    columns, _, tails = echelon
    free = sorted(set(range(cols)) - set(columns))
    d = len(free)
    flat = _kernel_mod_p(columns, tails, free, p)
    residues = array("Q", map(mod, rest, repeat(p)))
    count = len(residues) // cols
    packed = [_pack(residues[j::cols]) for j in range(cols)]
    pivot_columns = [packed[column] for column in columns]
    for t, own in enumerate(free):
        products = packed[own] + sum(map(int.__mul__, flat[t::d], pivot_columns))
        if any(map(mod, _unpack(products, count), repeat(p))):
            return None
    return flat


def _kernel_mod_p(columns: list[int], tails: list[int], free: list[int], p: int) -> list[int]:
    """The reduced echelon right-kernel basis mod p, at the pivot columns.

    Vector t of the basis is 1 at the free (non-pivot) column free[t] and 0
    at the others; back substitution, last pivot first, gives its pivot
    entries.  Returns them flat, entry (i, t) at i * d + t for the i-th
    pivot and d = len(free) vectors.  The d entries of one column share one
    packed int, so each pivot costs one sum of products of its row with the
    later columns; a slot sums at most cols - 1 products of residues, below
    2^64 for cols <= MODULAR_MAX_PIVOTS.
    """
    cols = len(columns) + len(free)
    packed = [0] * cols
    for t, column in enumerate(free):
        packed[column] = 1 << (64 * t)
    for column, tail in zip(reversed(columns), reversed(tails)):
        total = sum(map(int.__mul__, _unpack(tail, cols - column - 1), packed[column + 1 :]))
        packed[column] = _pack(map(mod, map(neg, _unpack(total, len(free))), repeat(p)))
    return [x for column in columns for x in _unpack(packed[column], len(free))]


def _kernel_certificate(
    rows: list[Sequence[int]],
    basis: list[Sequence[int]],
    first: FirstPass | None,
    primes: Sequence[int] = MODULAR_PRIMES,
) -> list[list[int]] | None:
    """cols - r integer vectors that prove the rows have rank <= r, or None.

    `basis` holds rows whose rank mod MODULAR_PRIME is r and whose span
    lies in that of the rows: r independent ones of them, or all of them.
    `first` is `_first_pass`'s (echelon, kernel) mod MODULAR_PRIME for rows
    with the same span mod p as the basis, when the caller has one, and a
    kernel that is not None is taken at that prime in place of back
    substitution; otherwise, and at every later prime, the basis's flat
    entries are eliminated.  The right-kernel bases of the basis mod each
    of `primes` in turn, a prefix of MODULAR_PRIMES, are combined by the
    Chinese remainder theorem; after each prime the vectors are
    reconstructed and returned as soon as `_proves_kernel` accepts them
    for all the rows.  The basis has rank at least r over the rationals,
    so if the rows have rank r its kernel is theirs.  That check is exact,
    so a `first` whose span differs can cost the proof but never make a
    wrong one.  None means no proof: a later prime found other pivot
    columns, or the primes ran out.  `rows` must not be empty; cols is the
    length of its rows.
    """
    cols = len(rows[0])
    (pivots, _, tails), kernel = first or (_eliminate_mod_p(chain.from_iterable(basis), cols, MODULAR_PRIME), None)
    free = sorted(set(range(cols)) - set(pivots))
    values = [0] * (len(pivots) * len(free))
    modulus = 1
    for p in primes:
        if p != MODULAR_PRIME:
            columns, _, tails = _eliminate_mod_p(chain.from_iterable(basis), cols, p)
            if columns != pivots:
                return None
            kernel = None
        inverse = pow(modulus, -1, p)
        residues = _kernel_mod_p(pivots, tails, free, p) if kernel is None else kernel
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
