"""Tests for the exact rational linear algebra layer.

Expected values marked as derived were computed first with the naive
elimination oracle in `pluricoh.selfcheck`, which shares no code with the
production routines: it divides by no earlier pivot and reduces modulo no
prime.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pluricoh.blowup
from pluricoh import exact_linalg
from pluricoh.blowup import (
    PointConfiguration,
    _graded_exponents,
    generate_configuration,
    h0_blowup,
    jet_matrix,
    parse_point_file,
)
from pluricoh.cli import JET_MAX_CELLS
from pluricoh.exact_linalg import (
    MODULAR_MAX_PIVOTS,
    MODULAR_PRIME,
    MODULAR_PRIMES,
    MODULAR_RULE_BITS,
    MODULAR_RULE_WORK,
    RatMatrix,
    rank,
)
from pluricoh.selfcheck import naive_rank

DATA = Path(__file__).resolve().parent / "data"

small_integers = st.integers(-8, 8)


def matrices(max_rows: int = 6, max_cols: int = 8):
    def build(shape):
        rows, cols = shape
        return st.lists(
            st.lists(small_integers, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        ).map(lambda grid: RatMatrix(rows, cols, tuple(x for row in grid for x in row)))

    return st.tuples(st.integers(0, max_rows), st.integers(0, max_cols)).flatmap(build)


class TestRatMatrix:
    def test_from_rows_round_trip(self):
        m = RatMatrix.from_rows([[1, -2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.row(0)[1] == -2
        assert m.row(1) == (3, 4)
        assert m.entries == (1, -2, 3, 4)

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3), 0.5, True])
    def test_entries_other_than_int_rejected(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            RatMatrix(1, 2, (1, value))
        with pytest.raises(TypeError, match=type(value).__name__):
            RatMatrix.from_rows([[1], [value]])

    def test_entry_count_must_match(self):
        with pytest.raises(ValueError):
            RatMatrix(2, 2, (1,) * 3)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix.from_rows([[1, 2], [3]])

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            RatMatrix(-1, 0, ())

    def test_transpose(self):
        m = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        t = m.transpose()
        assert (t.rows, t.cols) == (3, 2)
        assert t.row(0) == (1, 4)
        assert t.entries == (1, 4, 2, 5, 3, 6)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1), (3, 4), (4, 3)])
    def test_transpose_round_trip(self, rows, cols):
        m = RatMatrix(rows, cols, tuple(range(rows * cols)))
        t = m.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t.row(j)[i] == m.row(i)[j] for i in range(rows) for j in range(cols))
        assert t.transpose() == m


class TestRank:
    def test_empty_matrix(self):
        assert rank(RatMatrix(0, 10, ())) == 0
        assert rank(RatMatrix(0, 0, ())) == 0

    def test_identity(self):
        identity = RatMatrix.from_rows(
            [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        )
        assert rank(identity) == 3

    def test_embedded_vandermonde_rows_have_full_rank(self):
        # Rows (1, x, 0, x^2, 0, 0, x^3, 0, 0, 0): the live columns form a
        # Vandermonde block with nonzero difference product, so rank is 4.
        m = RatMatrix.from_rows(
            [[1, x, 0, x**2, 0, 0, x**3, 0, 0, 0] for x in (1, 2, 3, 4)]
        )
        assert naive_rank(m) == 4
        assert rank(m) == 4

    def test_rank_bounded_by_shape(self):
        m = RatMatrix.from_rows([[1, 2, 3]])
        assert rank(m) == 1

    @given(matrices())
    def test_matches_naive_elimination(self, m):
        assert rank(m) == naive_rank(m)

    @given(matrices())
    def test_transpose_invariance(self, m):
        assert rank(m) == rank(m.transpose())

    @given(matrices(max_rows=5, max_cols=6), st.data())
    def test_invariant_under_row_column_permutation_and_scaling(self, m, data):
        expected = rank(m)
        row_perm = data.draw(st.permutations(range(m.rows)))
        col_perm = data.draw(st.permutations(range(m.cols)))
        scale = data.draw(small_integers.filter(lambda x: x != 0))
        grid = [[m.row(i)[j] for j in col_perm] for i in row_perm]
        if grid:
            grid[0] = [scale * x for x in grid[0]]
        assert rank(RatMatrix.from_rows(grid)) == expected

    def test_agrees_with_naive_on_larger_corpus(self):
        # Spec-sized corpus: shapes up to 12x30, including planted
        # dependent rows, exercised with a fixed deterministic stream.
        rng = random.Random("rank-corpus")
        for _ in range(25):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 30)
            grid = [[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)]
            if rows >= 3:
                grid[-1] = [a + b for a, b in zip(grid[0], grid[1])]
            m = RatMatrix.from_rows(grid)
            assert rank(m) == naive_rank(m)

    def test_big_integer_intermediates_are_exact(self):
        # The 10-point integer Vandermonde determinant already exceeds
        # 64-bit range, so exactness here depends on unbounded integers.
        xs = list(range(1, 11))
        assert math.prod(b - a for i, a in enumerate(xs) for b in xs[i + 1 :]) > 2**63
        assert rank(RatMatrix.from_rows([[x**j for j in range(10)] for x in xs])) == 10


def _integer_matrix(grid: list[list[int]]) -> RatMatrix:
    return RatMatrix(len(grid), len(grid[0]), tuple(x for row in grid for x in row))


def _bareiss(m: RatMatrix) -> int:
    return exact_linalg._bareiss_rank([list(m.row(i)) for i in range(m.rows)], m.cols)


def _large_grid(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """Random integers just large enough that the matrix passes the modular rule."""
    bound = 2 ** (MODULAR_RULE_BITS // min(rows, cols) + 1)
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


@st.composite
def large_entry_matrices(draw):
    """Tall, wide and square matrices past the modular rule, with zero rows,
    negative entries, rows and columns divisible by p, and dependent rows."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    grid = _large_grid(random.Random(draw(st.integers(0, 2**32))), rows, cols)
    # One entry of the largest size the grid can draw puts the matrix past the rule.
    grid[0][0] = -(2 ** (MODULAR_RULE_BITS // min(rows, cols) + 1))
    later_rows = st.lists(st.integers(1, rows - 1), max_size=3, unique=True) if rows > 1 else st.just([])
    for i in draw(later_rows):
        grid[i] = [0] * cols
    for i in draw(later_rows):
        grid[i] = [MODULAR_PRIME * x for x in grid[i]]
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2, unique=True)):
        for row in grid:
            row[j] *= MODULAR_PRIME
    if rows > 2:
        for i in draw(later_rows):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            grid[i] = [a * x + b * y for x, y in zip(grid[0], grid[1])]
    m = _integer_matrix(grid)
    assert min(rows, cols) * max(abs(x) for x in m.entries).bit_length() > MODULAR_RULE_BITS
    return m


def _rows(m: RatMatrix) -> list[tuple[int, ...]]:
    return [m.row(i) for i in range(m.rows)]


def _echelon(m: RatMatrix, p: int) -> tuple[list[int], list[int], list[int]]:
    """The packed elimination of the matrix's rows mod p: (columns, rows, tails)."""
    return exact_linalg._eliminate_mod_p(m.entries, m.cols, p)


def _oracle_pivots_mod_p(m: RatMatrix, p: int) -> list[int]:
    """Pivot columns over GF(p) by textbook Gaussian elimination on lists."""
    grid = [[x % p for x in m.row(i)] for i in range(m.rows)]
    pivots = []
    for c in range(m.cols):
        found = len(pivots)
        pivot = next((i for i in range(found, m.rows) if grid[i][c]), None)
        if pivot is None:
            continue
        grid[found], grid[pivot] = grid[pivot], grid[found]
        inverse = pow(grid[found][c], -1, p)
        for i in range(found + 1, m.rows):
            f = grid[i][c] * inverse % p
            grid[i] = [(a - f * b) % p for a, b in zip(grid[i], grid[found])]
        pivots.append(c)
    return pivots


@st.composite
def mod_p_matrices(draw):
    """Tall, wide and square matrices with entries of 3 to 200 bits, both
    signs, rows and columns scaled by p, and rows dependent mod p only."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    bound = 2 ** draw(st.sampled_from([3, 40, 70, 200]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    indices = st.lists(st.integers(0, rows - 1), max_size=2, unique=True)
    for i in draw(indices):
        grid[i] = [MODULAR_PRIME * x for x in grid[i]]
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2, unique=True)):
        for row in grid:
            row[j] *= MODULAR_PRIME
    if rows > 2:
        for c in draw(indices):
            a, b = draw(st.lists(st.integers(0, rows - 1).filter(lambda i: i != c), min_size=2, max_size=2))
            grid[c] = [x + MODULAR_PRIME * y for x, y in zip(grid[a], grid[b])]
    return _integer_matrix(grid)


@st.composite
def deficient_matrices(draw):
    """Rank-deficient tall, wide and square matrices past the modular rule.

    Rows and columns are scaled by p first, so the first prime may see a
    lower rank or other pivot columns than the rationals.  Then planted
    dependent columns (small combinations of two others, or zero when one
    of the two is the column itself) make the right kernel small, and
    dependent rows the left one, so both sides of the certificate are
    exercised.
    """
    rows, cols = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = _large_grid(rng, rows, cols)
    grid[0][0] = -(2 ** (MODULAR_RULE_BITS // min(rows, cols) + 1))
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2, unique=True)):
        for row in grid:
            row[j] *= MODULAR_PRIME
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=1)):
        grid[i] = [MODULAR_PRIME * x for x in grid[i]]
    coefficient = st.integers(-3, 3)
    # A dependent line on the side that bounds the rank, and maybe on the other too.
    if rows >= cols or draw(st.booleans()):
        for j in draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=2, unique=True)):
            a, b, j1, j2 = draw(coefficient), draw(coefficient), rng.randrange(cols), rng.randrange(cols)
            for row in grid:
                row[j] = a * row[j1] + b * row[j2] if j not in (j1, j2) else 0
    if rows <= cols or draw(st.booleans()):
        for i in draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=2, unique=True)):
            a, b, i1, i2 = draw(coefficient), draw(coefficient), rng.randrange(rows), rng.randrange(rows)
            grid[i] = [a * x + b * y for x, y in zip(grid[i1], grid[i2])] if i not in (i1, i2) else [0] * cols
    return _integer_matrix(grid)


@st.composite
def small_entry_matrices(draw):
    """Tall, wide and square matrices that only the work rule sends to the
    modular route: entries below 2^20, with zero rows, planted dependent
    rows and columns, and columns that are p times an entry below 2^4."""
    full = draw(st.integers(16, 20))
    other = draw(st.integers(max(full, MODULAR_RULE_WORK // full**2 + 1), 40))
    rows, cols = draw(st.sampled_from([(full, other), (other, full)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    grid = [[rng.randint(-(2**14), 2**14) for _ in range(cols)] for _ in range(rows)]
    coefficient = st.integers(-3, 3)
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2, unique=True)):
        a, b, i1, i2 = draw(coefficient), draw(coefficient), rng.randrange(rows), rng.randrange(rows)
        grid[i] = [a * x + b * y for x, y in zip(grid[i1], grid[i2])]
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2, unique=True)):
        a, b, j1, j2 = draw(coefficient), draw(coefficient), rng.randrange(cols), rng.randrange(cols)
        for row in grid:
            row[j] = a * row[j1] + b * row[j2]
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2, unique=True)):
        for row in grid:
            row[j] = MODULAR_PRIME * rng.randint(-15, 15)
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2, unique=True)):
        grid[i] = [0] * cols
    m = _integer_matrix(grid)
    assert max((abs(x) for x in m.entries if x % MODULAR_PRIME), default=0) < 2**20
    assert full * max(abs(x) for x in m.entries).bit_length() <= MODULAR_RULE_BITS
    assert rows * cols * full > MODULAR_RULE_WORK
    return m


def _spy(monkeypatch, name: str, module=exact_linalg) -> list:
    """Record the arguments of every call to <module>.<name>, exact_linalg's by default, then call it."""
    calls = []
    original = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _folded_slot_bound(p: int, full: int) -> int:
    """The largest a slot can reach after `full` updates by folded tails mod p = 2^27 - c."""
    return (p - 1) + full * (p - 1) * (p + 2 * (2**27 - p) - 1)


class TestModularRoute:
    @settings(max_examples=60)
    @given(large_entry_matrices())
    def test_matches_naive_elimination_and_bareiss(self, m):
        assert rank(m) == naive_rank(m) == _bareiss(m)

    @settings(max_examples=80, deadline=None)
    @given(deficient_matrices())
    def test_deficient_matrices_match_naive_elimination_and_bareiss(self, m):
        expected = naive_rank(m)
        assert expected < min(m.rows, m.cols)
        assert rank(m) == expected == _bareiss(m)

    @settings(max_examples=40, deadline=None)
    @given(small_entry_matrices())
    def test_small_entries_past_the_work_rule_match_naive_elimination(self, m):
        expected = naive_rank(m)
        assert rank(m) == expected == rank(m.transpose())

    @settings(max_examples=200)
    @given(mod_p_matrices(), st.sampled_from(MODULAR_PRIMES))
    def test_pass_matches_an_independent_elimination_mod_p(self, m, p):
        columns, pivot_rows, _ = _echelon(m, p)
        assert columns == _oracle_pivots_mod_p(m, p)
        # The recorded pivot rows are independent mod p.
        picked = RatMatrix(len(pivot_rows), m.cols, tuple(x for i in pivot_rows for x in m.row(i)))
        assert len(_oracle_pivots_mod_p(picked, p)) == len(pivot_rows)
        assert rank(m) == naive_rank(m)

    @settings(max_examples=100)
    @given(mod_p_matrices(), st.sampled_from(MODULAR_PRIMES))
    def test_kernel_mod_p_is_the_reduced_echelon_kernel(self, m, p):
        columns, _, tails = _echelon(m, p)
        d = m.cols - len(columns)
        free = [j for j in range(m.cols) if j not in columns]
        flat = exact_linalg._kernel_mod_p(columns, tails, free, p)
        assert len(flat) == d * len(columns)
        for t in range(d):
            vector = [0] * m.cols
            vector[free[t]] = 1
            for column, x in zip(columns, flat[t::d]):
                assert 0 <= x < p
                vector[column] = x
            assert all(sum(a * b for a, b in zip(m.row(i), vector)) % p == 0 for i in range(m.rows))

    @settings(max_examples=150)
    @given(mod_p_matrices(), st.sampled_from(MODULAR_PRIMES))
    def test_span_test_matches_the_rank_mod_p(self, m, p):
        # The other rows of a tall matrix lie in the span of its leading
        # square mod p exactly when they add no rank mod p.
        assume(m.rows > m.cols)
        echelon = exact_linalg._eliminate_mod_p(m.entries[: m.cols**2], m.cols, p)
        kernel = exact_linalg._in_span_mod_p(echelon, m.entries[m.cols**2 :], m.cols, p)
        assert (kernel is not None) == (len(_oracle_pivots_mod_p(m, p)) == len(echelon[0]))
        if kernel is not None:
            free = [j for j in range(m.cols) if j not in echelon[0]]
            assert kernel == exact_linalg._kernel_mod_p(echelon[0], echelon[2], free, p)

    @settings(max_examples=100)
    @given(st.one_of(mod_p_matrices(), deficient_matrices()), st.data())
    def test_a_tall_head_passes_as_the_whole_with_the_rest_built_on_call(self, m, data):
        # Handed its leading rows, at least cols of them, and a callable for the
        # others, a tall matrix gets the whole matrix's first pass and rank, and
        # the callable runs only when the leading square falls short.
        assume(m.rows > m.cols)
        head = data.draw(st.integers(m.cols, m.rows - 1))
        calls = []

        def rest():
            calls.append(head)
            return m.entries[head * m.cols :]

        first = exact_linalg._first_pass(m.entries[: head * m.cols], head, m.cols, rest)
        assert first == exact_linalg._first_pass(m.entries, m.rows, m.cols)
        square = exact_linalg._eliminate_mod_p(m.entries[: m.cols**2], m.cols, MODULAR_PRIME)
        assert len(calls) == (len(square[0]) < m.cols)
        residues = RatMatrix(head, m.cols, m.entries[: head * m.cols])
        assert exact_linalg.rank_from_residues(residues, rest, lambda: m) == naive_rank(m)

    def test_certificate_primes(self):
        # Distinct primes 2^27 - c with 0 < c < 2^8, the first the largest,
        # each the next prime down from the one before, and each within the
        # folded slot bound that MODULAR_MAX_PIVOTS pivots need.
        assert MODULAR_PRIMES[0] == MODULAR_PRIME
        assert len(set(MODULAR_PRIMES)) == len(MODULAR_PRIMES) >= 2
        assert all(map(_is_prime, MODULAR_PRIMES))
        assert all(0 < 2**27 - p < 2**8 for p in MODULAR_PRIMES)
        for above, p in zip((2**27, *MODULAR_PRIMES), MODULAR_PRIMES):
            assert above > p and not any(map(_is_prime, range(p + 1, above)))
        assert all(_folded_slot_bound(p, MODULAR_MAX_PIVOTS) < 2**64 for p in MODULAR_PRIMES)

    def test_slot_bound_holds_exactly_up_to_the_pivot_limit(self):
        # A slot that starts below p and takes `full` updates of (p - f) * y,
        # f below p and y a folded tail slot of at most p + 2c - 1, must stay
        # below 2^64: at every prime up to the limit, and at some prime past it.
        assert all(_folded_slot_bound(p, MODULAR_MAX_PIVOTS) < 2**64 for p in MODULAR_PRIMES)
        assert _folded_slot_bound(MODULAR_PRIME, MODULAR_MAX_PIVOTS + 1) >= 2**64

    @pytest.mark.parametrize("p", MODULAR_PRIMES)
    def test_scaled_tail_folds_every_slot_to_the_bound(self, p):
        # Slots at the edges of the folds, 0 up to 2^64 - 1, each scaled by
        # factors at the edges of GF(p): every result slot is congruent to
        # factor * slot and at most p + 2c - 1.  The last factor takes the
        # slot 2^27 - 1 to 2^27 + (c - 1) * factor - c, between 2^28 +
        # 2^27 - c and 2^28 + 2^27, after the third fold, and so above the
        # bound after the fourth: all five folds are needed.
        c = 2**27 - p
        slots = [0, p - 1, p, p + 2 * c - 1, 2**27 - 1, 2**27, 2**64 - 1, *(random.Random(p).getrandbits(64) for _ in range(9))]
        low, high = exact_linalg._fold_masks(len(slots))
        packed = exact_linalg._pack(slots)
        for factor in (0, 1, 2, p - 1, pow(2**27, -1, p), random.Random(c).randrange(p), -(-(2**28) // (c - 1))):
            scaled = exact_linalg._scaled_tail(packed, factor, c, low, high)
            assert scaled < 2 ** (64 * len(slots))
            for x, y in zip(slots, exact_linalg._unpack(scaled, len(slots))):
                assert y % p == factor * x % p and y <= p + 2 * c - 1

    def test_pivot_limit_covers_the_cell_cap(self):
        # A jet matrix within the cell cap has min(rows, cols) <= isqrt(cap).
        assert MODULAR_MAX_PIVOTS >= math.isqrt(JET_MAX_CELLS)

    def test_smaller_side_above_the_pivot_limit_goes_to_bareiss(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("modular pass ran above the pivot limit")

        monkeypatch.setattr(exact_linalg, "MODULAR_MAX_PIVOTS", 4)
        monkeypatch.setattr(exact_linalg, "_eliminate_mod_p", forbidden)
        m = _integer_matrix(_large_grid(random.Random("pivot-limit"), 6, 6))
        assert 6 * max(abs(x) for x in m.entries).bit_length() > MODULAR_RULE_BITS
        assert rank(m) == 6

    @pytest.mark.parametrize("rows, cols", [(10, 10), (8, 12), (12, 8)])
    def test_rows_all_divisible_by_p_fail_the_pass(self, rows, cols):
        grid = _large_grid(random.Random(f"all-p:{rows}x{cols}"), rows, cols)
        m = _integer_matrix([[MODULAR_PRIME * x for x in row] for row in grid])
        assert _echelon(m, MODULAR_PRIME)[0] == []
        assert rank(m) == _bareiss(m) == min(rows, cols)

    @pytest.mark.parametrize("rows, cols", [(10, 10), (8, 12), (12, 8)])
    def test_every_maximal_minor_divisible_by_p_falls_back(self, rows, cols, monkeypatch):
        # Scaling a row (a column, when the matrix is tall) by p puts a
        # factor p in every maximal minor: full rank over Q, not mod p.
        grid = _large_grid(random.Random(f"p-divides-minors:{rows}x{cols}"), rows, cols)
        if rows <= cols:
            grid[0] = [MODULAR_PRIME * x for x in grid[0]]
        else:
            grid = [[MODULAR_PRIME * row[0], *row[1:]] for row in grid]
        m = _integer_matrix(grid)
        assert len(_echelon(m, MODULAR_PRIME)[0]) < min(rows, cols)
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == naive_rank(m) == min(rows, cols)
        assert len(bareiss) == 1

    def test_full_rank_large_entries_never_enter_bareiss(self, monkeypatch):
        m = _integer_matrix(_large_grid(random.Random("route-full"), 12, 10))

        def forbidden(*args):
            raise AssertionError("Bareiss ran on a matrix the modular route certifies")

        monkeypatch.setattr(exact_linalg, "_bareiss_rank", forbidden)
        monkeypatch.setattr(exact_linalg, "_kernel_certificate", forbidden)
        assert rank(m) == 10

    def test_tall_deficient_square_with_full_column_rank_takes_a_full_pass(self, monkeypatch):
        # Row 9 is row 0 minus row 1, so the leading 10 x 10 square has rank 9,
        # but rows 10 and 11 lift the block to full column rank: the full pass
        # proves it, with no certificate.
        grid = _large_grid(random.Random("tall-square-full"), 12, 10)
        grid[9] = [x - y for x, y in zip(grid[0], grid[1])]
        m = _integer_matrix(grid)
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 10 == naive_rank(m)
        assert [(args[0], args[1]) for args in eliminations] == [(m.entries[:100], 10), (m.entries, 10)]
        assert len(_echelon(_integer_matrix(grid[:10]), MODULAR_PRIME)[0]) == 9
        assert not certificates and not bareiss

    def test_tall_rows_in_the_span_of_the_square_reuse_its_pass(self, monkeypatch):
        # Column 9 is column 0 minus twice column 1, so every row is orthogonal
        # to (-1, 2, 0, ..., 0, 1), the kernel of the leading square: the one
        # 10 x 10 pass serves as the first pass, its pivot rows are the basis,
        # and the certificate checks the vector against all 12 rows.
        grid = _large_grid(random.Random("tall-square-span"), 12, 10)
        grid = [[*row[:9], row[0] - 2 * row[1]] for row in grid]
        m = _integer_matrix(grid)
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        kernels = _spy(monkeypatch, "_kernel_mod_p")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 9 == naive_rank(m)
        [(square, cols, p)] = eliminations
        assert (square, cols, p) == (m.entries[:100], 10, MODULAR_PRIME)
        [(own, basis, first)] = certificates
        (echelon, kernel) = first
        assert (len(own), len(basis)) == (12, 9)
        assert echelon == _echelon(_integer_matrix(grid[:10]), MODULAR_PRIME)
        assert basis == [m.row(i) for i in echelon[1]] and max(echelon[1]) < 10
        # The span test's kernel serves the certificate's first prime: one back substitution there.
        assert kernel == [(p - 1, 2)[i] if i < 2 else 0 for i in range(9)]
        assert [args[-1] for args in kernels] == [MODULAR_PRIME]
        assert exact_linalg._kernel_certificate(own, basis, first) == [[-1, 2, 0, 0, 0, 0, 0, 0, 0, 1]]
        assert not bareiss

    def test_tall_rows_outside_the_span_of_the_square_take_a_full_pass(self, monkeypatch):
        # As above, but rows 8 and 9 are combinations of rows 0 to 7, so the
        # square has rank 8 and a two-dimensional kernel.  Rows 10 and 11 are
        # not orthogonal to all of it: the full pass gives rank 9, and the
        # certificate takes its pivot rows as the basis.
        grid = _large_grid(random.Random("tall-square-outside"), 12, 10)
        grid = [[*row[:9], row[0] - 2 * row[1]] for row in grid]
        grid[8] = [x + 3 * y for x, y in zip(grid[2], grid[5])]
        grid[9] = [x - y for x, y in zip(grid[7], grid[4])]
        m = _integer_matrix(grid)
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 9 == naive_rank(m)
        assert [(args[0], args[1]) for args in eliminations] == [(m.entries[:100], 10), (m.entries, 10)]
        assert len(_echelon(_integer_matrix(grid[:10]), MODULAR_PRIME)[0]) == 8
        [(own, basis, first)] = certificates
        assert (len(own), len(basis)) == (12, 9) and first == (_echelon(m, MODULAR_PRIME), None)
        assert not bareiss

    @pytest.mark.parametrize("rows, cols", [(10, 12), (12, 10), (11, 11)])
    def test_deficient_large_entries_are_certified_without_bareiss(self, rows, cols, monkeypatch):
        # A planted dependent row (column, when the matrix is tall) gives a
        # one-dimensional kernel on the side that certifies.  The wide
        # matrix's own rows, tried first at two primes, have a kernel of
        # three vectors of large minors, out of reach there.
        grid = _large_grid(random.Random(f"route-deficient:{rows}x{cols}"), rows, cols)
        if rows < cols:
            grid[-1] = [x - y for x, y in zip(grid[0], grid[1])]
        else:
            grid = [[*row[:-1], row[0] - 2 * row[1]] for row in grid]
        m = _integer_matrix(grid)

        def forbidden(*args):
            raise AssertionError("Bareiss ran on a deficient matrix the certificate proves")

        monkeypatch.setattr(exact_linalg, "_bareiss_rank", forbidden)
        certificates = _spy(monkeypatch, "_kernel_certificate")
        assert rank(m) == min(rows, cols) - 1 == naive_rank(m)
        if rows < cols:
            (own, own_basis, first, primes), *certificates = certificates
            assert (len(own), len(own_basis), primes) == (rows, rows - 1, MODULAR_PRIMES[:2])
            assert first is not None
        [(side, basis, _)] = certificates
        assert (len(side), len(basis)) == (max(rows, cols), min(rows, cols) - 1)
        assert all(len(row) == min(rows, cols) for row in side + basis)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    def test_uncertifiable_deficient_matrix_falls_back_to_bareiss_once(self, wide, monkeypatch):
        # A = B C with C of full row rank 9: the kernel of A is that of C,
        # spanned by its 9 x 9 minors of about 370 bits, which the primes
        # cannot reach, so every prime is spent and Bareiss runs once.  The
        # tall 12 x 10 matrix reuses its first pass at the first prime.  Its
        # wide transpose reuses it for its own rows, eliminates them again
        # at the second prime, and then tries its columns, whose basis is
        # eliminated at every prime.
        rng = random.Random("route-fallback")
        b = [[rng.randint(-(2**40), 2**40) for _ in range(9)] for _ in range(12)]
        c = [[rng.randint(-(2**40), 2**40) for _ in range(10)] for _ in range(9)]
        m = _integer_matrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b])
        if wide:
            m = m.transpose()
        assert 10 * max(abs(x) for x in m.entries).bit_length() > MODULAR_RULE_BITS
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 9 == naive_rank(m)
        expected = [*MODULAR_PRIMES[:2], *MODULAR_PRIMES] if wide else list(MODULAR_PRIMES)
        assert [args[-1] for args in eliminations] == expected
        assert len(bareiss) == 1

    def test_primes_that_disagree_on_pivot_columns_fall_back(self, monkeypatch):
        # Column 0 is p times a random column and column 9 is column 0 plus
        # column 1: rank 9 over Q with pivots 0..8, but mod p column 0
        # vanishes and column 9 repeats column 1, so the first prime sees
        # rank 8 with pivots 1..8 and the second prime pivots from column 0.
        grid = _large_grid(random.Random("route-disagree"), 12, 10)
        grid = [[MODULAR_PRIME * row[0], *row[1:9], MODULAR_PRIME * row[0] + row[1]] for row in grid]
        m = _integer_matrix(grid)
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 9 == naive_rank(m)
        assert [args[-1] for args in eliminations] == list(MODULAR_PRIMES[:2])
        first = _echelon(m, MODULAR_PRIMES[0])[0]
        assert first == list(range(1, 9))
        assert _oracle_pivots_mod_p(m, MODULAR_PRIMES[1]) == list(range(9))
        assert len(bareiss) == 1

    def test_small_matrices_skip_the_modular_route(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("modular route ran below the rule")

        monkeypatch.setattr(exact_linalg, "_eliminate_mod_p", forbidden)
        bits = MODULAR_RULE_BITS // 8
        m = _integer_matrix(
            [[2 ** (bits - 1) if i == j else 1 for j in range(8)] for i in range(8)]
        )
        assert 8 * bits == MODULAR_RULE_BITS
        assert rank(m) == 8

    @pytest.mark.parametrize("k", [3, 4])
    def test_normalized_halphen_grid_certifies_on_its_rows(self, k, monkeypatch):
        # The grid {0, 1, 2}^2 ranks one wide block whose own kernel, the
        # k + 1 pencil powers, is certified within the row attempt, so no
        # column certificate runs.  At k = 3 the entries have 14 bits, so
        # only the work rule sends the block to the modular route.
        grid = PointConfiguration.from_coordinates([(x, y) for x in range(3) for y in range(3)])
        blocks = _spy(monkeypatch, "_block_rank")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert h0_blowup(grid, k) == k + 1
        [(m,)] = blocks
        shape = {3: (36, 37), 4: (60, 61)}[k]
        assert (m.rows, m.cols) == shape
        if k == 3:
            assert 36 * max(map(abs, m.entries)).bit_length() <= MODULAR_RULE_BITS
            assert 36 * 37 * 36 > MODULAR_RULE_WORK
        [(own, basis, first, primes)] = certificates
        assert (len(own), len(basis), primes) == (shape[0], shape[1] - k - 1, MODULAR_PRIMES[:2])
        assert first is not None and not bareiss

    def test_full_rank_twisted_cubic_block_takes_one_elimination(self, monkeypatch):
        # Five twisted-cubic points at k = 2: four go to the coordinate
        # points, and the 20 x 85 block of the fifth has full rank, proved by
        # the first pass.  Its image has coordinates of 9 bits, so entries of
        # about 8 * 9 = 72 bits are predicted, longer than the residues' 54:
        # the residues are built, and the integer matrix never is.
        config = parse_point_file((DATA / "space_points.txt").read_text())
        residues = _spy(monkeypatch, "rank_from_residues", pluricoh.blowup)
        blocks = _spy(monkeypatch, "_block_rank")
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert h0_blowup(config, 2) == 65
        assert [(m.rows, m.cols, rest) for m, rest, _ in residues] == [(20, 85, None)]
        assert len(eliminations) == 1 and not blocks and not bareiss

    def test_wide_planted_row_certifies_on_its_columns_after_two_primes(self, monkeypatch):
        # Selfcheck's 3 x 4 shape: row 2 is twice row 0.  The own kernel is
        # two vectors of ratios of 2 x 2 minors, out of reach of two primes;
        # the columns' kernel is (-2, 0, 1), certified at the first prime.
        rng = random.Random("wide-planted")
        bits = MODULAR_RULE_BITS // 3 + 1
        grid = [[rng.choice((-1, 1)) * rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(4)] for _ in range(2)]
        m = _integer_matrix([*grid, [2 * x for x in grid[0]]])
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 2 == naive_rank(m)
        assert [args[-1] for args in eliminations] == [*MODULAR_PRIMES[:2], MODULAR_PRIMES[0]]
        [own, columns] = certificates
        assert len(own) == 4 and own[-1] == MODULAR_PRIMES[:2]
        assert len(columns) == 3 and columns[2] is None
        assert exact_linalg._kernel_certificate(*columns) == [[-2, 0, 1]]
        assert not bareiss

    def test_points_on_a_cubic_certify_their_tall_block_on_its_rows(self, monkeypatch):
        # A CI pin.  A line meets the cubic y = x^3 in at most three points and a
        # conic in at most six, so nothing peels.  At k = 6 the seven moved points
        # give one tall 147 x 127 block of rank 126, certified on its own rows; h0
        # counts the powers of the cubic, whose strict transform is -K with
        # self-intersection 9 - 10.
        # All seven images are needed for their rows to reach the columns, so
        # all their residues are built first, with no rest to build later.  They
        # fall short of full rank, so the integer matrix is built and handed the
        # residues' pass: the leading square's elimination and the kernel of its
        # span test.  So it is eliminated once at MODULAR_PRIME and
        # back-substituted once there.
        config = PointConfiguration.from_coordinates([(t, t**3) for t in range(1, 11)])
        residues = _spy(monkeypatch, "rank_from_residues", pluricoh.blowup)
        blocks = _spy(monkeypatch, "_block_rank")
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        kernels = _spy(monkeypatch, "_kernel_mod_p")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert h0_blowup(config, 6) == 1
        [(r, rest, _)] = residues
        [(m, first)] = blocks
        assert (r.rows, r.cols) == (m.rows, m.cols) == (147, 127) and rest is None
        [(own, basis, handed)] = certificates
        assert (len(own), len(basis)) == (147, 126)
        assert handed is first and first[1] is not None and not bareiss
        at_first_prime = [args for args in eliminations if args[-1] == MODULAR_PRIME]
        assert [args[0] for args in at_first_prime] == [r.entries[: 127 * 127]]
        assert [args[-1] for args in kernels].count(MODULAR_PRIME) == 1

    def test_cubic_pencil_rows_fail_at_two_primes_then_its_columns_certify(self, monkeypatch):
        # A CI pin.  The points (t, t^3) for t = -4..4 have parameters summing to
        # 0, so they are the base points of a pencil of cubics and h0 = k + 1,
        # as on the Halphen grid; nothing peels, as above.  At k = 6 the six
        # moved points give one wide 126 x 127 block of rank 120, whose own rows
        # fail at two primes before its columns certify.
        config = PointConfiguration.from_coordinates([(t, t**3) for t in range(-4, 5)])
        blocks = _spy(monkeypatch, "_block_rank")
        certificates = _spy(monkeypatch, "_kernel_certificate")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert h0_blowup(config, 6) == 7
        [(m, first)] = blocks
        assert (m.rows, m.cols) == (126, 127) and first is not None
        [own, columns] = certificates
        assert len(own[0]) == 126 and own[-1] == MODULAR_PRIMES[:2]
        assert len(columns) == 3 and len(columns[0]) == 127 and not bareiss

    def test_plane_k1_blocks_take_the_modular_route_from_six_rows(self, monkeypatch):
        # At k = 1 the v - 3 moved points give one (v - 3) x 7 block on the hexagon's
        # cubics.  Sampled generic coordinates up to 10^6 give images of 37 to 41 bits
        # (seeds 0 to 19), so entries of up to 3 * 41 = 123 bits are predicted: up to
        # five rows that is under both rules, where Bareiss is faster, and from six
        # rows (v = 9) on the bit rule sends the block to the modular route, which is
        # faster there, on its residues.  From eight rows (v = 11) on the block is tall,
        # and only its leading seven images are built and handed over with a callable
        # for the others' residues: a 7 x 7 head of full rank mod p settles it, and
        # the callable is never called.  Points on a conic have small entries and stay
        # on Bareiss.
        assert 5 * 123 <= MODULAR_RULE_BITS < 6 * 112 and 7 * 7 * 7 <= MODULAR_RULE_WORK
        modular = _spy(monkeypatch, "_eliminate_mod_p")
        blocks = _spy(monkeypatch, "_block_rank")
        residues = _spy(monkeypatch, "rank_from_residues", pluricoh.blowup)
        builds = _spy(monkeypatch, "jet_matrix", pluricoh.blowup)
        for kind, v in [("generic", v) for v in range(5, 13)] + [("on_conic", 5), ("on_conic", 6)]:
            for calls in (blocks, modular, residues, builds):
                calls.clear()
            generate_configuration(kind, v, seed=3)
            ranked = [m for m, *_ in blocks + residues]
            leading = [rest for _, rest, _ in residues if rest is not None]
            shape = (7, 7) if kind == "generic" and v >= 11 else (v - 3, 7)
            assert ranked and all((m.rows, m.cols) == shape for m in ranked)
            assert bool(leading) == (kind == "generic" and v >= 11)
            assert bool(modular) == bool(residues) == (kind == "generic" and v >= 9)
            assert all(len(args[1]) == shape[0] for args in builds)


def _direct_sum(blocks: list[RatMatrix], row_order: list[int], column_order: list[int]) -> RatMatrix:
    """The block-diagonal matrix of the blocks, its rows and columns then permuted."""
    rows, cols = sum(b.rows for b in blocks), sum(b.cols for b in blocks)
    grid = [[0] * cols for _ in range(rows)]
    top = left = 0
    for b in blocks:
        for i in range(b.rows):
            grid[top + i][left : left + b.cols] = b.row(i)
        top, left = top + b.rows, left + b.cols
    return RatMatrix(rows, cols, tuple(grid[i][j] for i in row_order for j in column_order))


@st.composite
def permuted_direct_sums(draw):
    """(matrix, blocks): one to four small or large-entry blocks, summed and shuffled."""
    blocks = draw(st.lists(st.one_of(matrices(4, 5), large_entry_matrices()), min_size=1, max_size=4))
    rows, cols = sum(b.rows for b in blocks), sum(b.cols for b in blocks)
    row_order = draw(st.permutations(range(rows)))
    column_order = draw(st.permutations(range(cols)))
    return _direct_sum(blocks, row_order, column_order), blocks


class TestBlockSplit:
    """`rank` sums the ranks of the blocks of the nonzero pattern."""

    @given(permuted_direct_sums())
    @settings(max_examples=60, deadline=None)
    def test_rank_is_the_sum_over_blocks(self, case):
        m, blocks = case
        assert rank(m) == sum(naive_rank(b) for b in blocks) == naive_rank(m)

    @pytest.mark.parametrize("transpose", [False, True], ids=["row", "column"])
    def test_zero_free_row_or_column_takes_the_unsplit_route(self, transpose, monkeypatch):
        # Row 0 has no zero and every other row has one, column 0 too, so
        # only the row links the rows (in the transpose, only the column):
        # the matrix itself is ranked, as it was unsplit.  Its entries go to
        # the modular pass; the tall transpose's leading 10 x 10 square does,
        # and settles it.
        grid = _large_grid(random.Random("zero-free"), 10, 12)
        grid[0] = [x or 1 for x in grid[0]]
        for i in range(1, 10):
            grid[i][i - 1] = 0
        m = _integer_matrix(grid)
        if transpose:
            m = m.transpose()
        assert exact_linalg._blocks(m) is None
        blocks = _spy(monkeypatch, "_block_rank")
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        assert rank(m) == 10 == naive_rank(m)
        [(ranked,)] = blocks
        assert ranked is m
        if transpose:
            [(square, cols, _)] = eliminations
            assert (square, cols) == (m.entries[:100], 10)
        else:
            assert eliminations[0][0] is m.entries

    def test_each_block_takes_its_own_route(self, monkeypatch):
        # A large-entry block past the modular rule, full rank mod p, and a
        # small one below it, shuffled together: one modular pass and one
        # Bareiss elimination, each on its own block.
        large = _integer_matrix(_large_grid(random.Random("split-large"), 6, 8))
        small = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        rng = random.Random("split-order")
        m = _direct_sum([large, small], rng.sample(range(9), 9), rng.sample(range(11), 11))
        eliminations = _spy(monkeypatch, "_eliminate_mod_p")
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == 6 + 2 == naive_rank(m)
        assert [sorted(args[0]) for args in eliminations] == [sorted(large.entries)]
        [(work, cols)] = bareiss
        assert (len(work), cols) == (3, 3)


def _fraction_free(vector: list[int], lcm: int) -> list[int]:
    """The vector divided by lcm with each entry's denominator dropped."""
    return [Fraction(x, lcm).numerator for x in vector]


class TestCertificateFaults:
    """Faults planted in the certificate must be caught by the exact check
    and leave the rank to Bareiss, which still gets it right."""

    @staticmethod
    def _sixths_matrix() -> RatMatrix:
        # Columns 0 and 1 are 2a and 3b and column 9 is a + b, so the kernel
        # is spanned by (-1/2, -1/3, 0, ..., 0, 1): its two denominators show
        # up one entry after the other.
        rng = random.Random("sixths")
        grid = _large_grid(rng, 12, 9)
        for row in grid:
            a, b = rng.randint(-(2**80), 2**80), rng.randint(-(2**80), 2**80)
            row[0], row[1] = 2 * a, 3 * b
            row.append(a + b)
        return _integer_matrix(grid)

    def _assert_rejected_then_bareiss(self, monkeypatch, m, fault):
        original = exact_linalg._integer_kernel
        monkeypatch.setattr(exact_linalg, "_integer_kernel", lambda *args: fault(original(*args)))
        checks = []
        check = exact_linalg._proves_kernel

        def recording(matrix, vectors, free):
            checks.append(check(matrix, vectors, free))
            return checks[-1]

        monkeypatch.setattr(exact_linalg, "_proves_kernel", recording)
        bareiss = _spy(monkeypatch, "_bareiss_rank")
        assert rank(m) == naive_rank(m)
        assert checks and not any(checks)
        assert len(bareiss) == 1

    def test_true_certificate_clears_both_denominators(self):
        m = self._sixths_matrix()
        [vector] = exact_linalg._kernel_certificate(_rows(m), _rows(m), None)
        assert vector == [-3, -2, 0, 0, 0, 0, 0, 0, 0, 6]
        assert rank(m) == 9

    def test_perturbed_entry_is_rejected(self, monkeypatch):
        def perturb(vectors):
            if vectors is not None:
                vectors[0][0] += 1
            return vectors

        self._assert_rejected_then_bareiss(monkeypatch, self._sixths_matrix(), perturb)

    def test_dropped_lcm_is_rejected(self, monkeypatch):
        def drop_lcm(vectors):
            if vectors is not None:
                vectors = [_fraction_free(vector, vector[-1]) for vector in vectors]
                assert vectors == [[-1, -1, 0, 0, 0, 0, 0, 0, 0, 1]]
            return vectors

        self._assert_rejected_then_bareiss(monkeypatch, self._sixths_matrix(), drop_lcm)

    def test_slot_one_bit_too_narrow_would_accept_what_the_check_rejects(self, monkeypatch):
        # Rank 2 with free columns 2 and 3.  The bogus candidates carry the
        # right pattern on the free columns.  Row 0 times v0 is 8 M 2^j and
        # times v1 is -1; the other rows are (c, -c, 0, 0), which both
        # vectors annihilate.  The check's bound is 4 * M * 3 * 2^j, just
        # under 2^(w + 1) with w = log2(8 M 2^j); with slots of w bits, one
        # fewer than the bound needs, row 0's 8 M 2^j carries into slot 1
        # and cancels the -1, so that packing sees zero in every row.
        big, unit = 2**200, 2**15
        rng = random.Random("narrow-slot")
        grid = [[big, big, big, 1]] + [[c, -c, 0, 0] for c in (rng.randint(1, big - 1) for _ in range(5))]
        m = _integer_matrix(grid)
        bogus = [[3 * unit, 3 * unit, 2 * unit, 0], [0, 0, 0, -1]]
        narrow = (m.cols * big * 3 * unit).bit_length() - 1
        packed = [x + (y << narrow) for x, y in zip(*bogus)]
        assert all(sum(a * b for a, b in zip(m.row(i), packed)) == 0 for i in range(m.rows))
        assert _echelon(m, MODULAR_PRIME)[0] == [0, 1]
        assert not exact_linalg._proves_kernel(_rows(m), bogus, [2, 3])
        # Planted as the candidate of every prime, it is rejected each time.
        self._assert_rejected_then_bareiss(monkeypatch, m, lambda vectors: [list(v) for v in bogus])
        assert rank(m) == 2

    @pytest.mark.parametrize("short", ["one vector too few", "one entry short"])
    def test_misshapen_candidates_are_rejected_without_raising(self, short):
        m = self._sixths_matrix()
        vector = [-3, -2, 0, 0, 0, 0, 0, 0, 0, 6]
        assert exact_linalg._proves_kernel(_rows(m), [vector], [9])
        vectors = [] if short == "one vector too few" else [vector[:-1]]
        assert exact_linalg._proves_kernel(_rows(m), vectors, [9]) is False

    def test_candidate_without_its_free_column_is_rejected(self, monkeypatch):
        # The zero vector annihilates everything but proves nothing.
        def zero(vectors):
            return [[0] * len(vector) for vector in vectors] if vectors is not None else None

        self._assert_rejected_then_bareiss(monkeypatch, self._sixths_matrix(), zero)


class TestHalphenSections:
    """The right kernel of the jet matrix of the grid {0, 1, 2}^2 at power k
    is the space of degree-3k curves through the Halphen pencil's base
    points with multiplicity k: the span of F^a G^(k-a), F = x(x-1)(x-2),
    G = y(y-1)(y-2)."""

    @staticmethod
    def _product_vector(monomials, a: int, k: int) -> list[int]:
        # Coefficients of F^a G^(k-a) over the jet matrix's monomials.
        def power(poly: dict, e: int) -> dict:
            out = {0: 1}
            for _ in range(e):
                new: dict = {}
                for i, x in out.items():
                    for j, y in poly.items():
                        new[i + j] = new.get(i + j, 0) + x * y
                out = new
            return out

        cubic = {3: 1, 2: -3, 1: 2}  # t(t-1)(t-2)
        fx, gy = power(cubic, a), power(cubic, k - a)
        return [fx.get(i, 0) * gy.get(j, 0) for i, j in monomials]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_certified_kernel_spans_the_pencil_powers(self, k):
        config = PointConfiguration.from_coordinates([(x, y) for x in range(3) for y in range(3)])
        jets = jet_matrix(2, config.lifts, 3 * k, [k] * config.v)
        m = jets.matrix
        vectors = exact_linalg._kernel_certificate(_rows(m), _rows(m), None)
        assert vectors is not None and len(vectors) == k + 1
        assert rank(m) == m.cols - (k + 1)
        products = [self._product_vector(_graded_exponents(2, 3 * k), a, k) for a in range(k + 1)]
        assert naive_rank(RatMatrix.from_rows(products)) == k + 1
        assert naive_rank(RatMatrix.from_rows(vectors)) == k + 1
        assert naive_rank(RatMatrix.from_rows(vectors + products)) == k + 1


class TestVandermonde:
    @given(st.lists(small_integers, max_size=6))
    def test_rank_counts_distinct_values(self, xs):
        # Rows (1, x, ..., x^(len-1)); the determinant is the product of the pairwise differences.
        distinct = len(set(xs))
        det = math.prod(b - a for i, a in enumerate(xs) for b in xs[i + 1 :])
        assert rank(RatMatrix.from_rows([[x**j for j in range(len(xs))] for x in xs])) == distinct
        assert (det != 0) == (distinct == len(xs))
