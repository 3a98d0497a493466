"""Tests for the exact rational linear algebra layer.

Expected values marked as derived were computed first with the naive
Fraction-elimination oracle in `pluricoh.selfcheck`, which shares no code
with the fraction-free production routines.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluricoh import exact_linalg
from pluricoh.cli import JET_MAX_CELLS
from pluricoh.exact_linalg import (
    MODULAR_MAX_PIVOTS,
    MODULAR_PRIME,
    MODULAR_RULE_BITS,
    RatMatrix,
    rank,
)
from pluricoh.selfcheck import naive_rank

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
        assert m.entry(0, 1) == -2
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
        grid = [[m.entry(i, j) for j in col_perm] for i in row_perm]
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


def _oracle_rank_mod_p(m: RatMatrix) -> int:
    """Rank over GF(MODULAR_PRIME) by textbook Gaussian elimination on lists."""
    p = MODULAR_PRIME
    grid = [[x % p for x in m.row(i)] for i in range(m.rows)]
    found = 0
    for c in range(m.cols):
        pivot = next((i for i in range(found, m.rows) if grid[i][c]), None)
        if pivot is None:
            continue
        grid[found], grid[pivot] = grid[pivot], grid[found]
        inverse = pow(grid[found][c], -1, p)
        for i in range(found + 1, m.rows):
            f = grid[i][c] * inverse % p
            grid[i] = [(a - f * b) % p for a, b in zip(grid[i], grid[found])]
        found += 1
    return found


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


class TestModularRoute:
    @settings(max_examples=60)
    @given(large_entry_matrices())
    def test_matches_naive_elimination_and_bareiss(self, m):
        assert rank(m) == naive_rank(m) == _bareiss(m)

    @settings(max_examples=200)
    @given(mod_p_matrices())
    def test_pass_matches_an_independent_elimination_mod_p(self, m):
        full = min(m.rows, m.cols)
        assert exact_linalg._has_full_rank_mod_p(m) == (_oracle_rank_mod_p(m) == full)
        assert rank(m) == naive_rank(m)

    def test_prime_is_the_largest_below_2_27(self):
        def is_prime(n):
            return all(n % d for d in range(2, math.isqrt(n) + 1))

        assert MODULAR_PRIME < 2**27 and is_prime(MODULAR_PRIME)
        assert not any(map(is_prime, range(MODULAR_PRIME + 1, 2**27)))

    def test_slot_bound_holds_exactly_up_to_the_pivot_limit(self):
        # A slot that starts below p and takes `full` updates of (p - f) * y,
        # f and y below p, must stay below 2^64.
        def bound(full):
            return (MODULAR_PRIME - 1) + full * (MODULAR_PRIME - 1) ** 2

        assert bound(MODULAR_MAX_PIVOTS) < 2**64
        assert bound(MODULAR_MAX_PIVOTS + 1) >= 2**64

    def test_pivot_limit_covers_the_cell_cap(self):
        # A jet matrix within the cell cap has min(rows, cols) <= isqrt(cap).
        assert MODULAR_MAX_PIVOTS >= math.isqrt(JET_MAX_CELLS)

    def test_smaller_side_above_the_pivot_limit_goes_to_bareiss(self, monkeypatch):
        def forbidden(matrix):
            raise AssertionError("modular pass ran above the pivot limit")

        monkeypatch.setattr(exact_linalg, "MODULAR_MAX_PIVOTS", 4)
        monkeypatch.setattr(exact_linalg, "_has_full_rank_mod_p", forbidden)
        m = _integer_matrix(_large_grid(random.Random("pivot-limit"), 6, 6))
        assert 6 * max(abs(x) for x in m.entries).bit_length() > MODULAR_RULE_BITS
        assert rank(m) == 6

    @pytest.mark.parametrize("rows, cols", [(10, 10), (8, 12), (12, 8)])
    def test_rows_all_divisible_by_p_fail_the_pass(self, rows, cols):
        grid = _large_grid(random.Random(f"all-p:{rows}x{cols}"), rows, cols)
        m = _integer_matrix([[MODULAR_PRIME * x for x in row] for row in grid])
        assert not exact_linalg._has_full_rank_mod_p(m)
        assert rank(m) == _bareiss(m) == min(rows, cols)

    @pytest.mark.parametrize("rows, cols", [(10, 10), (8, 12), (12, 8)])
    def test_every_maximal_minor_divisible_by_p_falls_back(self, rows, cols):
        # Scaling a row (a column, when the matrix is tall) by p puts a
        # factor p in every maximal minor: full rank over Q, not mod p.
        grid = _large_grid(random.Random(f"p-divides-minors:{rows}x{cols}"), rows, cols)
        if rows <= cols:
            grid[0] = [MODULAR_PRIME * x for x in grid[0]]
        else:
            grid = [[MODULAR_PRIME * row[0], *row[1:]] for row in grid]
        m = _integer_matrix(grid)
        assert not exact_linalg._has_full_rank_mod_p(m)
        assert rank(m) == naive_rank(m) == min(rows, cols)

    def test_full_rank_large_entries_never_enter_bareiss(self, monkeypatch):
        m = _integer_matrix(_large_grid(random.Random("route-full"), 12, 10))

        def forbidden(work, n):
            raise AssertionError("Bareiss ran on a matrix the modular route certifies")

        monkeypatch.setattr(exact_linalg, "_bareiss_rank", forbidden)
        assert rank(m) == 10

    def test_deficient_large_entries_fall_back_to_bareiss(self, monkeypatch):
        grid = _large_grid(random.Random("route-deficient"), 10, 12)
        grid[-1] = [x - y for x, y in zip(grid[0], grid[1])]
        m = _integer_matrix(grid)
        calls = []
        bareiss = exact_linalg._bareiss_rank

        def spy(work, n):
            calls.append(n)
            return bareiss(work, n)

        monkeypatch.setattr(exact_linalg, "_bareiss_rank", spy)
        assert rank(m) == 9
        assert calls == [12]

    def test_small_matrices_skip_the_modular_route(self, monkeypatch):
        def forbidden(matrix):
            raise AssertionError("modular route ran below the rule")

        monkeypatch.setattr(exact_linalg, "_has_full_rank_mod_p", forbidden)
        bits = MODULAR_RULE_BITS // 8
        m = _integer_matrix(
            [[2 ** (bits - 1) if i == j else 1 for j in range(8)] for i in range(8)]
        )
        assert 8 * bits == MODULAR_RULE_BITS
        assert rank(m) == 8


class TestVandermonde:
    @given(st.lists(small_integers, max_size=6))
    def test_rank_counts_distinct_values(self, xs):
        # Rows (1, x, ..., x^(len-1)); the determinant is the product of the pairwise differences.
        distinct = len(set(xs))
        det = math.prod(b - a for i, a in enumerate(xs) for b in xs[i + 1 :])
        assert rank(RatMatrix.from_rows([[x**j for j in range(len(xs))] for x in xs])) == distinct
        assert (det != 0) == (distinct == len(xs))
