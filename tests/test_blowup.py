"""Tests for blow-up section counts, configuration generators and file parsing.

Rank-based expectations below were first computed with the independent
naive-elimination oracle `naive_rank` (plain integer row elimination with
gcd reduction) and are asserted against both routes where it matters.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pluricoh.blowup
from pluricoh.blowup import (
    PointConfiguration,
    SWEEP_STEP_ATTEMPTS,
    PointFileError,
    SamplingBudgetError,
    _capped_count,
    _graded_exponents,
    _independent_lifts,
    _polytope,
    achievable_dims,
    blowup_row,
    generate_configuration,
    h0_blowup,
    jet_matrix,
    jet_shape,
    monomial_count,
    parse_point_file,
)
from pluricoh.cli import JET_MAX_CELLS
from pluricoh.exact_linalg import RatMatrix, rank
from pluricoh.selfcheck import naive_rank

DATA = Path(__file__).resolve().parent / "data"

coords = st.fractions(min_value=-20, max_value=20, max_denominator=8)
points_2d = st.tuples(coords, coords)


def configs(min_points: int, max_points: int):
    return st.lists(points_2d, unique=True, min_size=min_points, max_size=max_points).map(
        lambda pts: PointConfiguration(n=2, points=tuple(pts))
    )


def space_configs(n: int):
    return st.lists(st.tuples(*[coords] * n), unique=True, min_size=1, max_size=3).map(
        lambda pts: PointConfiguration(n=n, points=tuple(pts))
    )


@st.composite
def chart_lifts(draw):
    """(n, lifts, k): nonzero integer lifts of P^2 or P^3, each with 0 to n leading zeros."""
    n, k = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]))
    entry = st.integers(-9, 9)
    lift = st.integers(0, n).flatmap(
        lambda j: st.tuples(*[st.just(0)] * j, entry.filter(bool), *[entry] * (n - j))
    )
    return n, draw(st.lists(lift, min_size=1, max_size=3 if k < 3 else 2)), k


VERONESE_ORDER = (
    (0, 0),
    (1, 0),
    (0, 1),
    (2, 0),
    (1, 1),
    (0, 2),
    (3, 0),
    (2, 1),
    (1, 2),
    (0, 3),
)


class TestPointConfiguration:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            PointConfiguration.from_coordinates([(1, 2), (1, 2)])

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointConfiguration(n=2, points=((Fraction(1),),))

    def test_empty_configuration_allowed(self):
        assert PointConfiguration(n=2, points=()).v == 0

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError, match="ambient dimension n must be positive"):
            PointConfiguration(n=0, points=())

    def test_int_coordinates_rejected(self):
        with pytest.raises(ValueError, match="coordinates must be Fractions"):
            PointConfiguration(n=2, points=((1, 2),))

    def test_from_coordinates_needs_a_point(self):
        with pytest.raises(ValueError, match="empty point list"):
            PointConfiguration.from_coordinates([])

    def test_from_coordinates_parses_rationals(self):
        config = PointConfiguration.from_coordinates([(0, 0), ("1/2", 3)])
        assert config.points == ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(3)))


class TestMonomialCount:
    def test_plane_anticanonical(self):
        assert monomial_count(2, 1) == 10

    def test_plane_power_two_by_enumeration(self):
        enumerated = sum(1 for i in range(7) for j in range(7) if i + j <= 6)
        assert enumerated == 28
        assert monomial_count(2, 2) == 28

    def test_space_by_enumeration(self):
        enumerated = sum(
            1
            for i in range(5)
            for j in range(5)
            for l in range(5)
            if i + j + l <= 4
        )
        assert enumerated == 35
        assert monomial_count(3, 1) == 35

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            monomial_count(0, 1)
        with pytest.raises(ValueError):
            monomial_count(2, 0)


class TestJetMatrix:
    def test_column_order_is_the_veronese_order(self):
        assert tuple(_graded_exponents(2, 3)) == VERONESE_ORDER
        config = PointConfiguration.from_coordinates([(2, 3)])
        jet = jet_matrix(config.n, config.lifts, 1)
        assert jet.matrix.row(0) == tuple(2**i * 3**j for i, j in VERONESE_ORDER)

    def test_single_point_evaluation_row(self):
        config = PointConfiguration.from_coordinates([(0, 0)])
        jet = jet_matrix(config.n, config.lifts, 1)
        assert (jet.matrix.rows, jet.matrix.cols) == (1, 10)
        assert jet.matrix.row(0) == (Fraction(1),) + (Fraction(0),) * 9

    def test_evaluation_rows_are_monomial_vectors(self):
        config = PointConfiguration.from_coordinates([(2, 3)])
        jet = jet_matrix(config.n, config.lifts, 1)
        x, y = Fraction(2), Fraction(3)
        assert jet.matrix.row(0) == (1, x, y, x**2, x * y, y**2, x**3, x**2 * y, x * y**2, y**3)

    def test_power_two_at_origin_selects_low_coefficients(self):
        # Rows: the derivatives alpha = (0, 0), (1, 0), (0, 1), the first three monomials.
        config = PointConfiguration.from_coordinates([(0, 0)])
        jet = jet_matrix(config.n, config.lifts, 2)
        assert (jet.matrix.rows, jet.matrix.cols) == (3, 28)
        assert _graded_exponents(2, 6)[:3] == [(0, 0), (1, 0), (0, 1)]
        for row_index in range(3):
            row = jet.matrix.row(row_index)
            assert row[row_index] == 1
            assert all(x == 0 for i, x in enumerate(row) if i != row_index)

    def test_collinear_rows(self):
        config, _ = generate_configuration("collinear", 5)
        jet = jet_matrix(config.n, config.lifts, 1)
        assert (jet.matrix.rows, jet.matrix.cols) == (5, 10)
        for i, x in enumerate(range(1, 6)):
            assert jet.matrix.row(i) == (1, x, 0, x**2, 0, 0, x**3, 0, 0, 0)

    def test_row_count_formula(self):
        config = PointConfiguration.from_coordinates([(0, 0), (1, 1), (2, 5)])
        assert jet_matrix(config.n, config.lifts, 2).matrix.rows == 3 * 3
        assert jet_matrix(config.n, config.lifts, 3).matrix.rows == 3 * 6

    @pytest.mark.parametrize(
        "n, v, k, shape",
        [(2, 1, 1, (1, 10)), (2, 3, 2, (9, 28)), (2, 5, 4, (50, 91)), (3, 1, 1, (4, 35)), (3, 5, 3, (280, 455))],
    )
    def test_jet_shape(self, n, v, k, shape):
        assert jet_shape(n, v, k) == shape

    def test_line_ambient_rejected(self):
        config = PointConfiguration(n=1, points=((Fraction(1),),))
        with pytest.raises(ValueError):
            jet_matrix(config.n, config.lifts, 1)

    @pytest.mark.parametrize("lift", [(1, 2), (1, 2, 3, 4), (0, 0, 0)])
    def test_malformed_lift_rejected(self, lift):
        with pytest.raises(ValueError, match=r"nonzero vector of n \+ 1 = 3 integers"):
            jet_matrix(2, [(1, 0, 0), lift], 1)

    def test_zero_power_rejected(self):
        config = PointConfiguration.from_coordinates([(0, 0)])
        with pytest.raises(ValueError):
            jet_matrix(config.n, config.lifts, 0)

    @given(configs(1, 4), st.integers(1, 3))
    @settings(max_examples=50)
    def test_rows_are_scaled_true_derivatives(self, config, k):
        _assert_scaled_true_derivatives(config.n, config.lifts, k)

    def test_space_point_file_rows_are_scaled_true_derivatives(self):
        config = parse_point_file((DATA / "space_points.txt").read_text())
        _assert_scaled_true_derivatives(config.n, config.lifts, 1)

    # Each coordinate is one level of the product tree, so P^3 and P^4 take it
    # three and four levels deep; k = 2 in P^3 reaches derivative order 3.
    @given(
        st.sampled_from([(3, 1), (3, 2), (4, 1)]).flatmap(
            lambda nk: st.tuples(space_configs(nk[0]), st.just(nk[1]))
        )
    )
    # Integer points: the homogenizing root is all ones and is skipped.
    @example((PointConfiguration.from_coordinates([(1, -2, 3), (0, 5, 7), (4, 4, -1)]), 2))
    @example((PointConfiguration.from_coordinates([(2, -1, 0, 3), (1, 1, 1, 1)]), 1))
    # Fractional points whose denominators have lcm 12, 6 and 4.
    @example((PointConfiguration.from_coordinates([("1/4", "2/3", 5), ("-3/2", "5/3", "1/6"), (0, 0, "1/4")]), 2))
    @settings(max_examples=25, deadline=None)
    def test_space_rows_are_scaled_true_derivatives(self, case):
        config, k = case
        _assert_scaled_true_derivatives(config.n, config.lifts, k)

    @given(chart_lifts())
    # x_0 = 0: the rows are taken in the chart of x_1, and of x_2 for (0, 0, 3).
    @example((2, [(0, 1, 2), (0, 0, 3)], 3))
    @example((3, [(0, 2, -1, 1), (0, 0, 0, 5), (0, 0, -2, 1)], 2))
    @settings(max_examples=30, deadline=None)
    def test_rows_off_the_first_chart_are_scaled_true_derivatives(self, case):
        _assert_scaled_true_derivatives(*case)


def _true_derivative(beta, alpha, point) -> Fraction:
    """The alpha-th partial derivative of the monomial z^beta at `point`, over Fraction."""
    value = Fraction(1)
    for b, a, q in zip(beta, alpha, point):
        if a > b:
            return Fraction(0)
        coeff = 1
        for t in range(b, b - a, -1):
            coeff *= t
        value *= coeff * q ** (b - a)
    return value


def _assert_scaled_true_derivatives(n: int, lifts, k: int) -> None:
    # Each row of a lift P whose first nonzero coordinate is x_j holds the true
    # derivatives, in the chart x_j = 1, of the dehomogenized monomials at
    # P / P_j, times P_j^((n+1)k - |alpha|).  For a point's lift (d, d*x),
    # j = 0: the true derivatives at x times d^((n+1)k - |alpha|).
    jet = jet_matrix(n, lifts, k)
    top = (n + 1) * k
    monomials = _graded_exponents(n, top)
    # The documented row order: lifts in the order given, then the
    # multi-indices of order below (n-1)k in the graded order of the columns.
    alphas = [alpha for alpha in monomials if sum(alpha) < (n - 1) * k]
    assert jet.matrix.rows == len(lifts) * len(alphas)
    rows = iter(range(jet.matrix.rows))
    homogenized = [(top - sum(beta), *beta) for beta in monomials]
    for lift in lifts:
        j = next(c for c, x in enumerate(lift) if x)
        point = [Fraction(x, lift[j]) for c, x in enumerate(lift) if c != j]
        # Each column's form of degree top, with x_j's exponent dropped.
        charted = [beta[:j] + beta[j + 1 :] for beta in homogenized]
        for alpha in alphas:
            row = jet.matrix.row(next(rows))
            assert all(type(x) is int for x in row)
            assert row == tuple(lift[j] ** (top - sum(alpha)) * _true_derivative(b, alpha, point) for b in charted)


class TestH0Blowup:
    def test_three_points(self):
        config = PointConfiguration.from_coordinates([(0, 0), (1, 0), (0, 1)])
        assert h0_blowup(config, 1) == 7

    def test_five_collinear_points(self):
        config, _ = generate_configuration("collinear", 5)
        jet = jet_matrix(config.n, config.lifts, 1).matrix
        assert naive_rank(jet) == 4
        assert h0_blowup(config, 1) == 6

    def test_no_points_no_conditions(self):
        assert h0_blowup(PointConfiguration(n=2, points=()), 1) == 10

    def test_power_two_at_origin(self):
        config = PointConfiguration.from_coordinates([(0, 0)])
        assert h0_blowup(config, 2) == 28 - 3 == 25

    @given(configs(1, 4))
    def test_few_points_impose_independent_conditions(self, config):
        jet = jet_matrix(config.n, config.lifts, 1).matrix
        assert rank(jet) == config.v
        assert h0_blowup(config, 1) == 10 - config.v

    @given(configs(1, 3))
    def test_matches_naive_nullspace_dimension(self, config):
        jet = jet_matrix(config.n, config.lifts, 1).matrix
        assert h0_blowup(config, 1) == jet.cols - naive_rank(jet)

    @given(configs(1, 6), points_2d)
    # One step right of (1, 0) lands on (2, 0), which is also taken.
    @example(PointConfiguration.from_coordinates([(1, 0), (2, 0)]), (Fraction(1), Fraction(0)))
    def test_appending_a_point_never_gains_sections(self, config, extra):
        while extra in config.points:
            extra = (extra[0] + 1, extra[1])
        bigger = PointConfiguration(n=2, points=config.points + (extra,))
        assert h0_blowup(bigger, 1) <= h0_blowup(config, 1)

    @given(
        configs(1, 5),
        st.tuples(coords, coords, coords, coords).filter(
            lambda t: t[0] * t[3] - t[1] * t[2] != 0
        ),
        points_2d,
    )
    @settings(max_examples=40)
    # Integer points in special position (five on a line, seven on the parabola
    # y = x^2), moved so that the images have different denominators: a jet
    # build that scales each point by its own denominator loses the curve.
    @example(
        PointConfiguration.from_coordinates([(x, x) for x in range(5)]),
        (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1)),
        (Fraction(1, 5), Fraction(-3, 7)),
    )
    @example(
        PointConfiguration.from_coordinates([(x, x * x) for x in range(-3, 4)]),
        (Fraction(2, 3), Fraction(0), Fraction(1, 2), Fraction(-1, 6)),
        (Fraction(0), Fraction(5, 4)),
    )
    def test_invariant_under_affine_substitution(self, config, linear, shift):
        a, b, c, d = linear
        e, f = shift
        moved = PointConfiguration(
            n=2,
            points=tuple(
                (a * x + b * y + e, c * x + d * y + f) for x, y in config.points
            ),
        )
        assert h0_blowup(moved, 1) == h0_blowup(config, 1)
        assert h0_blowup(moved, 2) == h0_blowup(config, 2)

    @given(configs(4, 8))
    @settings(max_examples=60)
    def test_at_least_four_independent_conditions(self, config):
        # Shearing x by a multiple of y separates the x-coordinates while
        # preserving rank, which exposes an embedded Vandermonde block.
        r = rank(jet_matrix(config.n, config.lifts, 1).matrix)
        xs = [p[0] for p in config.points]
        if len(set(xs)) < config.v:
            shear = _separating_shear(config)
            sheared = PointConfiguration(
                n=2, points=tuple((x + shear * y, y) for x, y in config.points)
            )
            assert len({p[0] for p in sheared.points}) == config.v
            assert rank(jet_matrix(sheared.n, sheared.lifts, 1).matrix) == r
        assert r >= 4


def _separating_shear(config: PointConfiguration) -> Fraction:
    candidate = Fraction(1)
    while True:
        xs = {x + candidate * y for x, y in config.points}
        if len(xs) == config.v:
            return candidate
        candidate += 1


class TestSpaceBlowups:
    def test_single_point_in_three_space(self):
        config = PointConfiguration.from_coordinates([(0, 0, 0)])
        jet = jet_matrix(config.n, config.lifts, 1)
        assert (jet.matrix.rows, jet.matrix.cols) == (4, 35)
        assert naive_rank(jet.matrix) == 4
        assert h0_blowup(config, 1) == 31

    def test_two_points_in_three_space(self):
        config = PointConfiguration.from_coordinates([(1, 2, 3), (4, 5, 6)])
        assert h0_blowup(config, 1) == 27
        assert h0_blowup(config, 1) == 35 - naive_rank(jet_matrix(config.n, config.lifts, 1).matrix)


def _full_matrix_h0(config: PointConfiguration, k: int) -> int:
    """h0 from the rank of the matrix on all monomials, with no point moved."""
    return monomial_count(config.n, k) - rank(jet_matrix(config.n, config.lifts, k).matrix)


@st.composite
def drawn_configurations(draw):
    """(config, k): generic, collinear, curve or small-grid points of P^2 or P^3, integer or rational.

    The curve is (t, t^2, ..., t^n), a conic in the plane.  P^3 stops at
    k = 2, where its full matrix still ranks in milliseconds.
    """
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 3 if n == 2 else 2))
    v = draw(st.integers(1, n + 3))
    kind = draw(st.sampled_from(["generic", "collinear", "curve", "grid"]))
    scalar = coords if draw(st.booleans()) else st.integers(-20, 20).map(Fraction)
    if kind == "generic":
        points = draw(st.lists(st.tuples(*[scalar] * n), unique=True, min_size=v, max_size=v))
    elif kind == "grid":
        q = draw(st.sampled_from([1, 2, 3]))
        cells = st.tuples(*[st.integers(0, 2).map(lambda x: Fraction(x, q))] * n)
        points = draw(st.lists(cells, unique=True, min_size=v, max_size=v))
    else:
        ts = draw(st.lists(scalar, unique=True, min_size=v, max_size=v))
        if kind == "curve":
            points = [tuple(t**e for e in range(1, n + 1)) for t in ts]
        else:
            base = draw(st.tuples(*[scalar] * n))
            direction = draw(st.tuples(*[scalar] * n).filter(any))
            points = [tuple(b + t * d for b, d in zip(base, direction)) for t in ts]
    return PointConfiguration(n=n, points=tuple(points)), k


# The first triple's sides each hold one of the last three points.
HALF_GRID = [(0, 0), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1)]
# Three points on each of two skew lines of P^3, as in tests/data/skew_lines.txt.
SKEW_LINES = [(t, 0, 0) for t in (1, 2, 3)] + [(0, 1, t) for t in (1, 2, 3)]


@st.composite
def subspace_configurations(draw):
    """(config, k): points on a random line or plane of P^3, or a hyperplane of P^4, within the cell cap."""
    n, dim = draw(st.sampled_from([(3, 1), (3, 2), (4, 3)]))
    k = draw(st.integers(1, 2))
    v = draw(st.integers(dim + 2, dim + 4))
    rows, cols = jet_shape(n, v, k)
    assume(rows * cols <= JET_MAX_CELLS)
    small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    base = draw(st.tuples(*[small] * n))
    directions = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=dim, max_size=dim))
    assume(rank(RatMatrix.from_rows(directions)) == dim)
    steps = draw(st.lists(st.tuples(*[small] * dim), unique=True, min_size=v, max_size=v))
    points = [tuple(b + sum(t * d[i] for t, d in zip(step, directions)) for i, b in enumerate(base)) for step in steps]
    return PointConfiguration(n=n, points=tuple(points)), k


class TestNormalizedH0:
    """Chosen points sent to coordinate points, the rest ranked on the polytope's columns."""

    @given(drawn_configurations())
    # (2, -1) lies on the line through (1, 0) and (0, 1), so its image has x_0 = 0
    # and is ranked in the chart of x_1.
    @example((PointConfiguration.from_coordinates([(0, 0), (1, 0), (0, 1), (2, -1)]), 3))
    @example((PointConfiguration.from_coordinates([(0, 0), (1, 0), (0, 1), (2, -1), (5, 7)]), 3))
    # Three independent points: the count path, no matrix.
    @example((PointConfiguration.from_coordinates([(1, 1, 1), (2, 4, 8), (3, 9, 27)]), 2))
    # Each side of the first triangle holds a grid point; the image of (1, 1) has x_0 = 0.
    @example((PointConfiguration.from_coordinates(HALF_GRID), 3))
    # Three points on each of two skew lines: the image of the last has x_0 = x_1 = 0 and is
    # ranked in the chart of x_2.
    @example((PointConfiguration.from_coordinates(SKEW_LINES), 1))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_full_matrix_rank(self, case):
        config, k = case
        assert h0_blowup(config, k) == _full_matrix_h0(config, k)

    @pytest.mark.parametrize(
        "coordinates, k, h0",
        [
            ([(0, 0), (1, 0), (0, 1), (2, -1)], 3, 31),
            ([(0, 0), (1, 0), (0, 1), (2, -1), (5, 7)], 3, 25),
            ([(1, 1, 1), (2, 4, 8), (3, 9, 27)], 2, 105),
        ],
    )
    def test_pinned_values(self, coordinates, k, h0):
        config = PointConfiguration.from_coordinates(coordinates)
        assert h0_blowup(config, k) == _full_matrix_h0(config, k) == h0

    @given(drawn_configurations())
    @example((PointConfiguration.from_coordinates([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]), 2))
    @settings(max_examples=60)
    def test_independent_lifts_are_the_first_independent_tuple(self, case):
        # Greedy selection over the lifts' matroid is its lexicographically
        # first basis, the tuple a search over combinations would find first.
        config, _ = case
        lifts = config.lifts
        size = min(config.v, config.n + 1)
        first = next(
            (
                list(chosen)
                for chosen in itertools.combinations(range(config.v), size)
                if rank(RatMatrix.from_rows([lifts[c] for c in chosen])) == size
            ),
            None,
        )
        chosen = _independent_lifts(lifts, config.n + 1)
        assert chosen == first if first is not None else len(chosen) < size

    def test_count_path_builds_no_matrix(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("built a jet matrix for independent points")

        monkeypatch.setattr(pluricoh.blowup, "jet_matrix", forbidden)
        config = PointConfiguration.from_coordinates([(1, 1, 1), (2, 4, 8), (3, 9, 27)])
        assert h0_blowup(config, 2) == 105
        assert h0_blowup(PointConfiguration(n=2, points=()), 2) == monomial_count(2, 2)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_polytope_is_the_hexagon_in_graded_order(self, k):
        columns = _polytope(2, k)
        assert len(columns) == math.comb(3 * k + 2, 2) - 3 * math.comb(k + 1, 2) == _capped_count(2, k, 3)
        kept = set(columns)
        assert columns == [beta for beta in _graded_exponents(2, 3 * k) if beta in kept]
        assert jet_shape(2, 4, k, columns) == (4 * math.comb(k + 1, 2), len(columns))

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_space_polytope_is_the_capped_count(self, n, k):
        assert _polytope(n, k) == _polytope(n, k, n + 1)
        for capped in range(1, n + 2):
            assert len(_polytope(n, k, capped)) == _capped_count(n, k, capped)

    @pytest.mark.parametrize(
        "coordinates, k, capped, h0",
        [(SKEW_LINES, 1, 4, 13), (SKEW_LINES, 2, 4, 55), ([(x, y, 0) for x, y in HALF_GRID], 2, 3, 63)],
    )
    def test_images_off_the_first_chart_are_ranked_on_the_polytope(self, monkeypatch, coordinates, k, capped, h0):
        # Whichever chosen point went to e_0, some image here would lie on x_0 = 0.
        builds = []
        original = pluricoh.blowup.jet_matrix

        def recording(*args):
            builds.append(args)
            return original(*args)

        monkeypatch.setattr(pluricoh.blowup, "jet_matrix", recording)
        config = PointConfiguration.from_coordinates(coordinates)
        assert h0_blowup(config, k) == h0
        ((n, images, built_k, columns),) = builds
        assert (n, len(images), built_k, columns) == (3, config.v - capped, k, _polytope(3, k, capped))
        assert any(image[0] == 0 for image in images)
        assert monomial_count(3, k) - naive_rank(original(n, config.lifts, k).matrix) == h0

    @given(subspace_configurations())
    # Every side of the first triangle holds a point of this planar half grid, so one image has x_0 = 0.
    @example((PointConfiguration.from_coordinates([(x, y, 0) for x, y in HALF_GRID]), 2))
    @settings(max_examples=25, deadline=None)
    def test_subspace_equals_naive_elimination_on_all_monomials(self, case):
        config, k = case
        jet = jet_matrix(config.n, config.lifts, k).matrix
        assert h0_blowup(config, k) == monomial_count(config.n, k) - naive_rank(jet)

class TestGenerateConfiguration:
    def test_collinear_coordinates(self):
        config, row = generate_configuration("collinear", 5)
        assert config.points == tuple((Fraction(i), Fraction(0)) for i in range(1, 6))
        assert h0_blowup(config, 1) == row.h0_minus_kK == 6

    def test_conic_coordinates_span_seven_conditions(self):
        config, row = generate_configuration("on_conic", 8)
        assert config.points[3] == (Fraction(4), Fraction(16))
        jet = jet_matrix(config.n, config.lifts, 1).matrix
        assert naive_rank(jet) == 7
        assert h0_blowup(config, 1) == row.h0_minus_kK == 3

    def test_returns_the_row_at_the_power_asked(self):
        config, row = generate_configuration("on_conic", 6, k=2)
        assert row == blowup_row(config, 2)

    def test_generic_ten_points_kill_all_sections(self):
        config, row = generate_configuration("generic", 10, seed=7)
        assert h0_blowup(config, 1) == row.h0_minus_kK == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("v, seed", [(3, 0), (5, 1), (9, 3), (11, 2)])
    def test_generic_rank_certificate(self, v, seed, k):
        config, row = generate_configuration("generic", v, seed=seed, k=k)
        monomials, conditions = monomial_count(2, k), v * k * (k + 1) // 2
        assert row.k == k
        assert row.h0_minus_kK == monomials - min(monomials, conditions)
        if v <= 8:
            expected = 1 + k * (k + 1) * (9 - v) // 2
        else:
            expected = 1 if v == 9 else 0
        assert row.h0_minus_kK == expected

    def test_sampler_skips_repeated_draws_in_first_seen_order(self):
        class ScriptedDraws:
            def __init__(self, values):
                self.values = iter(values)

            def randint(self, low, high):
                return next(self.values)

        # Coordinate pairs (1, 2), (1, 2), (3, 4), (1, 2), (5, 6): two repeats.
        rng = ScriptedDraws([1, 2, 1, 2, 3, 4, 1, 2, 5, 6])
        config = pluricoh.blowup._sample_configuration(rng, 3)
        assert config.points == tuple((Fraction(x), Fraction(y)) for x, y in [(1, 2), (3, 4), (5, 6)])

    def test_generic_is_deterministic_in_seed(self):
        a = generate_configuration("generic", 6, seed=42)
        b = generate_configuration("generic", 6, seed=42)
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate_configuration("circular", 5)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            generate_configuration("collinear", 0)

    def test_defective_sampler_exhausts_its_budget(self, monkeypatch):
        # With rank pinned to 0 no sample can ever certify as generic, so
        # the bounded retry loop must give up loudly.
        monkeypatch.setattr(pluricoh.blowup, "rank", lambda matrix: 0)
        with pytest.raises(SamplingBudgetError):
            generate_configuration("generic", 3)

    def test_generic_is_certified_at_the_power_used(self, monkeypatch):
        # Rank 0 on every matrix wider than the k = 1 one: a sampler that
        # certifies at k = 1 only would accept these points for k = 2.
        monkeypatch.setattr(
            pluricoh.blowup, "rank", lambda matrix: 0 if matrix.cols > 10 else rank(matrix)
        )
        generate_configuration("generic", 5, k=1)
        with pytest.raises(SamplingBudgetError):
            generate_configuration("generic", 5, k=2)


def _peeled_h0(v: int, k: int) -> int:
    """h0(-kK) of v stock points on a conic, by Bezout peeling.

    Sections are plane curves of degree d = 3k with multiplicity m = k at
    each point.  While v * m exceeds 2d, the conic through the points meets
    the section too often and is a fixed component: strip it, lowering d by
    2 and m by 1.  The remaining conditions are then taken as independent,
    which this form checks against the rank rather than proves.
    """
    d, m = 3 * k, k
    while v * m > 2 * d:
        d, m = d - 2, m - 1
    return math.comb(d + 2, 2) - v * math.comb(m + 1, 2)


def _line_h0(v: int, k: int) -> int:
    """h0(-kK) of v points on a line, from the Hilbert-Burch resolution of their fat-point ideal.

    With L the line and F a form of degree v vanishing at the points, the
    ideal of forms of multiplicity k at each of them is (L, F)^k, a power
    of a complete intersection, hence saturated, with the resolution
    0 -> sum_{j<k} S(-(j+1) - v(k-j)) -> sum_{j<=k} S(-j - v(k-j)) -> I -> 0.
    Its part of degree 3k is the sections, so this is a proof, not a check.
    """

    def h(e: int) -> int:
        return math.comb(e + 2, 2) if e >= 0 else 0

    return sum(h(3 * k - j - v * (k - j)) for j in range(k + 1)) - sum(
        h(3 * k - j - 1 - v * (k - j)) for j in range(k)
    )


class TestClosedFormsAtHigherPowers:
    """Closed-form and invariance oracles for the special configurations at k > 1."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("v", range(1, 13))
    def test_conic_peeling_form(self, v, k):
        _, row = generate_configuration("on_conic", v, k=k)
        assert row.h0_minus_kK == _peeled_h0(v, k)

    @pytest.mark.parametrize("k", range(1, 8))
    @pytest.mark.parametrize("v", range(1, 16))
    def test_line_resolution_form(self, v, k):
        _, row = generate_configuration("collinear", v, k=k)
        assert row.h0_minus_kK == _line_h0(v, k)

    @given(
        st.integers(-(10**400), 10**400),
        st.integers(-(10**400), 10**400),
        st.lists(st.integers(-(10**400), 10**400), unique=True, min_size=1, max_size=7),
        st.integers(1, 3),
    )
    @example(3, 7, [i * 10**399 + i for i in range(1, 6)], 3)
    @settings(max_examples=30, deadline=None)
    def test_line_resolution_form_with_huge_coordinates(self, a, b, xs, k):
        config = PointConfiguration.from_coordinates([(x, a * x + b) for x in xs])
        assert h0_blowup(config, k) == _line_h0(len(xs), k)

    @given(
        st.sampled_from(["collinear", "on_conic"]),
        st.integers(5, 9),
        st.lists(st.integers(-3, 3), min_size=9, max_size=9),
    )
    @settings(max_examples=9, deadline=None)
    def test_invariant_under_projective_maps(self, kind, v, entries):
        config, _ = generate_configuration(kind, v)
        a = [entries[0:3], entries[3:6], entries[6:9]]
        assume(rank(RatMatrix.from_rows(a)) == 3)
        images = [[r[0] * x + r[1] * y + r[2] for r in a] for x, y in config.points]
        # No point may go to infinity, and some image must be fractional so
        # the jet build homogenizes by a denominator.
        assume(all(z != 0 for _, _, z in images))
        moved = [(x / z, y / z) for x, y, z in images]
        assume(any(c.denominator > 1 for point in moved for c in point))
        moved_config = PointConfiguration(n=2, points=tuple(moved))
        for k in (1, 2, 3):
            assert h0_blowup(moved_config, k) == h0_blowup(config, k)


class TestAchievableDims:
    def test_forced_regime_rejected(self):
        with pytest.raises(ValueError):
            achievable_dims(4)

    def test_five_points(self):
        witnesses = achievable_dims(5)
        assert [dim for dim, _ in witnesses] == [5, 6]
        for dim, config in witnesses:
            assert 10 - naive_rank(jet_matrix(config.n, config.lifts, 1).matrix) == dim

    def test_ten_points_realize_everything(self):
        witnesses = achievable_dims(10)
        assert [dim for dim, _ in witnesses] == [0, 1, 2, 3, 4, 5, 6]
        for dim, config in witnesses:
            assert config.v == 10
            assert h0_blowup(config, 1) == dim

    def test_unreachable_rank_exhausts_search_budget(self, monkeypatch):
        monkeypatch.setattr(pluricoh.blowup, "rank", lambda matrix: 4)
        with pytest.raises(SamplingBudgetError, match=f"within {SWEEP_STEP_ATTEMPTS} attempts"):
            achievable_dims(5)


class TestH12K:
    def test_three_points_vanish(self):
        config = PointConfiguration.from_coordinates([(0, 0), (3, 1), (2, 2)])
        assert blowup_row(config, 1).h1_kp1K == 0

    def test_five_collinear(self):
        assert blowup_row(generate_configuration("collinear", 5)[0], 1).h1_kp1K == 1

    def test_six_points_both_ends(self):
        assert blowup_row(generate_configuration("generic", 6, seed=3)[0], 1).h1_kp1K == 0
        assert blowup_row(generate_configuration("collinear", 6)[0], 1).h1_kp1K == 2

    def test_plane_only(self):
        config = PointConfiguration.from_coordinates([(1, 2, 3)])
        with pytest.raises(ValueError):
            blowup_row(config, 1)

    @given(configs(5, 9))
    @settings(max_examples=40)
    def test_within_admissible_range(self, config):
        v = config.v
        assert max(0, v - 10) <= blowup_row(config, 1).h1_kp1K <= v - 4


class TestPointFile:
    def test_parses_integers_comments_and_rationals(self):
        text = "# comment line\n1 0\n\n2/3 -5/7\n  4   +9  \n"
        config = parse_point_file(text)
        assert config.n == 2
        assert config.points == (
            (Fraction(1), Fraction(0)),
            (Fraction(2, 3), Fraction(-5, 7)),
            (Fraction(4), Fraction(9)),
        )

    def test_zero_denominator_rejected(self):
        with pytest.raises(PointFileError, match="line 1"):
            parse_point_file("1/0 2\n")

    # Fraction() takes all but "x" of these (the last is a fullwidth "12"); the
    # documented syntax is [+-]digits[/digits] in ASCII.
    @pytest.mark.parametrize("token", ["x", "1e200000", "1.5", "1_000", "\uff11\uff12"])
    def test_garbage_token_rejected(self, token):
        with pytest.raises(PointFileError, match="^line 2: invalid coordinate"):
            parse_point_file(f"1 2\n{token} 0\n")

    def test_duplicate_points_rejected(self):
        with pytest.raises(PointFileError):
            parse_point_file("1 2\n1 2\n")

    def test_inconsistent_arity_rejected(self):
        with pytest.raises(PointFileError):
            parse_point_file("1 2\n1 2 3\n")

    def test_inconsistent_arity_names_its_source_line(self):
        # Comment and blank lines still count toward the reported line number.
        with pytest.raises(PointFileError, match="^line 4: .*expected 2, got 3"):
            parse_point_file("# header\n1 2\n\n1 2 3\n")

    def test_empty_file_rejected(self):
        with pytest.raises(PointFileError):
            parse_point_file("# nothing here\n")
