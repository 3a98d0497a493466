"""Tests for blow-up section counts, configuration generators and file parsing.

Rank-based expectations below were first computed with the independent
naive-elimination oracle `naive_rank` (plain integer row elimination with
gcd reduction) and are asserted against both routes where it matters.
"""

import inspect
import itertools
import math
import operator
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pluricoh.blowup
import pluricoh.exact_linalg
from pluricoh.blowup import (
    PointConfiguration,
    SWEEP_STEP_ATTEMPTS,
    PointFileError,
    SamplingBudgetError,
    _capped_count,
    _graded_exponents,
    _move,
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
from pluricoh.exact_linalg import MODULAR_PRIME, RatMatrix, rank, rank_from_residues
from pluricoh.selfcheck import naive_rank

DATA = Path(__file__).resolve().parent / "data"

coords = st.fractions(min_value=-20, max_value=20, max_denominator=8)
points_2d = st.tuples(coords, coords)


def _jet(config: PointConfiguration, k: int):
    """The jet matrix of power k on all monomials: degree (n+1)k, order (n-1)k at every point."""
    n = config.n
    return jet_matrix(n, config.lifts, (n + 1) * k, [(n - 1) * k] * config.v)


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


def _zero_ranks(monkeypatch, where=lambda matrix: True) -> list[str]:
    """Make h0_blowup see rank 0 for every matrix `where` holds for, on the integer route and the residue route.

    Returns the routes taken, "integer" or "residues", one per rank.  On
    the residue route `where` sees the residues handed over, which have
    the integer matrix's shape, or on a tall block its leading images'
    residues.
    """
    routes = []

    def integer(matrix):
        routes.append("integer")
        return 0 if where(matrix) else rank(matrix)

    def residues(matrix, rest, build):
        routes.append("residues")
        return 0 if where(matrix) else rank_from_residues(matrix, rest, build)

    monkeypatch.setattr(pluricoh.blowup, "rank", integer)
    monkeypatch.setattr(pluricoh.blowup, "rank_from_residues", residues)
    return routes


def _record_builds(monkeypatch) -> list[tuple]:
    """Record the arguments of every jet_matrix call that h0_blowup makes, in order."""
    builds = []
    original = pluricoh.blowup.jet_matrix

    def recording(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(pluricoh.blowup, "jet_matrix", recording)
    return builds


@st.composite
def residue_lifts(draw):
    """(n, lifts, k): nonzero lifts of P^2 or P^3 with leading zeros, multiples of p and long coordinates.

    A first nonzero coordinate that is a multiple of p moves the chart of
    the residue build, and a lift scaled by p or p^2 has no unit coordinate.
    """
    n, k = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]))
    small = st.integers(-9, 9)
    entry = st.one_of(small, small.map(MODULAR_PRIME.__mul__), st.integers(-(2**80), 2**80))
    lift = st.integers(0, n).flatmap(lambda j: st.tuples(*[st.just(0)] * j, entry.filter(bool), *[entry] * (n - j)))
    scaled = st.tuples(lift, st.sampled_from([1, 1, MODULAR_PRIME, -(MODULAR_PRIME**2)])).map(
        lambda pair: tuple(x * pair[1] for x in pair[0])
    )
    return n, draw(st.lists(scaled, min_size=1, max_size=3 if k < 3 else 2)), k


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
        jet = _jet(config, 1)
        assert jet.matrix.row(0) == tuple(2**i * 3**j for i, j in VERONESE_ORDER)

    def test_single_point_evaluation_row(self):
        config = PointConfiguration.from_coordinates([(0, 0)])
        jet = _jet(config, 1)
        assert (jet.matrix.rows, jet.matrix.cols) == (1, 10)
        assert jet.matrix.row(0) == (Fraction(1),) + (Fraction(0),) * 9

    def test_evaluation_rows_are_monomial_vectors(self):
        config = PointConfiguration.from_coordinates([(2, 3)])
        jet = _jet(config, 1)
        x, y = Fraction(2), Fraction(3)
        assert jet.matrix.row(0) == (1, x, y, x**2, x * y, y**2, x**3, x**2 * y, x * y**2, y**3)

    def test_power_two_at_origin_selects_low_coefficients(self):
        # Rows: the derivatives alpha = (0, 0), (1, 0), (0, 1), the first three monomials.
        config = PointConfiguration.from_coordinates([(0, 0)])
        jet = _jet(config, 2)
        assert (jet.matrix.rows, jet.matrix.cols) == (3, 28)
        assert _graded_exponents(2, 6)[:3] == [(0, 0), (1, 0), (0, 1)]
        for row_index in range(3):
            row = jet.matrix.row(row_index)
            assert row[row_index] == 1
            assert all(x == 0 for i, x in enumerate(row) if i != row_index)

    def test_collinear_rows(self):
        config, _ = generate_configuration("collinear", 5)
        jet = _jet(config, 1)
        assert (jet.matrix.rows, jet.matrix.cols) == (5, 10)
        for i, x in enumerate(range(1, 6)):
            assert jet.matrix.row(i) == (1, x, 0, x**2, 0, 0, x**3, 0, 0, 0)

    def test_row_count_formula(self):
        config = PointConfiguration.from_coordinates([(0, 0), (1, 1), (2, 5)])
        assert _jet(config, 2).matrix.rows == 3 * 3
        assert _jet(config, 3).matrix.rows == 3 * 6

    @pytest.mark.parametrize(
        "n, v, k, shape",
        [(2, 1, 1, (1, 10)), (2, 3, 2, (9, 28)), (2, 5, 4, (50, 91)), (3, 1, 1, (4, 35)), (3, 5, 3, (280, 455))],
    )
    def test_jet_shape(self, n, v, k, shape):
        assert jet_shape(n, v, k) == shape

    def test_line_ambient_rejected(self):
        config = PointConfiguration(n=1, points=((Fraction(1),),))
        with pytest.raises(ValueError):
            _jet(config, 1)

    @pytest.mark.parametrize("lift", [(1, 2), (1, 2, 3, 4), (0, 0, 0)])
    def test_malformed_lift_rejected(self, lift):
        with pytest.raises(ValueError, match=r"nonzero vector of n \+ 1 = 3 integers"):
            jet_matrix(2, [(1, 0, 0), lift], 3, [1, 1])

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            jet_shape(2, 1, 0)

    @pytest.mark.parametrize("orders", [[-1], [1, 1], []])
    def test_one_nonnegative_order_per_lift(self, orders):
        with pytest.raises(ValueError, match="one nonnegative vanishing order"):
            jet_matrix(2, [(1, 0, 0)], 3, orders)

    @given(configs(1, 4), st.integers(1, 3))
    @settings(max_examples=50)
    def test_rows_are_scaled_true_derivatives(self, config, k):
        _assert_scaled_true_derivatives(config.n, config.lifts, k)

    def test_space_point_file_rows_are_scaled_true_derivatives(self):
        config = parse_point_file((DATA / "space_points.txt").read_text())
        _assert_scaled_true_derivatives(config.n, config.lifts, 1)

    # Each other coordinate is one factor of C_alpha and of the monomial row, so
    # P^3 and P^4 take three and four; k = 2 in P^3 reaches derivative order 3.
    @given(
        st.sampled_from([(3, 1), (3, 2), (4, 1)]).flatmap(
            lambda nk: st.tuples(space_configs(nk[0]), st.just(nk[1]))
        )
    )
    # Integer points: x_0 = 1, whose powers are all ones and are skipped.
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

    @given(residue_lifts())
    # The first nonzero coordinate is p, so the chart moves to x_2; and to x_1 of (0, 3p, 5, 1).
    @example((2, [(MODULAR_PRIME, 0, 7), (2, 3, -5)], 3))
    @example((3, [(0, 3 * MODULAR_PRIME, 5, 1), (4, 1, 0, 2)], 2))
    # Every coordinate divisible by p: the lift is divided by its gcd, p^2, first.
    @example((2, [(MODULAR_PRIME**2, 2 * MODULAR_PRIME**2, 0)], 2))
    # A coordinate that is 0, or 0 mod p, puts [e_i = alpha_i] perm(e_i, alpha_i) into the
    # constants and nothing into the monomial row.
    @example((2, [(1, 0, 5)], 3))
    @example((2, [(1, MODULAR_PRIME, 3)], 3))
    # The coordinate point: every other coordinate is 0, so the monomial row is all ones.
    @example((2, [(0, 0, 1)], 3))
    # Two zero coordinates in P^3.
    @example((3, [(2, 0, 0, 7)], 2))
    @settings(max_examples=30, deadline=None)
    def test_residue_rows_are_unit_multiples_of_true_derivatives(self, case):
        _assert_scaled_true_derivatives(*case, MODULAR_PRIME)

    def test_residue_rows_of_mixed_orders_are_unit_multiples_of_true_derivatives(self):
        # Peeled classes give each point its own order, and the constants are kept per
        # order: three lifts with one chart and no zero coordinate, of orders 1, 3 and 5.
        lifts = [(3, -5, 11), (2**40 + 1, 7, -(2**50)), (5, 9, 2)]
        _assert_scaled_true_derivatives(2, lifts, 3, MODULAR_PRIME, orders=[1, 3, 5])

    def test_residue_rows_of_a_unit_chart_are_the_integer_rows_times_units(self):
        # Lifts whose first nonzero coordinate is a unit mod p, with 40- to 80-bit
        # coordinates: each residue row is its integer row times a unit, so the
        # two have one elimination mod p.  With no zero coordinate the unit is
        # x_j^(-degree) for every row of the lift; the zero coordinate of
        # (0, 3, ...) gives each row its own power of x_j.
        p = MODULAR_PRIME
        rng = random.Random("residue-rows")
        lifts = [(rng.getrandbits(40) | 1, -rng.getrandbits(60), rng.getrandbits(80)) for _ in range(4)]
        lifts.append((0, 3, rng.getrandbits(70)))
        integer = jet_matrix(2, lifts, 9, [3] * len(lifts)).matrix
        residues = jet_matrix(2, lifts, 9, [3] * len(lifts), None, p).matrix
        assert (residues.rows, residues.cols) == (integer.rows, integer.cols)
        rows = iter(range(integer.rows))
        for lift in lifts:
            for i in itertools.islice(rows, 6):
                if all(lift):
                    unit = pow(lift[0], -9, p)
                    assert [x % p for x in residues.row(i)] == [unit * x % p for x in integer.row(i)]
                else:
                    _assert_unit_multiple(residues.row(i), integer.row(i))

    @pytest.mark.parametrize("k, rank_, shape", [(2, 27, (30, 28)), (3, 54, (60, 55))])
    def test_residues_of_a_coordinate_divisible_by_p_rank_as_the_integer_matrix(self, k, rank_, shape):
        # (1, p, p^3) has nonzero coordinates divisible by p: its residue rows
        # are those of the point (1, 0, 0), not its integer rows times units,
        # but they span the same rational row space.  The nine other points lie
        # on the cubic y = x^3, so neither matrix has full rank.
        p = MODULAR_PRIME
        lifts = [(1, t, t**3) for t in range(1, 10)] + [(1, p, p**3)]
        integer = jet_matrix(2, lifts, 3 * k, [k] * len(lifts)).matrix
        residues = jet_matrix(2, lifts, 3 * k, [k] * len(lifts), None, p).matrix
        assert (integer.rows, integer.cols) == shape
        builds = []

        def build():
            builds.append(integer)
            return integer

        assert rank_from_residues(residues, None, build) == naive_rank(integer) == rank_
        assert len(builds) == 1


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


def _assert_unit_multiple(row, reference) -> None:
    """row = u * reference mod MODULAR_PRIME for a unit u, each entry of row a product of two residues."""
    p = MODULAR_PRIME
    assert all(type(x) is int and 0 <= x < p * p for x in row)
    row, reference = [x % p for x in row], [x % p for x in reference]
    pivot = next((i for i, x in enumerate(reference) if x), None)
    if pivot is None:
        assert not any(row)
        return
    unit = row[pivot] * pow(reference[pivot], -1, p) % p
    assert unit and row == [unit * x % p for x in reference]


def _assert_scaled_true_derivatives(n: int, lifts, k: int, modulus: int | None = None, orders=None) -> None:
    # Each row of a lift P whose first nonzero coordinate is x_j holds the true
    # derivatives, in the chart x_j = 1, of the dehomogenized monomials at
    # P / P_j, times P_j^((n+1)k - |alpha|) and times x^alpha over P's other
    # nonzero coordinates.  For a point's lift (d, d*x), j = 0: the true
    # derivatives at x times d^((n+1)k - |alpha|) (d*x)^alpha.  Built mod
    # p = `modulus`, each row is instead a unit times those derivatives mod p,
    # and x_j is the first coordinate that is a unit mod p, of P divided by the
    # gcd of its coordinates when all of them are divisible by p.  Each lift
    # has order (n-1)k unless `orders` gives one per lift.
    top = (n + 1) * k
    orders = [(n - 1) * k] * len(lifts) if orders is None else orders
    jet = jet_matrix(n, lifts, top, orders, None, modulus)
    monomials = _graded_exponents(n, top)
    # The documented row order: lifts in the order given, then the
    # multi-indices of order below the lift's in the graded order of the columns.
    by_order = {m: [alpha for alpha in monomials if sum(alpha) < m] for m in orders}
    assert jet.matrix.rows == sum(len(by_order[m]) for m in orders)
    rows = iter(range(jet.matrix.rows))
    homogenized = [(top - sum(beta), *beta) for beta in monomials]
    for lift, m in zip(lifts, orders):
        if modulus is None:
            j = next(c for c, x in enumerate(lift) if x)
        else:
            if all(x % modulus == 0 for x in lift):
                lift = [x // math.gcd(*lift) for x in lift]
            j = next(c for c, x in enumerate(lift) if x % modulus)
        others = [x for c, x in enumerate(lift) if c != j]
        point = [Fraction(x, lift[j]) for x in others]
        # Each column's form of degree top, with x_j's exponent dropped.
        charted = [beta[:j] + beta[j + 1 :] for beta in homogenized]
        for alpha in by_order[m]:
            row = jet.matrix.row(next(rows))
            derivatives = [_true_derivative(b, alpha, point) for b in charted]
            if modulus is None:
                assert all(type(x) is int for x in row)
                scale = lift[j] ** (top - sum(alpha)) * math.prod(x**a for x, a in zip(others, alpha) if x)
                assert row == tuple(scale * d for d in derivatives)
            else:
                _assert_unit_multiple(row, [d.numerator * pow(d.denominator, -1, modulus) for d in derivatives])


class TestH0Blowup:
    def test_three_points(self):
        config = PointConfiguration.from_coordinates([(0, 0), (1, 0), (0, 1)])
        assert h0_blowup(config, 1) == 7

    def test_five_collinear_points(self):
        config, _ = generate_configuration("collinear", 5)
        jet = _jet(config, 1).matrix
        assert naive_rank(jet) == 4
        assert h0_blowup(config, 1) == 6

    def test_no_points_no_conditions(self):
        assert h0_blowup(PointConfiguration(n=2, points=()), 1) == 10

    def test_power_two_at_origin(self):
        config = PointConfiguration.from_coordinates([(0, 0)])
        assert h0_blowup(config, 2) == 28 - 3 == 25

    @given(configs(1, 4))
    def test_few_points_impose_independent_conditions(self, config):
        jet = _jet(config, 1).matrix
        assert rank(jet) == config.v
        assert h0_blowup(config, 1) == 10 - config.v

    @given(configs(1, 3))
    def test_matches_naive_nullspace_dimension(self, config):
        jet = _jet(config, 1).matrix
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
        r = rank(_jet(config, 1).matrix)
        xs = [p[0] for p in config.points]
        if len(set(xs)) < config.v:
            shear = _separating_shear(config)
            sheared = PointConfiguration(
                n=2, points=tuple((x + shear * y, y) for x, y in config.points)
            )
            assert len({p[0] for p in sheared.points}) == config.v
            assert rank(_jet(sheared, 1).matrix) == r
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
        jet = _jet(config, 1)
        assert (jet.matrix.rows, jet.matrix.cols) == (4, 35)
        assert naive_rank(jet.matrix) == 4
        assert h0_blowup(config, 1) == 31

    def test_two_points_in_three_space(self):
        config = PointConfiguration.from_coordinates([(1, 2, 3), (4, 5, 6)])
        assert h0_blowup(config, 1) == 27
        assert h0_blowup(config, 1) == 35 - naive_rank(_jet(config, 1).matrix)


def _full_matrix_h0(config: PointConfiguration, k: int) -> int:
    """h0 from the rank of the matrix on all monomials, with no point moved."""
    return monomial_count(config.n, k) - rank(_jet(config, k).matrix)


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


def _leibniz(rows) -> int:
    """Determinant by the Leibniz formula: a sum over permutations, each signed by its inversions."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(rows[i][j] for i, j in enumerate(perm))
    return total


def _square(columns, rows):
    """The square matrix of these columns' entries at these rows, read as rows (its transpose)."""
    return [[column[r] for r in rows] for column in columns]


@st.composite
def spanned_lifts(draw):
    """(n, lifts): distinct nonzero integer lifts in P^2, P^3 or P^4 spanning a subspace of any dimension.

    The lifts are small integer combinations of s basis vectors, s <= n + 1, with
    entries in -2..2 (so many are zero), 40-digit, or 40-digit and zero.
    """
    n = draw(st.sampled_from([2, 3, 4]))
    s = draw(st.integers(1, n + 1))
    big = st.integers(-(10**40), 10**40)
    scalar = draw(st.sampled_from([st.integers(-2, 2), big, st.one_of(st.just(0), big)]))
    basis = draw(st.lists(st.tuples(*[scalar] * (n + 1)), min_size=s, max_size=s))
    factors = st.lists(st.tuples(*[st.integers(-2, 2)] * s), min_size=1, max_size=n + 5)
    lifts = [tuple(sum(a * b[i] for a, b in zip(f, basis)) for i in range(n + 1)) for f in draw(factors)]
    lifts = list(dict.fromkeys(lift for lift in lifts if any(lift)))
    assume(lifts)
    return n, lifts


class TestNormalizedH0:
    """Chosen points sent to coordinate points, the rest ranked on the polytope's columns."""

    @given(spanned_lifts())
    # Three points of P^2 on one line, the second a multiple of the first: s = 2.
    @example((2, [(1, 0, 0), (2, 0, 0), (0, 1, 1), (5, 3, 3)]))
    # One line of P^4 through 40-digit lifts with zero coordinates.
    @example((4, [(10**40, 0, 1, 0, 0), (0, 1, 0, 0, 10**39), (10**40, 1, 1, 0, 10**39)]))
    @settings(max_examples=150, deadline=None)
    def test_images_are_the_cramer_coefficients(self, case):
        # Each other lift Q, in the span of the chosen lifts L_i, is det(N) Q = sum_i
        # det(N_i) L_i on any rows where their square N has det(N) != 0, N_i being N with
        # column i replaced by Q's entries (Cramer's rule, by Leibniz determinants).  Its
        # image is (det(N_0), ..., det(N_(s-1)), 0, ...) up to content and sign.
        n, lifts = case
        chosen, images = _move(n + 1, lifts)
        basis = [lifts[c] for c in chosen]
        s = len(basis)
        rows = next(rows for rows in itertools.combinations(range(n + 1), s) if _leibniz(_square(basis, rows)))
        det = _leibniz(_square(basis, rows))
        others = [q for index, q in enumerate(lifts) if index not in chosen]
        assert len(images) == len(others)
        for q, image in zip(others, images):
            cramer = [_leibniz(_square([*basis[:i], q, *basis[i + 1 :]], rows)) for i in range(s)]
            assert [det * x for x in q] == [sum(map(operator.mul, cramer, coordinate)) for coordinate in zip(*basis)]
            content = math.gcd(*cramer) if next(filter(None, cramer)) > 0 else -math.gcd(*cramer)
            assert image == tuple([x // content for x in cramer] + [0] * (n + 1 - s))

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
        chosen, _ = _move(config.n + 1, lifts)
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
        columns = _polytope(2, 3 * k, [2 * k] * 3)
        hexagon = math.comb(3 * k + 2, 2) - 3 * math.comb(k + 1, 2)
        assert len(columns) == hexagon == _capped_count(2, 3 * k, [2 * k] * 3)
        kept = set(columns)
        assert columns == [beta for beta in _graded_exponents(2, 3 * k) if beta in kept]
        matrix = jet_matrix(2, [(1, 1, 2), (1, 2, 3), (1, 3, 5), (1, 5, 7)], 3 * k, [k] * 4, columns).matrix
        assert (matrix.rows, matrix.cols) == (4 * math.comb(k + 1, 2), len(columns))

    @pytest.mark.parametrize("n, k", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)])
    def test_space_polytope_is_the_capped_count(self, n, k):
        for capped in range(1, n + 2):
            caps = [2 * k] * capped
            assert len(_polytope(n, (n + 1) * k, caps)) == _capped_count(n, (n + 1) * k, caps)

    @given(st.integers(2, 3), st.integers(0, 9), st.lists(st.integers(-1, 10), min_size=1, max_size=4))
    @example(2, 6, [4, 0, 7])
    @settings(max_examples=80)
    def test_capped_count_is_the_polytope_size(self, n, degree, caps):
        # Inclusion-exclusion against enumeration, for per-coordinate caps
        # from below zero to above the degree, on 1 to n + 1 coordinates: h0_blowup
        # ranks a polytope only after choosing at least one point.
        caps = caps[: n + 1]
        columns = _polytope(n, degree, caps)
        assert len(columns) == _capped_count(n, degree, caps)
        enumerated = [
            beta
            for beta in _graded_exponents(n, degree)
            if all(e <= cap for e, cap in zip((degree - sum(beta), *beta), caps))
        ]
        assert columns == enumerated

    @pytest.mark.parametrize(
        "coordinates, k, capped, h0",
        [(SKEW_LINES, 1, 4, 13), (SKEW_LINES, 2, 4, 55), ([(x, y, 0) for x, y in HALF_GRID], 2, 3, 63)],
    )
    def test_images_off_the_first_chart_are_ranked_on_the_polytope(self, monkeypatch, coordinates, k, capped, h0):
        # Whichever chosen point went to e_0, some image here would lie on x_0 = 0.
        builds = _record_builds(monkeypatch)
        config = PointConfiguration.from_coordinates(coordinates)
        assert h0_blowup(config, k) == h0
        ((n, images, degree, orders, columns),) = builds
        moved = config.v - capped
        assert (n, len(images), degree, orders) == (3, moved, 4 * k, [2 * k] * moved)
        assert columns == _polytope(3, 4 * k, [2 * k] * capped)
        assert any(image[0] == 0 for image in images)
        assert monomial_count(3, k) - naive_rank(_jet(config, k).matrix) == h0

    def test_coplanar_points_rank_their_blocks(self, monkeypatch):
        # A CI pin: seven points (a, b, a + b) of P^3 with 30-digit a and b span a plane, so
        # their images are zero at x_3 and the jet matrix splits into blocks, ranked one by one.
        splits = []
        original = pluricoh.exact_linalg._blocks

        def recording(matrix):
            blocks = original(matrix)
            splits.append(blocks)
            return blocks

        monkeypatch.setattr(pluricoh.exact_linalg, "_blocks", recording)
        r = random.Random(3)
        pairs = [(r.randrange(10**29, 10**30), r.randrange(10**29, 10**30)) for _ in range(7)]
        config = PointConfiguration.from_coordinates([(a, b, a + b) for a, b in pairs])
        assert h0_blowup(config, 2) == 56
        assert len(splits) == 1 and splits[0] is not None and len(splits[0]) >= 2

    @given(subspace_configurations())
    # Every side of the first triangle holds a point of this planar half grid, so one image has x_0 = 0.
    @example((PointConfiguration.from_coordinates([(x, y, 0) for x, y in HALF_GRID]), 2))
    @settings(max_examples=25, deadline=None)
    def test_subspace_equals_naive_elimination_on_all_monomials(self, case):
        config, k = case
        jet = _jet(config, k).matrix
        assert h0_blowup(config, k) == monomial_count(config.n, k) - naive_rank(jet)

    def test_tall_block_builds_only_its_leading_images(self, monkeypatch):
        # A CI pin: generic v = 20 at k = 5 leaves 17 images of 15 rows each against the
        # polytope's 91 columns.  The fewest leading images whose rows reach 91 are seven,
        # 105 rows, and their full rank mod p settles h0 = 0: no other residue and no
        # integer matrix is built.
        builds = _record_builds(monkeypatch)
        _, row = generate_configuration("generic", 20, k=5)
        assert row.h0_minus_kK == 0
        ((_, images, degree, orders, columns, modulus),) = builds
        assert (len(images), degree, orders, len(columns), modulus) == (7, 15, [5] * 7, 91, MODULAR_PRIME)

    def test_deficient_leading_images_fall_back_to_the_whole_block(self, monkeypatch):
        # A CI pin: ten points (t^2 - 1, t(t^2 - 1)) of the nodal cubic y^2 = x^2 (x + 1), then
        # three points off it, at k = 1.  The first three go to the coordinate points, and the
        # first seven images lie on that cubic with them, so the leading 7 x 7 block is rank
        # deficient.  The whole 10 x 7 block is not: only the other three images' residues are
        # built next, and with the leading seven's they settle h0 = 0 with no integer matrix.
        config = _nodal_pin()
        builds = _record_builds(monkeypatch)
        assert h0_blowup(config, 1) == 0
        assert [(len(images), modulus) for _, images, *_, modulus in builds] == [(7, MODULAR_PRIME), (3, MODULAR_PRIME)]
        assert monomial_count(2, 1) - naive_rank(_jet(config, 1).matrix) == 0

    def test_deficient_leading_square_is_eliminated_once(self, monkeypatch):
        # The nodal pin's leading 7 x 7 square falls short, so its kernel span-tests the other
        # three images' rows, built once, and the whole 10 x 7 block is eliminated after it.
        # Neither the square's elimination nor any image's residue build runs twice.
        config = _nodal_pin()
        builds = _record_builds(monkeypatch)
        eliminations = []
        original = pluricoh.exact_linalg._eliminate_mod_p

        def eliminate(entries, cols, p):
            entries = list(entries)
            eliminations.append(entries)
            return original(entries, cols, p)

        monkeypatch.setattr(pluricoh.exact_linalg, "_eliminate_mod_p", eliminate)
        assert h0_blowup(config, 1) == 0
        _, images, degree, orders, columns, modulus = builds[0]
        square = list(jet_matrix(2, images, degree, orders, columns, modulus).matrix.entries)
        assert [len(images) for _, images, *_ in builds] == [7, 3]
        assert [len(entries) for entries in eliminations] == [7 * 7, 10 * 7]
        assert eliminations.count(square) == 1 and eliminations[1][: 7 * 7] == square


def _nodal_pin() -> PointConfiguration:
    """Ten points (t^2 - 1, t(t^2 - 1)) of the nodal cubic with 7-digit t, then three off it."""
    rng = random.Random(4)
    cubic = [(t * t - 1, t * (t * t - 1)) for t in (rng.randrange(10**6, 10**7) for _ in range(10))]
    off = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(3)]
    return PointConfiguration.from_coordinates(cubic + off)


class TestGenerateConfiguration:
    def test_collinear_coordinates(self):
        config, row = generate_configuration("collinear", 5)
        assert config.points == tuple((Fraction(i), Fraction(0)) for i in range(1, 6))
        assert h0_blowup(config, 1) == row.h0_minus_kK == 6

    def test_conic_coordinates_span_seven_conditions(self):
        config, row = generate_configuration("on_conic", 8)
        assert config.points[3] == (Fraction(4), Fraction(16))
        jet = _jet(config, 1).matrix
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
        # the bounded retry loop must give up loudly.  Four points, as three
        # independent ones are a lattice count that ranks nothing.
        _zero_ranks(monkeypatch)
        with pytest.raises(SamplingBudgetError):
            generate_configuration("generic", 4)

    def test_generic_is_certified_at_the_power_used(self, monkeypatch):
        # Rank 0 on every matrix wider than the k = 1 one: a sampler that
        # certifies at k = 1 only would accept these points for k = 2.  At
        # k = 2 the two moved points give a 6 x 19 block with predicted
        # entries of about 6 * 40 bits, ranked from its residues, so the
        # fault reaches that route too.
        routes = _zero_ranks(monkeypatch, lambda matrix: matrix.cols > 10)
        generate_configuration("generic", 5, k=1)
        with pytest.raises(SamplingBudgetError):
            generate_configuration("generic", 5, k=2)
        assert "residues" in routes


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


def _naive_h0(config: PointConfiguration, k: int) -> int:
    """h0 of a plane configuration from naive elimination of its matrix on all monomials, nothing moved or peeled."""
    return monomial_count(2, k) - naive_rank(_jet(config, k).matrix)


@st.composite
def planted_configurations(draw, powers=st.integers(2, 3)):
    """(config, k): points on up to two planted lines and a planted conic, and up to three others, shuffled.

    The conic is a parabola y = a x^2 + b x + c or a hyperbola x y = c; k is drawn from `powers`.
    """
    k = draw(powers)
    small = st.integers(-6, 6)
    points = set()
    for _ in range(draw(st.integers(0, 2))):
        (bx, by), (dx, dy) = draw(st.tuples(small, small)), draw(st.tuples(small, small).filter(any))
        ts = draw(st.lists(st.integers(-5, 5), unique=True, min_size=3, max_size=6))
        points.update((bx + t * dx, by + t * dy) for t in ts)
    if draw(st.booleans()):
        xs = draw(st.lists(st.integers(-6, 6).filter(bool), unique=True, min_size=4, max_size=8))
        if draw(st.booleans()):
            a, b, c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])), draw(small), draw(small)
            points.update((x, a * x * x + b * x + c) for x in xs)
        else:
            c = draw(small.filter(bool))
            points.update((x, Fraction(c, x)) for x in xs)
    points.update(draw(st.lists(st.tuples(small, small), max_size=3)))
    assume(points)
    return PointConfiguration.from_coordinates(draw(st.permutations(sorted(points)))), k


# The first two stop at equality: five collinear points at k = 2 peel once,
# to (5; 1^5), whose line holds 5 = 5, and six on a conic at k = 2 hold
# 6 * 2 = 2 * 6.  The third peels its line twice and its conic once, to
# (5; 1^5, 2^5), where the conic holds 10 = 2 * 5; the fourth peels a line
# and a conic three times each, down to no point.  The last is a CI pin: its
# line of four misses the first two points, so only the O(v^2) pass finds it,
# and (3; 1^6) peels to (2; 1, 1).
PLANTED = [
    ([(t, 2 * t - 1) for t in range(5)], 2),
    ([(t, t * t) for t in range(-2, 4)], 2),
    ([(1, 1), (2, 4), (3, 9), (-1, 1), (-2, 4)] + [(t, 0) for t in range(1, 6)], 3),
    ([(t, t * t) for t in range(-3, 5)] + [(t, 3 * t + 20) for t in range(10, 14)], 3),
    ([(0, 5), (7, -3), (1, 0), (2, 0), (3, 0), (4, 0)], 1),
]


def _peeling_matches_naive_elimination(blowup, config: PointConfiguration, k: int) -> bool:
    return blowup.h0_blowup(config, k) == _naive_h0(config, k)


class TestPeeling:
    """Bezout peeling of lines and conics against naive elimination on all monomials."""

    @given(planted_configurations())
    @settings(max_examples=60, deadline=None)
    def test_planted_lines_and_conics_equal_naive_elimination(self, case):
        assert _peeling_matches_naive_elimination(pluricoh.blowup, *case)

    @pytest.mark.parametrize("coordinates, k", PLANTED)
    def test_planted_cases_equal_naive_elimination(self, coordinates, k):
        config = PointConfiguration.from_coordinates(coordinates)
        assert _peeling_matches_naive_elimination(pluricoh.blowup, config, k)

    @given(planted_configurations(st.just(1)))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_plane_k1_equals_naive_elimination(self, case):
        # Plane k = 1 peels and moves its points like every other power, while the
        # oracle ranks plain evaluation on all ten cubics.  Seeded, so every run
        # sweeps the same 300 configurations.
        assert _peeling_matches_naive_elimination(pluricoh.blowup, *case)

    def test_quadratic_line_pass_runs_when_cheaper_than_the_rank(self, monkeypatch):
        # v^2 = 36 is below rows * cols * min(rows, cols) = 6 * 10 * 6 of (3; 1^6),
        # so the pass runs, and it finds the line of four that misses the first two points.
        calls = []
        original = pluricoh.blowup._maybe_collinear

        def recording(*args):
            calls.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(pluricoh.blowup, "_maybe_collinear", recording)
        config = PointConfiguration.from_coordinates(PLANTED[-1][0])
        assert h0_blowup(config, 1) == 4
        assert calls == [6]

    def test_quadratic_line_pass_is_skipped_above_the_rank_work(self, monkeypatch):
        # A CI pin: 5,000 generic points at k = 1, where v^2 = 25,000,000 exceeds
        # 5,000 * 10 * 10, Bareiss's multiply count on all monomials.
        def forbidden(*args):
            raise AssertionError("the O(v^2) line pass ran above the rank's work")

        monkeypatch.setattr(pluricoh.blowup, "_maybe_collinear", forbidden)
        config, row = generate_configuration("generic", 5000)
        assert row.h0_minus_kK == h0_blowup(config, 1) == 0

    def test_peeling_at_equality_fails_the_oracle(self, monkeypatch):
        # Fault injection: every Bezout comparison "> bound" becomes ">= bound", which divides
        # out a line or conic that need not be a fixed component.
        source = inspect.getsource(pluricoh.blowup)
        assert source.count("> bound") >= 3
        name = "pluricoh._blowup_peeling_at_equality"
        mutant = types.ModuleType(name)
        mutant.__package__ = "pluricoh"
        monkeypatch.setitem(sys.modules, name, mutant)
        exec(compile(source.replace("> bound", ">= bound"), name, "exec"), mutant.__dict__)
        for coordinates, k in PLANTED[:2]:
            config = PointConfiguration.from_coordinates(coordinates)
            assert not _peeling_matches_naive_elimination(mutant, config, k)

    @pytest.mark.parametrize("v, k", [(580, 2), (9, 5)])
    def test_points_all_on_one_line_skip_the_screen(self, v, k, monkeypatch):
        # The line through the first two points holds them all, so it is found by its
        # O(v) exact test and the O(v^2) slope screen never runs.
        def forbidden(*args):
            raise AssertionError("the slope screen ran on points that all lie on one line")

        monkeypatch.setattr(pluricoh.blowup, "_maybe_collinear", forbidden)
        rng = random.Random(f"one-line:{v}")
        xs = rng.sample(range(-(10**9), 10**9), v)
        config = PointConfiguration.from_coordinates([(x, Fraction(2 * x - 5, 3)) for x in xs])
        assert h0_blowup(config, k) == _line_h0(v, k)

    def test_one_move_per_peel_step(self, monkeypatch):
        # The 60-digit line below peels four times, and every step, the last included,
        # moves the points with one pass.
        moves, peels = [], []
        move, peel = pluricoh.blowup._move, pluricoh.blowup._peel

        def recording_move(size, lifts):
            moves.append(len(lifts))
            return move(size, lifts)

        def recording_peel(*args):
            peels.append(args)
            return peel(*args)

        monkeypatch.setattr(pluricoh.blowup, "_move", recording_move)
        monkeypatch.setattr(pluricoh.blowup, "_peel", recording_peel)
        rng = random.Random(5)
        xs = [rng.randrange(10**59, 10**60) for _ in range(7)]
        config = PointConfiguration.from_coordinates([(x, 3 * x + 7) for x in xs] + [(1, 2), (5, -3)])
        assert h0_blowup(config, 5) == 41
        assert (moves, len(peels)) == ([9] * 5, 4)

    def test_sixty_digit_line_peels_to_its_residual_class(self, monkeypatch):
        # Seven points with 60-digit x on y = 3x + 7 and two off it, which took minutes to
        # rank unpeeled, peel the line four times at k = 5, to (11; 1^7, 5, 5).  Two line
        # points and (1, 2) go to the coordinate points.
        builds = _record_builds(monkeypatch)
        rng = random.Random(5)
        xs = [rng.randrange(10**59, 10**60) for _ in range(7)]
        config = PointConfiguration.from_coordinates([(x, 3 * x + 7) for x in xs] + [(1, 2), (5, -3)])
        assert h0_blowup(config, 5) == 41
        # Its images have 203-bit coordinates and its 20 x 61 matrix full rank
        # mod p, so only the residues are built.
        ((_, images, degree, orders, columns, modulus),) = builds
        assert (degree, sorted(orders), modulus) == (11, [1] * 5 + [5], MODULAR_PRIME)
        assert len(columns) == _capped_count(2, 11, [10, 10, 6])


class TestClosedFormsAtHigherPowers:
    """Closed-form and invariance oracles for the special configurations at k > 1."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("v", range(1, 13))
    def test_conic_peeling_form(self, v, k):
        # From v = 7 on, h0_blowup peels the conic; naive elimination ranks the matrix on all monomials.
        config, row = generate_configuration("on_conic", v, k=k)
        assert row.h0_minus_kK == _naive_h0(config, k)

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
            assert 10 - naive_rank(_jet(config, 1).matrix) == dim

    def test_ten_points_realize_everything(self):
        witnesses = achievable_dims(10)
        assert [dim for dim, _ in witnesses] == [0, 1, 2, 3, 4, 5, 6]
        for dim, config in witnesses:
            assert config.v == 10
            assert h0_blowup(config, 1) == dim

    def test_unreachable_rank_exhausts_search_budget(self, monkeypatch):
        # While four or more points stay on the line, it peels and the rest are
        # a lattice count, so the sweep of eight points first ranks at h0 = 2:
        # conics through four sampled points, one 1 x 3 block of rank 0 here.
        _zero_ranks(monkeypatch)
        message = f"no sample reached h0\\(-1K\\) = 2 within {SWEEP_STEP_ATTEMPTS} attempts"
        with pytest.raises(SamplingBudgetError, match=message):
            achievable_dims(8)


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
